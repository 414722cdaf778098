"""Benchmark of the dvcv_teleport package, measured from outside.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli_demod --seed 1 --seconds 25 --trace 0

Imports the package from the checkout's ``src`` directory, sets up
(import, input generation and, for ``lib_warm``, warm-up), then runs rounds
of operations in a closed loop (one client, one operation at a time) until
``--seconds`` have passed, stopping before a round that would end past
them.  Untraced runs set up four more times, in fresh interpreters between
the operations, and report the median set-up.  Each ``cli_*``
operation runs in a child forked from a parent that imported the package
but ran nothing, so every program cache starts empty.  ``lib_warm``
operations run in this process on warm caches.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the metrics, end-to-end ones with
``--trace 0`` and per-layer ones with ``--trace 1``.  ``failed`` counts
regressions against the recorded reference; operations that break the
documented contract on inputs where the reference broke it too (known
defects) lower ``pass_ratio`` instead.  Details go to
``perfbench/out/<workload>-seed<seed>-trace<t>.json`` (and ``-spans.jsonl``
when tracing).  Exits 2 without a result when the package is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

#: set-ups per untraced run: this process's own, then fresh interpreters
#: spread between the operations.  The host's speed wanders over seconds, so
#: spreading them stretches both the set-up samples and the timed rounds
#: over a longer stretch of it
SETUP_SAMPLES = 5
OP_TIMEOUT_S = 120.0
SPAN_CAP = 20000

END_TO_END_UNITS = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "setup_s": "s", "pass_ratio": "ratio", "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    pass


# -- statistics -----------------------------------------------------------------

def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks; p=100 is the maximum."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


#: operations a tail percentile below 100 must leave beyond it
TAIL_BEYOND_MIN = 10


def tail(values, p: float) -> dict:
    """The p-th percentile with its sample count and how many lie beyond.
    ``short`` flags a percentile below 100 with fewer than
    ``TAIL_BEYOND_MIN`` operations beyond it, too few for a steady tail."""
    value = percentile(values, p)
    beyond = sum(v > value for v in values)
    return {"percentile": p, "value": value, "samples": len(values),
            "beyond": beyond, "short": p < 100.0 and beyond < TAIL_BEYOND_MIN}


# -- environment ----------------------------------------------------------------

def revision() -> dict:
    """The git revision if the checkout has one, and a digest of the
    package sources either way."""
    rev = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            rev = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            rev = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git": rev, "src_sha256": digest.hexdigest()[:16]}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


# -- set-up ---------------------------------------------------------------------

def import_package():
    """Import dvcv_teleport from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        dt = importlib.import_module("dvcv_teleport")
        importlib.import_module("dvcv_teleport.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import dvcv_teleport from {src}: {exc}") from exc
    if src.resolve() not in Path(dt.__file__).resolve().parents:
        raise SetupError(f"dvcv_teleport imported from {dt.__file__}, not {src}")
    return dt


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {REFERENCE}: {exc}") from exc


def setup(workload: str, seed: int, trace: tracing.Tracer | None = None):
    """Import, load references, generate the first round and, for
    ``lib_warm``, warm every table.  Returns the package, the reference,
    the seeded generator, the first round and the elapsed seconds."""
    t0 = time.perf_counter()
    dt = import_package()
    reference = load_reference()
    rng = random.Random(seed)
    first = workloads.make_round(workload, rng)
    if workload == "lib_warm":
        if trace is not None:
            trace.install(dt)
            trace.begin_op("setup")
        workloads.lib_warm_up(dt)
    return dt, reference, rng, first, time.perf_counter() - t0


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


# -- cache counters read from outside -------------------------------------------

class Caches:
    """Sizes of the program's own caches: the demodulation value-table
    cache and the beam-splitter block cache, whichever exist."""

    def __init__(self, dt):
        chain = getattr(dt.demodulation, "_chain_table", None)
        while chain is not None and not hasattr(chain, "cache_info"):
            chain = getattr(chain, "__wrapped__", None)  # under a tracing wrapper
        self._chain = chain
        self._optics = dt.optics

    def snapshot(self) -> tuple[int, int, int]:
        misses = size = 0
        if self._chain is not None:
            info = self._chain.cache_info()
            misses, size = info.misses, info.currsize
        blocks = getattr(self._optics, "_BS_CACHE", None)
        return misses, size, len(blocks) if blocks is not None else 0


def cache_growth(before, after) -> dict:
    return {"demodulation.chain_table_misses": after[0] - before[0],
            "chain_distinct": after[1] - before[1],
            "optics.bs_block_builds": after[2] - before[2]}


# -- one operation ----------------------------------------------------------------

def _exit_code(code) -> int:
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


def invoke_cli(cli, op, work: Path) -> tuple[int, str, str, str | None]:
    """Run one command in this process as the console script would:
    (exit code, stdout, stderr, written CSV or None)."""
    argv = list(op.argv)
    target = None
    if op.out == "file":
        target = work / "out.csv"
        argv += ["--out", str(target)]
    elif op.out == "dir":
        target = work / f"{op.argv[1]}.csv"
        argv += ["--out", str(work)]
    if target is not None and target.exists():
        target.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = _exit_code(cli.main(argv))
        except SystemExit as exc:
            rc = _exit_code(exc.code)
        except Exception:
            traceback.print_exc()
            rc = 1
    text = None
    if target is not None and target.exists():
        text = target.read_text()
        target.unlink()
    return rc, out.getvalue(), err.getvalue(), text


def _child(dt, op, work, caches, trace, op_id, span_room) -> dict:
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.dup2(devnull, 2)
    before = caches.snapshot()
    if trace is not None:
        trace.begin_op(op_id)
    rc, stdout, _stderr, text = invoke_cli(dt.cli, op, work)
    payload = {"rc": rc, "stdout": stdout, "text": text,
               "caches": cache_growth(before, caches.snapshot())}
    if trace is not None:
        spans, work_cells = trace.take()
        payload["layers"] = tracing.layer_metrics(spans, work_cells)
        payload["spans"] = spans[:span_room]
    return payload


def run_cli_forked(dt, op, work, caches, trace, op_id,
                   span_room) -> tuple[dict, float, float]:
    """Fork, run one command in the child, collect its result and at
    most ``span_room`` of its spans.  Returns (payload, seconds from fork
    to reaping, child peak RSS in MB)."""
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        status = 70
        try:
            os.close(read_fd)
            payload = _child(dt, op, work, caches, trace, op_id, span_room)
            data = memoryview(json.dumps(payload).encode())
            while data:
                data = data[os.write(write_fd, data):]
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks, deadline = [], time.monotonic() + OP_TIMEOUT_S
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([read_fd], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                chunks = []
                break
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - start
    if status != 0 or not chunks:
        payload = {"rc": None, "stdout": "", "text": None, "caches": {},
                   "error": f"child ended with status {status}"}
    else:
        payload = json.loads(b"".join(chunks))
    return payload, elapsed, usage.ru_maxrss / 1024.0


# -- the run ---------------------------------------------------------------------

class Run:
    """Executes rounds and keeps what the metrics need."""

    def __init__(self, workload, dt, reference, trace):
        self.workload = workload
        self.dt = dt
        self.trace = trace
        self.is_cli = workload.startswith("cli_")
        self.reference = reference["cli" if self.is_cli else "lib"]
        self.caches = Caches(dt)
        self.work = OUT_DIR / "work"
        self.op_times: list[float] = []
        self.round_times: list[float] = []
        self.records: list[list] = []
        self.status = {"ok": 0, "defect": 0, "failed": 0}
        self.layers: dict[str, float] = {}
        self.threads_max = 0
        self.spans: list = []
        self.peak_rss_mb = 0.0

    def _add_layers(self, values: dict) -> None:
        for key, val in values.items():
            if key == "cli.threads_max":
                self.threads_max = max(self.threads_max, val)
            else:
                self.layers[key] = self.layers.get(key, 0.0) + val

    def run_op(self, op) -> float:
        op_id = len(self.records)
        if self.is_cli:
            payload, seconds, rss = run_cli_forked(
                self.dt, op, self.work, self.caches, self.trace, op_id,
                SPAN_CAP - len(self.spans))
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            if payload["rc"] is None:
                problems, observed, failed_checks = [payload["error"]], None, 0
            else:
                problems, failed_checks = checks.check_cli(
                    op, payload["rc"], payload["stdout"], payload["text"])
                observed = checks.cli_observed(
                    op, payload["rc"], payload["stdout"], payload["text"])
            ref = self.reference.get(op.key)
            matches = (ref is not None and observed is not None
                       and checks.same_observed(observed, ref["observed"]))
            self._add_layers(payload["caches"])
            self._add_layers({"verification.checks_failed": failed_checks})
            if "layers" in payload:
                self._add_layers(payload["layers"])
                self.spans.extend(payload["spans"])
        else:
            before = self.caches.snapshot()
            if self.trace is not None:
                self.trace.begin_op(op_id)
            start = time.perf_counter()
            try:
                result = workloads.lib_call(self.dt, op)
            except Exception as exc:
                result = None
                problems = [f"raised {type(exc).__name__}: {exc}"]
            seconds = time.perf_counter() - start
            self._add_layers(cache_growth(before, self.caches.snapshot()))
            if self.trace is not None:
                spans, cells = self.trace.take()
                self._add_layers(tracing.layer_metrics(spans, cells))
                self.spans.extend(spans[:SPAN_CAP - len(self.spans)])
            ref = self.reference.get(op.key)
            if result is not None:
                problems = checks.check_lib(result)
            matches = (result is not None and ref is not None
                       and checks.same_fingerprint(result["fingerprint"],
                                                   ref["fingerprint"]))
        status, problems = checks.classify(problems, matches, ref)
        self.status[status] += 1
        self.op_times.append(seconds)
        self.records.append([op.key, seconds, status, problems])
        return seconds

    def run_rounds(self, first, rng, seconds: float, pauses=()) -> None:
        """Run rounds for ``seconds``: at least one, and no further round
        once the last one, run again, would end past ``seconds`` (so a
        round much longer than the others cannot double a run's length).
        Each of ``pauses`` is called once between operations,
        spread evenly over those seconds (the ones still due run after the
        last round); the time they take is not counted."""
        pauses = list(pauses)
        due = len(pauses)
        start = time.perf_counter()
        paused = 0.0
        ops = first
        self.work.mkdir(parents=True, exist_ok=True)
        while True:
            round_s = 0.0
            for op in ops:
                round_s += self.run_op(op)
                elapsed = time.perf_counter() - start - paused
                while pauses and elapsed >= seconds * (due - len(pauses) + 1) / (due + 1):
                    t0 = time.perf_counter()
                    pauses.pop(0)()
                    paused += time.perf_counter() - t0
            self.round_times.append(round_s)
            if time.perf_counter() - start - paused + round_s > seconds:
                break
            ops = workloads.make_round(self.workload, rng)
        for pause in pauses:
            pause()

    def end_to_end(self, setup_samples) -> dict:
        attempted = len(self.op_times)
        peak = self.peak_rss_mb
        if not self.is_cli:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "wall_s": statistics.fmean(self.round_times),
            "op_p50_s": statistics.median(self.op_times),
            "op_tail_s": self.tail()["value"],
            "setup_s": statistics.median(setup_samples),
            "pass_ratio": self.status["ok"] / attempted,
            "peak_rss_mb": peak,
        }

    def per_layer(self, setup_layers: dict) -> dict:
        rounds = len(self.round_times)
        out = {name: self.layers.get(name, 0.0) / rounds for name in tracing.PER_LAYER}
        misses = self.layers.get("demodulation.chain_table_misses", 0)
        distinct = self.layers.get("chain_distinct", 0)
        out["demodulation.chain_useful_ratio"] = distinct / misses if misses else 1.0
        out["cli.threads_max"] = self.threads_max
        out["demodulation.setup_chain_build_s"] = setup_layers.get(
            "demodulation.chain_build_s", 0.0)
        out["demodulation.setup_chain_table_misses"] = setup_layers.get(
            "demodulation.chain_table_misses", 0)
        out["bench.traced_wall_s"] = statistics.fmean(self.round_times)
        return out

    def tail(self) -> dict:
        return tail(self.op_times, workloads.TAIL_PERCENTILE[self.workload])


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    trace = tracing.Tracer() if args.trace else None
    try:
        dt, reference, rng, first, setup_s = setup(args.workload, args.seed, trace)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.probe_setup:
        print(repr(setup_s))
        return 0
    setup_layers = {}
    if trace is not None:
        if args.workload == "lib_warm":
            setup_layers = tracing.layer_metrics(*trace.take())
            setup_layers["demodulation.chain_table_misses"] = Caches(dt).snapshot()[0]
        else:
            trace.install(dt)
    setup_samples = [setup_s]

    def probe() -> None:
        setup_samples.append(probe_setup(args.workload, args.seed))

    run = Run(args.workload, dt, reference, trace)
    run_start = time.perf_counter()
    run.run_rounds(first, rng, args.seconds,
                   [] if args.trace else [probe] * (SETUP_SAMPLES - 1))

    if args.trace:
        metrics = run.per_layer(setup_layers)
    else:
        metrics = run.end_to_end(setup_samples)
    attempted = len(run.op_times)
    tail_info = run.tail()
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "revision": revision(), "environment": environment(),
        "setup_samples_s": setup_samples, "rounds": len(run.round_times),
        "round_s": run.round_times, "tail": tail_info,
        "status": run.status, "fail_ratio": 1.0 - run.status["ok"] / attempted,
        "metrics": metrics, "ops": run.records,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1))
    if args.trace:
        with open(stem.with_name(stem.name + "-spans.jsonl"), "w") as fh:
            for sid, name, layer, start, end, parent, thread, op in run.spans:
                fh.write(json.dumps([sid, name, layer, start - run_start,
                                     end - run_start, parent, thread, op]) + "\n")

    for key, val in run.status.items():
        print(f"{key}: {val}")
    print(f"fail_ratio: {detail['fail_ratio']:.6g} of {attempted} operations")
    print(f"op_tail_s: p{tail_info['percentile']:g} of {tail_info['samples']} "
          f"operations, {tail_info['beyond']} beyond it"
          + (f"; SHORT TAIL: fewer than {TAIL_BEYOND_MIN} beyond" if tail_info["short"] else ""))
    print(f"revision: {json.dumps(detail['revision'])}")
    print(f"environment: {json.dumps(detail['environment'])}")
    for key, problems in ((r[0], r[3]) for r in run.records if r[2] == "failed"):
        print(f"FAILED {key}: {'; '.join(problems)}")
    units = END_TO_END_UNITS if not args.trace else {k: _unit(k) for k in metrics}
    print(json.dumps({
        "correct": run.status["failed"] == 0,
        "attempted": attempted,
        "failed": run.status["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
