"""Run the benchmark over several seeds and summarize the spread.

Usage, from the root of a checkout::

    python3 perfbench/collect.py --seeds 1-10 [--sets 2] [--workloads cli_demod ...]
        [--trace-seed 1] [--held-out 9001] [--write FILE]

For every workload and seed it runs ``run.py`` untraced and reports each
end-to-end metric's median, quartiles and spread (interquartile distance
over the median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles) against the bound in ``BENCHMARK.json``.  ``--sets 2`` runs
every seed twice, alternating the two sets run by run (A1 B1 A2 B2 ...),
and reports how far the second set's medians moved from the first's in
the worse direction: a shift a host drifting over minutes would spread
over both sets alike, and one the benchmark causes would not.  ``--trace-seed`` adds
one traced run per workload, with the tracing overhead as traced over
untraced median ``wall_s``; ``--held-out`` adds one untraced run on a seed
kept apart from the ones used to tune the benchmark.  Runs execute one at
a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(
        (BENCH_DIR / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "tail": detail["tail"], "status": detail["status"],
            "fail_ratio": detail["fail_ratio"], "rounds": detail["rounds"],
            "revision": detail["revision"], "environment": detail["environment"]}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def summarize_set(seeds, runs, bounds) -> dict:
    entry = {"metrics": {}, "runs": [
        {"seed": s, "metrics": {k: v["value"] for k, v in r["result"]["metrics"].items()},
         "attempted": r["result"]["attempted"], "failed": r["result"]["failed"],
         "correct": r["result"]["correct"], "status": r["status"],
         "fail_ratio": r["fail_ratio"], "rounds": r["rounds"], "tail": r["tail"]}
        for s, r in zip(seeds, runs)]}
    for name, bound in bounds.items():
        stats = summarize([r["result"]["metrics"][name]["value"] for r in runs])
        stats["bound"] = bound
        entry["metrics"][name] = stats
        flag = "steady" if stats["spread"] < bound / 3 else (
            "within bound" if stats["spread"] <= bound else "TOO WIDE")
        print(f"  {name:12s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
              f"q3 {stats['q3']:.6g}  spread {stats['spread']:.4f} "
              f"(bound {bound}) {flag}")
    short = [r["seed"] for r in entry["runs"] if r["tail"]["short"]]
    print(f"  correct {all(r['result']['correct'] for r in runs)}  fail_ratio "
          f"{[round(r['fail_ratio'], 4) for r in runs]}"
          + (f"  SHORT TAIL on seeds {short}" if short else ""))
    return entry


def shift(first: dict, later: dict, better: str) -> float:
    """How far ``later``'s median is worse than ``first``'s, as a share of it."""
    a, b = first["median"], later["median"]
    return ((b - a) if better == "lower" else (a - b)) / a


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--held-out", type=int, default=None)
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "seconds": args.seconds, "sets": args.sets,
              "workloads": {}}
    for workload in args.workloads:
        runs = [[] for _ in range(args.sets)]
        for seed in seeds:
            for set_runs in runs:
                set_runs.append(run_once(workload, seed, args.seconds, 0))
        report.setdefault("revision", runs[0][0]["revision"])
        report.setdefault("environment", runs[0][0]["environment"])
        entry = {"tail_percentile": runs[0][0]["tail"]["percentile"], "sets": []}
        for i, set_runs in enumerate(runs):
            print(f"== {workload}, set {i + 1} of {args.sets}")
            entry["sets"].append(summarize_set(seeds, set_runs, bounds))
        first = entry["sets"][0]["metrics"]
        for i, later in enumerate(entry["sets"][1:], start=2):
            later["shift"] = {name: shift(first[name], later["metrics"][name], better[name])
                              for name in bounds}
            print(f"  set {i} median worse than set 1 by: " + "  ".join(
                f"{name} {val:+.3f}" + ("" if val <= bounds[name] else " BEYOND BOUND")
                for name, val in later["shift"].items()))
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, args.seconds, 1)
            layers = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
            wall = first["wall_s"]["median"]
            entry["traced"] = {"seed": args.trace_seed, "metrics": layers,
                               "overhead": layers["bench.traced_wall_s"] / wall}
            print(f"  traced seed {args.trace_seed}: overhead "
                  f"{entry['traced']['overhead']:.3f}x of untraced median wall_s")
        if args.held_out is not None:
            held = run_once(workload, args.held_out, args.seconds, 0)
            entry["held_out"] = {
                "seed": args.held_out,
                "metrics": {k: v["value"] for k, v in held["result"]["metrics"].items()},
                "correct": held["result"]["correct"], "fail_ratio": held["fail_ratio"]}
            print(f"  held-out seed {args.held_out}: "
                  + "  ".join(f"{k} {v:.6g}" for k, v in entry["held_out"]["metrics"].items()))
        report["workloads"][workload] = entry
    if args.write:
        args.write.parent.mkdir(parents=True, exist_ok=True)
        args.write.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
