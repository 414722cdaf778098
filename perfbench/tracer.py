"""Span tracing wrapped around the package's functions from outside.

``Tracer.install`` replaces every traced function of the package in each
module namespace (and module-level dict) that binds it, so calls made
through ``from .x import f`` bindings are seen too.  No source file is
changed.  Spans are kept in memory as tuples

    (span_id, name, layer, start, end, parent_id, thread_id, op_id)

and reduced to per-layer metrics with self time: a span's duration minus
the part of its interval covered by its child spans.  A span opened on a
thread that has no open span of its own (a ``cli`` thread-pool worker) is
parented to the innermost open span of the thread running the operation.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from collections import defaultdict

LAYERS = ("fock", "displaced", "optics", "protocol", "demodulation",
          "verification", "cli")

#: private or foreign names traced besides each module's public functions
EXTRA_TARGETS = {"demodulation": ("_chain_table",), "optics": ("expm",)}

CHAIN_MISS = "_chain_table:miss"
CHAIN_HIT = "_chain_table:hit"

#: per-layer metric names, in report order
PER_LAYER = (
    "cli.self_s", "cli.threads_max",
    "verification.suite_s", "verification.checks_failed",
    "demodulation.chain_build_s", "demodulation.chain_table_misses",
    "demodulation.chain_useful_ratio", "demodulation.chain_calls",
    "demodulation.chain_lookup_s", "demodulation.accounting_s",
    "demodulation.setup_chain_build_s", "demodulation.setup_chain_table_misses",
    "protocol.amp_factor_calls", "protocol.amp_factor_s",
    "protocol.probability_s", "protocol.records_s",
    "protocol.brute_force_calls", "protocol.brute_force_s",
    "displaced.table_calls", "displaced.table_cells", "displaced.table_s",
    "displaced.state_s",
    "optics.apply_bs_calls", "optics.apply_bs_s", "optics.negativity_s",
    "optics.expm_s", "optics.bs_block_builds",
    "fock.calls", "fock.s",
    "bench.traced_wall_s",
)

_PROBABILITY = {"direct_success_probability", "am_probability",
                "pair_sum_probability", "outcome_probability_dual",
                "maximize_direct_success"}
_STATES = {"coherent_state", "displaced_number_state", "scs_state"}
_NEGATIVITY = {"negativity", "negativity_numeric", "negativity_closed_form",
               "channel_state"}
_EXPM = {"expm", "displacement_matrix", "displacement_unitary"}


def bucket(layer: str, name: str) -> tuple[str | None, str | None]:
    """(self-time metric, call-count metric) a span adds to; None for none."""
    if layer == "cli":
        return "cli.self_s", None
    if layer == "verification":
        return "verification.suite_s", None
    if layer == "fock":
        return "fock.s", "fock.calls"
    if layer == "demodulation":
        if name == CHAIN_MISS:
            return "demodulation.chain_build_s", "demodulation.chain_calls"
        if name == CHAIN_HIT:
            return "demodulation.chain_lookup_s", "demodulation.chain_calls"
        if name in ("q_best", "q_displacement_chain"):
            return "demodulation.chain_lookup_s", None
        return "demodulation.accounting_s", None
    if layer == "protocol":
        if name.startswith("amp_factor_"):
            return "protocol.amp_factor_s", "protocol.amp_factor_calls"
        if name == "brute_force_pipeline":
            return "protocol.brute_force_s", "protocol.brute_force_calls"
        if name in _PROBABILITY:
            return "protocol.probability_s", None
        return "protocol.records_s", None
    if layer == "displaced":
        if name in _STATES:
            return "displaced.state_s", None
        if name == "matrix_element_rows":
            return "displaced.table_s", "displaced.table_calls"
        return "displaced.table_s", None
    if layer == "optics":
        if name == "apply_bs":
            return "optics.apply_bs_s", "optics.apply_bs_calls"
        if name in _NEGATIVITY:
            return "optics.negativity_s", None
        if name in _EXPM:
            return "optics.expm_s", None
    return None, None


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Self time per span id; children on other threads may overlap."""
    children = defaultdict(list)
    for sid, _name, _layer, start, end, parent, _thread, _op in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - union_length(children[sid], start, end)
            for sid, _name, _layer, start, end, _parent, _thread, _op in spans}


def layer_metrics(spans, work: dict[int, int]) -> dict[str, float]:
    """Sum self times and call counts of one operation's spans into the
    per-layer metrics; ``work`` maps a span id to its table cell count.
    Cache misses are read from the caches themselves, not from spans."""
    out: dict[str, float] = defaultdict(float)
    own = self_times(spans)
    threads = set()
    for sid, name, layer, _start, _end, _parent, thread, _op in spans:
        threads.add(thread)
        time_key, count_key = bucket(layer, name)
        if time_key:
            out[time_key] += own[sid]
        if count_key:
            out[count_key] += 1
        out["displaced.table_cells"] += work.get(sid, 0)
    out["cli.threads_max"] = len(threads)
    return dict(out)


class Tracer:
    """Records spans around the package's functions once installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.work: dict[int, int] = {}
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op_id) -> None:
        """Start recording one operation run by the calling thread."""
        self.op = op_id
        self._root_stack = self._stack()

    def take(self) -> tuple[list[tuple], dict[int, int]]:
        """Hand over and forget the spans recorded so far."""
        spans, work = self.spans, self.work
        self.spans, self.work = [], {}
        return spans, work

    def wrap(self, fn, layer: str, name: str, chain_cache=None, cells=False):
        tracer, ids = self, self._ids
        perf = time.perf_counter
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = tracer._stack()
            root = tracer._root_stack
            parent = stack[-1] if stack else (root[-1] if root else None)
            sid = next(ids)
            stack.append(sid)
            misses = chain_cache.cache_info().misses if chain_cache is not None else 0
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                label = name
                if chain_cache is not None:
                    hit = chain_cache.cache_info().misses == misses
                    label = CHAIN_HIT if hit else CHAIN_MISS
                elif cells and len(args) >= 2:
                    tracer.work[sid] = (args[0] + 1) * (args[1] + 1)
                tracer.spans.append((sid, label, layer, start, end, parent,
                                     get_ident(), tracer.op))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package) -> int:
        """Wrap the package's functions in every namespace binding them;
        returns the number of distinct functions wrapped."""
        modules = [package] + [getattr(package, m) for m in LAYERS]
        targets = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for name, obj in vars(mod).items():
                own = (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                       and not name.startswith("_"))
                if own or name in EXTRA_TARGETS.get(layer, ()):
                    targets[id(obj)] = self.wrap(
                        obj, layer, name,
                        chain_cache=obj if hasattr(obj, "cache_info") else None,
                        cells=name == "matrix_element_rows")
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in targets:
                    setattr(mod, name, targets[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in targets:
                            obj[key] = targets[id(val)]
        return len(targets)
