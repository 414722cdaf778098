"""The three workloads: which operations a round holds and how the seed
picks their inputs.

A round is one operation drawn from each slot of the workload, in a
seeded order.  Every slot is a finite list of variants, so the whole input
space can be enumerated and its reference outputs recorded once
(``record.py``).  Slots fix what a round costs; the seed picks amplitude
ranges, grid sizes and order inside each slot.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class CliOp:
    """One ``dvcv-teleport`` invocation.

    ``out`` says where the result goes: "file" (``--out FILE``), "dir"
    (``--out DIR``, a figure bundle) or "stdout".  ``usage`` marks a
    deliberately malformed invocation, whose documented exit code is 2.
    """

    argv: tuple[str, ...]
    out: str = "stdout"
    usage: bool = False

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class LibOp:
    """One library call of the ``lib_warm`` session: a kind and its inputs."""

    kind: str
    params: tuple

    @property
    def key(self) -> str:
        return " ".join([self.kind] + [repr(p) for p in self.params])


def _sweep(protocol, lo, hi, steps, *extra, usage=False):
    argv = ("sweep", "--protocol", protocol, "--alpha-min", str(lo),
            "--alpha-max", str(hi), "--steps", str(steps)) + tuple(extra)
    return CliOp(argv, "file", usage)


def _figure(name, *extra, usage=False):
    return CliOp(("figure", name) + tuple(extra), "dir", usage)


# -- cli_demod: commands that build demodulation value tables ---------------

SINGLE_RANGES = ((0.2, 0.8), (0.3, 1.0), (0.4, 1.2), (0.5, 1.5))
AM_RANGES = ((0.2, 0.4), (0.3, 0.5), (0.25, 0.6), (0.4, 0.8))

CLI_DEMOD = (
    tuple(_sweep("single", lo, hi, 2) for lo, hi in SINGLE_RANGES),
    tuple(_sweep("single", lo, hi, 3) for lo, hi in SINGLE_RANGES),
    tuple(_sweep("init_am_single", lo, hi, 2, "--a1-grid", str(g))
          for lo, hi in AM_RANGES for g in (2, 3, 4)),
    (_figure("fig4"),),
    (_figure("fig5"),),
    (CliOp(("verify", "--suite", "paper")),),
    (CliOp(("verify", "--suite", "properties")),),
)

# -- cli_circuit: commands that build no demodulation table ------------------

#: one slot per reflectance; the seed picks the teleported qubit, which
#: leaves the cost of the circuit unchanged
ORACLE_R = (0.2, 0.1, 0.05, 0.02, 0.01)
ORACLE_A1 = (0.3, 0.5, 0.7, 0.9)
DUAL_RANGES = ((0.1, 1.2), (0.05, 1.5), (0.2, 1.0), (0.3, 1.4))
DUAL_FAR_RANGES = ((1.0, 5.0), (0.5, 4.5), (2.0, 5.0))

CLI_CIRCUIT = tuple(
    tuple(CliOp(("oracle", "--alpha", "0.5", "--r", str(r), "--a0",
                 str(round(math.sqrt(1.0 - a1 * a1), 6)), "--a1", str(a1)))
          for a1 in ORACLE_A1)
    for r in ORACLE_R
) + (
    tuple(CliOp(("negativity", "--beta", str(b))) for b in (0.3, 0.5, 0.8, 1.0)),
    tuple(CliOp(("negativity", "--beta", str(b))) for b in (1.5, 2.0, 2.5, 3.0)),
    (CliOp(("verify", "--suite", "oracle")),),
    tuple(_sweep("dual", lo, hi, steps, "--l", str(l), "--k", str(k))
          for lo, hi in DUAL_RANGES for steps in (11, 21, 41)
          for l, k in ((0, 1), (1, 2))),
    tuple(_sweep("dual", lo, hi, steps) for lo, hi in DUAL_FAR_RANGES
          for steps in (5, 9)),
    tuple(_sweep("init_am_dual", lo, hi, steps, "--a1-grid", str(g))
          for lo, hi in AM_RANGES for steps in (2, 3) for g in (3, 5)),
    (_figure("fig2"),),
    (_figure("fig3"),),
    (_sweep("dual", 0.1, 1.0, 5, "--nmax", "-3", usage=True),
     _figure("fig2", "--nmax", "-3", usage=True),
     _figure("fig3", "--nmax", "-3", usage=True)),
    (CliOp(("oracle", "--alpha", "0.5", "--r", "0.5"), usage=True),
     CliOp(("negativity", "--beta", "-1"), usage=True),
     _sweep("dual", 0.1, 1.0, 1, usage=True),
     _sweep("dual", 1.0, 0.5, 3, usage=True),
     _figure("fig9", usage=True)),
)

# -- lib_warm: a long-lived library session ----------------------------------

ALPHAS = tuple(round(0.05 * i, 2) for i in range(1, 31))
A1S = (0.2, 0.4, 0.6, 0.8)
POLICIES = ("best", "swap", "displacement", "skip")
DEMOD_COUNTS = ((0, 2), (0, 3), (0, 4), (2, 3), (2, 4))

#: five cheap slots, three mid-cost ones (overall_success_report under the
#: swap, displacement and skip policies) and five costly ones, so the median
#: operation falls inside one cost group rather than on a gap between two
LIB_WARM = (
    tuple(LibOp("records", (0, 1, a, x)) for a in ALPHAS for x in A1S),
    tuple(LibOp("records", (1, 2, a, x)) for a in ALPHAS for x in A1S),
    tuple(LibOp("probs", (0, 1, a)) for a in ALPHAS),
    tuple(LibOp("probs", (1, 2, a)) for a in ALPHAS),
) + tuple(
    tuple(LibOp("overall", (0, 1, a, policy)) for a in ALPHAS)
    for policy in POLICIES
) + (
    tuple(LibOp("overall", (1, 2, a, "best")) for a in ALPHAS),
    tuple(LibOp("single_rail", (a,)) for a in ALPHAS),
    # alpha = 1 zeroes c(1, 1), so the (0, 1) reference factor of the
    # pre-modulated protocol is singular and the call raises by design
    tuple(LibOp("am_dual", (a, x)) for a in ALPHAS if a != 1.0 for x in A1S),
    tuple(LibOp("am_single", (a, x)) for a in ALPHAS for x in A1S),
    tuple(LibOp("demod", (a, n, m, t)) for a in ALPHAS
          for n, m in DEMOD_COUNTS for t in (0, 1, 2)),
)

WORKLOADS = {"cli_demod": CLI_DEMOD, "cli_circuit": CLI_CIRCUIT,
             "lib_warm": LIB_WARM}

#: fixed tail percentile per workload, one of p90/p99 that keeps at least
#: ten operations beyond it in every run of this benchmark, with room for a
#: slower host (cli_demod has fewer than twenty operations per run, so its
#: tail is the slowest operation); run.py flags a run that falls short
TAIL_PERCENTILE = {"cli_demod": 100.0, "cli_circuit": 90.0, "lib_warm": 99.0}


def make_round(workload: str, rng: random.Random) -> list:
    """One operation from each slot, in a seeded order."""
    ops = [rng.choice(slot) for slot in WORKLOADS[workload]]
    rng.shuffle(ops)
    return ops


def all_ops(workload: str) -> list:
    """Every operation the workload can issue, each once."""
    seen = {}
    for slot in WORKLOADS[workload]:
        for op in slot:
            seen.setdefault(op.key, op)
    return list(seen.values())


# -- library calls --------------------------------------------------------------

def _qubit_amps(a1_abs: float) -> tuple[float, float]:
    return math.sqrt(1.0 - a1_abs * a1_abs), a1_abs


def lib_call(dt, op: LibOp) -> dict:
    """Run one library operation; returns named numbers for checking.

    ``fingerprint`` is compared against the recorded reference; ``probs``
    must each lie in [0, 1].
    """
    kind, p = op.kind, op.params
    if kind == "records":
        l, k, alpha, a1 = p
        recs = dt.dual_rail_records(dt.UnknownQubit(*_qubit_amps(a1), l, k), alpha)
        probs = [r.probability for r in recs]
        return {"fingerprint": [len(recs), sum(probs),
                                sum(r.probability * r.amp_factor for r in recs),
                                sum(r.probability * abs(r.corrected_state.c1) ** 2
                                    for r in recs)],
                "probs": probs + [sum(probs)]}
    if kind == "probs":
        l, k, alpha = p
        grid = [alpha - 0.004 * j for j in range(10)]
        direct = [dt.direct_success_probability(l, k, a) for a in grid]
        am = [dt.am_probability(l, k, a) for a in grid]
        pairs = [dt.pair_sum_probability(l, k, n, m, a) for a in grid
                 for n, m in ((0, 1), (0, 2), (1, 2), (0, 3))]
        return {"fingerprint": [sum(direct), sum(am), sum(pairs)],
                "probs": direct + am + pairs}
    if kind == "overall":
        l, k, alpha, policy = p
        total, rows = dt.overall_success_report(l, k, alpha, policy)
        return {"fingerprint": [total, len(rows), sum(r[5] for r in rows),
                                sum(r[6] for r in rows)],
                "probs": [total] + [r[4] for r in rows]}
    if kind == "single_rail":
        adds = dt.single_rail_demod_additions(0, 1, p[0])
        vals = [adds[key] for key in sorted(adds)]
        return {"fingerprint": vals, "probs": vals}
    if kind == "am_dual":
        alpha, a1 = p
        rows, total = dt.initially_am_dual(*_qubit_amps(a1), alpha)
        ref = dt.initially_am_dual_total_reference(a1, alpha)
        printed = dt.initially_am_dual_total_reference(a1, alpha,
                                                       fourth_term="as_printed")
        return {"fingerprint": [total, ref, printed, len(rows),
                                sum(r[2] for r in rows)],
                "probs": [total, ref] + [r[2] for r in rows]}
    if kind == "am_single":
        alpha, a1 = p
        rows, total = dt.initially_am_single(*_qubit_amps(a1), alpha)
        return {"fingerprint": [total, len(rows), sum(r[1] for r in rows)],
                "probs": [total] + [r[1] for r in rows]}
    if kind == "demod":
        alpha, n, m, target = p
        factor = dt.amp_factor_dual(0, 1, n, m, alpha)
        res = dt.demod_displacement(dt.AMQubit(*_qubit_amps(0.6), factor), target)
        residual = sum(w for _, w, _ in res.residuals)
        return {"fingerprint": [res.success_probability, res.gamma or 0.0,
                                len(res.residuals), residual],
                "probs": [res.success_probability,
                          res.success_probability + residual]}
    raise ValueError(f"unknown library operation {kind!r}")


def lib_warm_up(dt) -> None:
    """Run each library operation kind once so every lazily built table
    (the demodulation value tables above all) exists before timing."""
    for slot in LIB_WARM:
        lib_call(dt, slot[len(slot) // 2])
