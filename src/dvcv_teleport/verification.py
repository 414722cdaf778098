"""Claim-by-claim verification suites.

Three suites back the ``verify`` command: ``paper`` re-derives every
published reference value (tables, probabilities, operating points) and
compares at its stated tolerance; ``properties`` exercises the algebraic
invariants (normalization, orthogonality, sign rules, unitarity,
completeness, reciprocity, demodulation exactness); ``oracle`` runs the
finite-reflectance circuit against the analytic limit and checks
convergence.  Each check reports name, computed value, expected value,
tolerance, and pass/fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import demodulation as dm
from . import displaced, fock, optics, protocol


@dataclass
class CheckResult:
    name: str
    computed: float
    expected: float
    tolerance: float
    passed: bool
    note: str = ""


def _check(name, computed, expected, tolerance, note="") -> CheckResult:
    passed = abs(computed - expected) <= tolerance
    return CheckResult(name, float(computed), float(expected), float(tolerance),
                       bool(passed), note)


def _check_below(name, computed, bound, note="") -> CheckResult:
    return CheckResult(name, float(computed), float(bound), float(bound),
                       bool(computed <= bound), note or "computed <= bound")


def _check_true(name, flag, note="") -> CheckResult:
    return CheckResult(name, float(bool(flag)), 1.0, 0.0, bool(flag), note)


TABLE1_COLUMNS = [(0, 2), (0, 3), (1, 2), (0, 4), (1, 3), (0, 5), (1, 4)]
TABLE1_VALUES = [-1 / 3, -0.2, 1 / 3, -1 / 7, 0.2, -1 / 9, 1 / 7]
TABLE2_COLUMNS = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3)]
TABLE2_VALUES = [0.427, -0.427, -0.155, -0.0954, -0.362]
TABLE2_RECIPROCALS = [2.343, -2.343, -6.468, -10.481, -2.76]

#: the paper's operating points, which ``figure`` also carries exactly:
#: 1/sqrt(2), where the (0,1) pair factor A(0,1) is -1 (Table 1); the
#: printed maximizers of the (0,1) and (1,2) direct success; and the
#: printed root of A(1,2) = -1 for the (1,2) pair (Table 2)
ALPHA_01 = 1.0 / math.sqrt(2.0)
ALPHA_PEAK_01 = 0.628482
ALPHA_PEAK_12 = 0.4072
ALPHA_12 = 0.5053

OVERALL_01_PUBLISHED = 0.522765
OVERALL_12_PUBLISHED = 0.4968


def suite_paper() -> list[CheckResult]:
    out = []

    # entanglement of the resource state
    for beta in (0.5, 1.0, 1.5, 2.0):
        cf, num = optics.negativity(optics.HybridChannel(beta))
        out.append(_check(f"negativity agreement beta={beta}", num, cf, 1e-6))
    out.append(_check("negativity(beta=1)",
                      optics.negativity_closed_form(optics.HybridChannel(1.0)),
                      0.990799, 1e-5))
    out.append(_check("negativity(beta=2) near maximal",
                      optics.negativity_closed_form(optics.HybridChannel(2.0)),
                      1.0, 1e-4))

    # factor table, (0,1) block at alpha = 1/sqrt(2): exact rationals; each
    # block reads one factor grid, whose entries depend on their own counts only
    factor = protocol.amp_factor_grid(0, 1, displaced.matrix_element_table(1, 5, ALPHA_01))
    for (n, m), val in zip(TABLE1_COLUMNS, TABLE1_VALUES):
        out.append(_check(f"factor table (0,1): A({n},{m})", factor[n, m], val, 1e-12,
                          note="closed form (2n-1)/(2m-1)"))
        out.append(_check(f"factor table (0,1): A({m},{n})", factor[m, n], 1.0 / val, 1e-12))
    out.append(_check("factor table (0,1): A(2,3)", factor[2, 3], 0.6, 1e-12,
                      note="the printed eighth column repeats the label (0,5) "
                           "but its value 3/5 belongs to counts (2,3); "
                           "A(0,5) itself is -1/9 (column six)"))

    # factor table, (1,2) block at alpha = ALPHA_12
    factor = protocol.amp_factor_grid(1, 2, displaced.matrix_element_table(2, 4, ALPHA_12))
    for (n, m), val, rec in zip(TABLE2_COLUMNS, TABLE2_VALUES, TABLE2_RECIPROCALS):
        out.append(_check(f"factor table (1,2): A({n},{m})", factor[n, m], val, 2e-3))
        out.append(_check(f"factor table (1,2): A({m},{n})", factor[m, n], rec, 1e-2))
    out.append(_check(f"A(1,2) of (1,2) block at {ALPHA_12}", factor[1, 2], -1.0, 1e-3))

    # headline probabilities of the dual-rail protocol
    a_star, p_star = protocol.maximize_direct_success(0, 1)
    out.append(_check("(0,1) direct-success maximum", p_star, 0.2637, 5e-4))
    out.append(_check("(0,1) maximizing displacement", a_star, ALPHA_PEAK_01, 5e-3,
                      note="golden-section location"))
    out.append(_check("(0,1) direct success at 1/sqrt2",
                      protocol.direct_success_probability(0, 1, ALPHA_01),
                      0.2578, 5e-4))
    out.append(_check("(0,1) pair mass (0,1)+(1,0) at 1/sqrt2",
                      protocol.pair_sum_probability(0, 1, 0, 1, ALPHA_01),
                      0.18394, 5e-4))
    out.append(_check("(0,1) sign-free delivery at 1/sqrt2",
                      protocol.direct_success_probability(0, 1, ALPHA_01)
                      + protocol.pair_sum_probability(0, 1, 0, 1, ALPHA_01),
                      0.441789, 5e-4))
    out.append(_check(f"(0,1) sign-free delivery at {ALPHA_PEAK_01}",
                      protocol.direct_success_probability(0, 1, ALPHA_PEAK_01)
                      + protocol.pair_sum_probability(0, 1, 0, 1, ALPHA_PEAK_01),
                      0.500673, 5e-4))
    a12, p12 = protocol.maximize_direct_success(1, 2)
    out.append(_check("(1,2) direct-success maximum", p12, 0.24371, 5e-4))
    out.append(_check("(1,2) maximizing displacement", a12, ALPHA_PEAK_12, 5e-3))
    out.append(_check(f"(1,2) pair mass (1,2)+(2,1) at {ALPHA_PEAK_12}",
                      protocol.pair_sum_probability(1, 2, 1, 2, ALPHA_PEAK_12),
                      0.2883, 1e-3))
    out.append(_check("(1,2) maximum plus pair mass",
                      p12 + protocol.pair_sum_probability(1, 2, 1, 2, ALPHA_PEAK_12),
                      0.5317, 1e-3))
    out.append(_check(f"(1,2) sign-free delivery at {ALPHA_12}",
                      protocol.direct_success_probability(1, 2, ALPHA_12)
                      + protocol.pair_sum_probability(1, 2, 1, 2, ALPHA_12),
                      0.4014, 1e-3))

    out.extend(overall_demodulated_checks())
    return out


def overall_demodulated_checks() -> list[CheckResult]:
    """Best-policy overall success against the published figures, with the
    per-outcome split recorded in the notes.

    The published operating points sit where the leading pair factor is
    exactly -1: alpha = 1/sqrt(2) for (0,1), and for (1,2) the root of
    A(1,2) = -1 whose four-digit rounding is 0.5053.  Sign-only (+-1)
    deliveries count as clean.  The method assignment behind the published
    totals is not uniquely determined; the notes carry this policy and the
    swap-only comparison.
    """
    out = []
    alpha12 = protocol.solve_amp_factor_alpha(1, 2, 1, 2, -1.0, 0.45, 0.56)

    for (l, k, alpha, published, label) in (
        (0, 1, ALPHA_01, OVERALL_01_PUBLISHED, "(0,1) at 1/sqrt2"),
        (1, 2, alpha12, OVERALL_12_PUBLISHED, f"(1,2) at {alpha12:.6f}"),
    ):
        total, rows = dm.overall_success_report(l, k, alpha, policy="best")
        swap_total = dm.overall_success(l, k, alpha, policy="swap")
        top = sorted(rows, key=lambda r: -r[6])[:6]
        itemized = "; ".join(
            f"({r[0]},{r[1]}) A={r[2]:+.4f} {r[3]} q={r[4]:.4f} adds {r[6]:.5f}"
            for r in top
        )
        note = (
            f"gap {total - published:+.5f}; swap-only policy gives {swap_total:.6f} "
            f"(gap {swap_total - published:+.5f}); leading outcomes: {itemized}"
        )
        out.append(_check(f"overall demodulated success {label}", total,
                          published, 2e-2, note=note))
    return out


def suite_properties() -> list[CheckResult]:
    rng = np.random.default_rng(7)
    out = []

    # decomposition-table normalization / orthogonality / sign rule
    table = displaced.matrix_element_table(5, 80, np.array([0.5, 1.0, 1.5, 2.0]))
    worst_norm = max(table.normalization_defect(l).max() for l in range(6))
    worst_orth = max(table.orthogonality_defect(l, kk).max()
                     for l in range(6) for kk in range(6))
    out.append(_check_below("row normalization defect (l<=5, alpha<=2)",
                            worst_norm, 1e-8))
    out.append(_check_below("row orthogonality defect (l,k<=5)", worst_orth, 1e-8))
    sign_ok = bool(displaced.parity_sign_table(
        5, 14, np.array([0.3, 0.8, 1.3, 1.9])).all())
    out.append(_check_true("reflection sign rule c(l,n,-a) = (-1)^(n-l) c(l,n,a)",
                           sign_ok))

    # recurrence route vs matrix-exponential route
    worst = 0.0
    for alpha in (0.3, ALPHA_01, 1.0, 1.5):
        dim = 40
        d_exact = optics.displacement_matrix(alpha, dim)
        table = displaced.matrix_element_table(5, dim - 1, alpha)
        for l in range(6):
            worst = max(worst, float(np.max(np.abs(
                d_exact[:, l] - table.f * table.c[l]
            ))))
    out.append(_check_below("displaced columns: recurrence vs expm", worst, 1e-9))

    # unitarity and inverses on a random three-photon-support state
    amps = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    state = fock.FockState(("a", "b"), amps / np.linalg.norm(amps))
    big = optics.pad_mode(optics.pad_mode(state, "a", 12), "b", 12)
    bs = optics.BeamSplitterParams.from_reflectance(0.37)
    once = optics.apply_bs(big, "a", "b", bs)
    out.append(_check("splitter norm preservation", once.norm(), big.norm(), 1e-10))
    back = optics.apply_bs(once, "a", "b",
                           optics.BeamSplitterParams(bs.t, -bs.r))
    out.append(_check_below("splitter inverse composition residual",
                            float(np.max(np.abs(back.amps - big.amps))), 1e-10))
    disp = optics.displacement_unitary(big, "a", 0.8)
    out.append(_check("displacement norm preservation", disp.norm(), big.norm(), 1e-10))
    undone = optics.displacement_unitary(disp, "a", -0.8)
    out.append(_check_below("displacement inverse residual",
                            float(np.max(np.abs(undone.amps - big.amps))), 1e-9))

    # weak-reflectance displacement: fidelity rises, error is O(r^2)
    one = fock.number_state("x", 1, 6)
    fids = []
    for r in (0.2, 0.1, 0.05):
        beta = 0.5 * math.sqrt(1 - r * r) / r
        fid, _ = optics.htbs_residual(one, beta, r, +1)
        fids.append(fid)
    out.append(_check_true("weak-reflectance fidelity monotone",
                           fids[0] < fids[1] < fids[2],
                           note=f"fidelities {[f'{f:.6f}' for f in fids]}"))
    slope = np.polyfit(np.log([0.2, 0.1, 0.05]),
                       np.log1p([-f for f in fids]), 1)[0]
    out.append(_check("weak-reflectance error power", slope, 2.0, 0.5,
                      note="log-log slope of 1 - fidelity vs r"))

    # outcome-probability completeness and the direct/AM split
    qubit = protocol.UnknownQubit(math.sqrt(0.7), math.sqrt(0.3) * 1j)
    for alpha in (0.7, 1.2):
        total = float(protocol.outcome_probability_grid(
            qubit, displaced.matrix_element_table(1, 20, alpha)).sum())
        out.append(_check(f"outcome completeness alpha={alpha}", total, 1.0, 1e-6))
        split = (protocol.direct_success_probability(0, 1, alpha)
                 + protocol.am_probability(0, 1, alpha))
        out.append(_check(f"direct + modulated = 1 at alpha={alpha}", split, 1.0, 1e-6))

    # reciprocity of the factors on random count pairs
    worst = 0.0
    trials = 0
    while trials < 50:
        n, m = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        if n == m:
            continue
        alpha = float(rng.uniform(0.2, 1.4))
        grid = protocol.amp_factor_grid(0, 1, displaced.matrix_element_table(1, 6, alpha))
        prod = grid[n, m] * grid[m, n]
        if math.isnan(prod):  # a singular factor
            continue
        worst = max(worst, abs(prod - 1.0))
        trials += 1
    out.append(_check_below("factor reciprocity on 50 random count pairs",
                            worst, 1e-10))

    # pair sums do not see the teleported amplitudes
    worst = 0.0
    table = displaced.matrix_element_table(1, 2, 0.6)
    for _ in range(2):
        x = float(rng.uniform(0.05, 0.95))
        qa = protocol.UnknownQubit(math.sqrt(1 - x), math.sqrt(x))
        qb = protocol.UnknownQubit(math.sqrt(x), -1j * math.sqrt(1 - x))
        grids = [protocol.outcome_probability_grid(q, table) for q in (qa, qb)]
        for (n, m) in ((0, 1), (0, 2), (1, 2)):
            pa, pb = (float(grid[n, m] + grid[m, n]) for grid in grids)
            worst = max(worst, abs(pa - pb))
            worst = max(worst, abs(pa - protocol.pair_sum_probability(0, 1, n, m, 0.6)))
    out.append(_check_below("pair sums independent of the superposition", worst, 1e-10))

    # correction soundness on the analytic records
    worst = 0.0
    for rec in protocol.dual_rail_records(qubit, 0.7, n_cut=4):
        target = fock.QubitState(qubit.a0, qubit.a1 * rec.amp_factor)
        worst = max(worst, 1.0 - fock.fidelity(rec.corrected_state, target))
    out.append(_check_below("correction word lands on (a0, a1*A)", worst, 1e-12))

    # demodulation exactness on random modulated qubits
    worst_fid = 0.0
    worst_qd = worst_qs = 0.0
    for _ in range(20):
        x = float(rng.uniform(0.1, 0.9))
        phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
        factor = float(rng.choice([-3.0, -1 / 3, 0.7, 1.9, -1.2]))
        am = dm.AMQubit(math.sqrt(1 - x), math.sqrt(x) * phase, factor)
        target = int(rng.integers(0, 3))
        res_d = dm.demod_displacement(am, target)
        if res_d.restored is not None:
            want = fock.QubitState(am.a0, res_d.sign * am.a1)
            worst_fid = max(worst_fid, 1.0 - fock.fidelity(res_d.restored, want))
            gamma = res_d.gamma
            worst_qd = max(worst_qd, abs(
                res_d.success_probability
                - displaced.overall_factor(gamma) ** 2
                * displaced.matrix_element(1, target, gamma) ** 2
            ))
        res_s = dm.demod_swap(am)
        worst_fid = max(worst_fid, 1.0 - fock.fidelity(
            res_s.restored, fock.QubitState(am.a0, am.a1)))
        worst_qs = max(worst_qs, abs(
            res_s.success_probability - factor ** 2 / (1 + factor ** 2)))
    out.append(_check_below("demodulated state matches (a0, +-a1)", worst_fid, 1e-9))
    out.append(_check_below("displacement success weight matches formula", worst_qd, 1e-10))
    out.append(_check_below("swap success weight matches formula", worst_qs, 0.0))

    # overall accounting consistency and chain-depth saturation
    total, rows = dm.overall_success_report(0, 1, 0.7, n_cut=12)
    recomputed = protocol.direct_success_probability(0, 1, 0.7, 12) + sum(
        r[4] * r[5] for r in rows
    )
    out.append(_check("itemized rows reproduce the total", recomputed, total, 1e-10))
    d3 = dm.overall_success(0, 1, ALPHA_01, chain_depth=3)
    d4 = dm.overall_success(0, 1, ALPHA_01, chain_depth=4)
    out.append(_check_below("chain contribution beyond depth 3", abs(d4 - d3), 1e-3))

    out.extend(initially_modulated_checks())
    return out


def initially_modulated_checks() -> list[CheckResult]:
    """Behavior of the pre-modulated protocols (a curve family published
    without a numeric table, so checked as shape properties)."""
    out = []
    grid = np.linspace(0.0, 1.0, 50)
    totals = dm.initially_am_totals("dual", grid, 0.2)[0].tolist()
    out.append(_check_true(
        "pre-modulated dual total exceeds 0.9 for |a1| <= 0.1 at alpha = 0.2",
        min(t for x, t in zip(grid, totals) if x <= 0.1) > 0.9,
        note=f"minimum {min(t for x, t in zip(grid, totals) if x <= 0.1):.4f}"))
    out.append(_check_true(
        "pre-modulated dual total non-increasing in |a1|",
        all(totals[i + 1] <= totals[i] + 1e-12 for i in range(len(totals) - 1))))
    a1s = (0.02, 0.05, 0.1, 0.2)
    alphas = np.array([0.15, 0.2, 0.3])
    dominated = bool((dm.initially_am_totals("single", a1s, alphas)[0]
                      > dm.initially_am_totals("dual", a1s, alphas)[0]).all())
    out.append(_check_true(
        "single-rail pre-modulation dominates dual at small alpha, |a1|",
        dominated))
    # vacuum-count row is factor-free and the count distribution is complete
    rows, _ = dm.initially_am_single(math.sqrt(0.84), 0.4, 0.5)
    out.append(_check("vacuum-count relative factor", rows[0][2], 1.0, 1e-12))
    out.append(_check("pre-modulated single count completeness",
                      sum(r[1] for r in rows), 1.0, 1e-6))
    fp = dm.initially_am_dual_total_reference(0.3, 0.35, fourth_term="first_principles")
    ap = dm.initially_am_dual_total_reference(0.3, 0.35, fourth_term="as_printed")
    out.append(_check_true(
        "printed fourth-term exponent differs from first principles",
        abs(fp - ap) > 1e-3,
        note=f"first-principles {fp:.6f} vs as-printed {ap:.6f}; the printed "
             "line inverts the prepared factor's exponent, so both are reported"))
    return out


def suite_oracle() -> list[CheckResult]:
    out = []
    qubit = protocol.UnknownQubit(math.sqrt(0.7), math.sqrt(0.3))
    max_prob_err = []
    max_infid = []
    for r in (0.2, 0.1, 0.05):
        rows = [(rel, infid) for rec, _, rel, infid in
                protocol.circuit_vs_limit(qubit, 0.5, r)[1]
                if rec.outcome.n <= 1 and rec.outcome.m <= 1]
        perr, infid = np.max(rows, axis=0)
        max_prob_err.append(perr)
        max_infid.append(infid)
        out.append(CheckResult(
            f"circuit vs limit at r={r}", perr, 0.0, math.inf, True,
            note=f"max relative probability error {perr:.5f}, "
                 f"max corrected-state infidelity {infid:.2e}",
        ))
    out.append(_check_true(
        "probability error decreases monotonically with r",
        all(max_prob_err[i] > max_prob_err[i + 1]
            for i in range(len(max_prob_err) - 1))))
    out.append(_check_true(
        "state infidelity decreases monotonically with r",
        all(max_infid[i] > max_infid[i + 1] for i in range(len(max_infid) - 1))))
    out.append(_check_below(
        "corrected-state infidelity at the weakest reflectance",
        max_infid[-1], 1e-2))
    return out


SUITES = {
    "paper": suite_paper,
    "properties": suite_properties,
    "oracle": suite_oracle,
}


def run_suite(name: str) -> list[CheckResult]:
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return fn()


def format_report(results: list[CheckResult]) -> str:
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"[{status}] {r.name:<{width}}  computed={r.computed:.9g} "
            f"expected={r.expected:.9g} tol={r.tolerance:.2g}"
            + (f"  | {r.note}" if r.note else "")
        )
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines)
