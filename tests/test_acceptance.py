"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; everything is deterministic and desk-scale.
"""

import math
import time

import numpy as np

from dvcv_teleport import demodulation as dm
from dvcv_teleport import displaced, fock, optics, protocol, verification

INV_SQRT2 = 1 / math.sqrt(2)


def _probabilities(qubit, alpha, n_max):
    """The outcome probabilities of every count pair up to n_max, one table."""
    table = displaced.matrix_element_table(max(qubit.l, qubit.k), n_max, alpha)
    return protocol.outcome_probability_grid(qubit, table)


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def poly_element(l, n, a):
    """Printed closed forms of the first six displaced rows (the oracle)."""
    f = a ** (n - l) / math.sqrt(math.factorial(l) * math.factorial(n))
    polys = {
        0: 1.0,
        1: n - a ** 2,
        2: n * (n - 1) - 2 * n * a ** 2 + a ** 4,
        3: (n * (n - 1) * (n - 2) - 3 * n * (n - 1) * a ** 2
            + 3 * n * a ** 4 - a ** 6),
        4: (n * (n - 1) * (n - 2) * (n - 3)
            - 4 * n * (n - 1) * (n - 2) * a ** 2
            + 6 * n * (n - 1) * a ** 4 - 4 * n * a ** 6 + a ** 8),
        5: (n * (n - 1) * (n - 2) * (n - 3) * (n - 4)
            - 5 * n * (n - 1) * (n - 2) * (n - 3) * a ** 2
            + 10 * n * (n - 1) * (n - 2) * a ** 4
            - 10 * n * (n - 1) * a ** 6 + 5 * n * a ** 8 - a ** 10),
    }
    return f * polys[l]


def test_criterion_1_matrix_element_closed_forms():
    worst_poly = 0.0
    for alpha in (0.3, INV_SQRT2, 1.0, 1.5):
        for l in range(6):
            for n in range(21):
                worst_poly = max(worst_poly, abs(
                    displaced.matrix_element(l, n, alpha)
                    - poly_element(l, n, alpha)))
    worst_col = 0.0
    for alpha in (0.3, INV_SQRT2, 1.0, 1.5):
        dim = 45
        exact = optics.displacement_matrix(alpha, dim)
        table = displaced.matrix_element_table(5, dim - 1, alpha)
        for l in range(6):
            worst_col = max(worst_col, float(np.max(np.abs(
                exact[:, l] - table.f * table.c[l]))))
    ok = worst_poly <= 1e-12 and worst_col <= 1e-9
    _report(1, ok, f"polynomial defect {worst_poly:.2e} (tol 1e-12), "
                   f"unitary-column defect {worst_col:.2e} (tol 1e-9)")


def test_criterion_2_negativity():
    worst = max(
        abs(optics.negativity_closed_form(optics.HybridChannel(b))
            - optics.negativity_numeric(optics.HybridChannel(b)))
        for b in (0.5, 1.0, 1.5, 2.0))
    tau1 = optics.negativity_closed_form(optics.HybridChannel(1.0))
    ok = worst < 1e-6 and abs(tau1 - 0.990799) <= 1e-5
    _report(2, ok, f"max |closed - numeric| = {worst:.2e} (tol 1e-6), "
                   f"tau(1) = {tau1:.6f} (0.990799 +- 1e-5)")


def test_criterion_3_factor_table_01():
    columns = [(0, 2), (0, 3), (1, 2), (0, 4), (1, 3), (0, 5), (1, 4)]
    values = [-1 / 3, -0.2, 1 / 3, -1 / 7, 0.2, -1 / 9, 1 / 7]
    worst = max(
        abs(protocol.amp_factor_dual(0, 1, n, m, INV_SQRT2)
            - (2 * n - 1) / (2 * m - 1))
        for (n, m) in columns)
    exact = all(
        abs(protocol.amp_factor_dual(0, 1, n, m, INV_SQRT2) - v) <= 1e-12
        for (n, m), v in zip(columns, values))
    eighth = protocol.amp_factor_dual(0, 1, 2, 3, INV_SQRT2)
    col6 = protocol.amp_factor_dual(0, 1, 0, 5, INV_SQRT2)
    flagged = any(
        "printed eighth column" in r.note
        for r in verification.suite_paper() if "A(2,3)" in r.name)
    ok = (exact and worst <= 1e-12
          and abs(eighth - 0.6) <= 1e-12
          and abs(col6 + 1 / 9) <= 1e-12
          and flagged)
    _report(3, ok, f"seven columns exact (worst {worst:.2e}); 3/5 realized by "
                   f"counts (2,3) = {eighth:.6f} while A(0,5) = {col6:.6f}; "
                   f"label discrepancy reported: {flagged}")


def test_criterion_4_factor_table_12():
    columns = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3)]
    values = [0.427, -0.427, -0.155, -0.0954, -0.362]
    reciprocals = [2.343, -2.343, -6.468, -10.481, -2.76]
    worst_v = max(abs(protocol.amp_factor_dual(1, 2, n, m, 0.5053) - v)
                  for (n, m), v in zip(columns, values))
    worst_r = max(abs(protocol.amp_factor_dual(1, 2, m, n, 0.5053) - rv)
                  for (n, m), rv in zip(columns, reciprocals))
    ok = worst_v <= 2e-3 and worst_r <= 1e-2
    _report(4, ok, f"value row within {worst_v:.4f} (tol 0.002), "
                   f"reciprocal row within {worst_r:.4f} (tol 0.01)")


def test_criterion_5_headline_scalars():
    checks = []
    a_star, p_star = protocol.maximize_direct_success(0, 1)
    checks.append(abs(p_star - 0.2637) <= 5e-4)
    checks.append(abs(a_star - 0.628482) <= 5e-3)
    checks.append(abs(protocol.direct_success_probability(0, 1, INV_SQRT2)
                      - 0.2578) <= 5e-4)
    checks.append(abs(protocol.pair_sum_probability(0, 1, 0, 1, INV_SQRT2)
                      - 0.18394) <= 5e-4)
    checks.append(abs(protocol.direct_success_probability(0, 1, INV_SQRT2)
                      + protocol.pair_sum_probability(0, 1, 0, 1, INV_SQRT2)
                      - 0.441789) <= 5e-4)
    checks.append(abs(protocol.direct_success_probability(0, 1, 0.628482)
                      + protocol.pair_sum_probability(0, 1, 0, 1, 0.628482)
                      - 0.500673) <= 5e-4)
    a12, p12 = protocol.maximize_direct_success(1, 2)
    checks.append(abs(p12 - 0.24371) <= 5e-4)
    checks.append(abs(a12 - 0.4072) <= 5e-3)
    checks.append(abs(protocol.pair_sum_probability(1, 2, 1, 2, 0.4072)
                      - 0.2883) <= 1e-3)
    checks.append(abs(p12 + protocol.pair_sum_probability(1, 2, 1, 2, 0.4072)
                      - 0.5317) <= 1e-3)
    checks.append(abs(protocol.direct_success_probability(1, 2, 0.5053)
                      + protocol.pair_sum_probability(1, 2, 1, 2, 0.5053)
                      - 0.4014) <= 1e-3)
    checks.append(abs(protocol.amp_factor_dual(1, 2, 1, 2, 0.5053)
                      + 1.0) <= 1e-3)
    ok = all(checks)
    _report(5, ok, f"{sum(checks)}/{len(checks)} scalar claims in tolerance; "
                   f"(0,1) max {p_star:.5f} at {a_star:.6f}, "
                   f"(1,2) max {p12:.5f} at {a12:.6f}")


def test_criterion_6_overall_demodulated():
    results = verification.overall_demodulated_checks()
    itemized = all("leading outcomes" in r.note for r in results)
    ok = all(r.passed for r in results) and itemized
    detail = "; ".join(
        f"{r.name}: {r.computed:.6f} vs {r.expected} (gap {r.computed - r.expected:+.4f})"
        for r in results)
    _report(6, ok, detail + " | per-outcome gap itemized in the verify report")


def test_criterion_7_normalization_and_algebra():
    qubit = protocol.UnknownQubit(math.sqrt(0.7), math.sqrt(0.3) * 1j)
    completeness = abs(_probabilities(qubit, 0.9, 20).sum() - 1.0)
    identity = abs(protocol.direct_success_probability(0, 1, 0.8)
                   + protocol.am_probability(0, 1, 0.8) - 1.0)

    rng = np.random.default_rng(2024)
    recip = 0.0
    trials = 0
    while trials < 50:
        n, m = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        if n == m:
            continue
        alpha = float(rng.uniform(0.2, 1.4))
        try:
            prod = (protocol.amp_factor_dual(0, 1, n, m, alpha)
                    * protocol.amp_factor_dual(0, 1, m, n, alpha))
        except protocol.SingularFactorError:
            continue
        recip = max(recip, abs(prod - 1.0))
        trials += 1

    pair_dep = 0.0
    for _ in range(5):
        x = float(rng.uniform(0.05, 0.95))
        qa = protocol.UnknownQubit(math.sqrt(1 - x), math.sqrt(x))
        qb = protocol.UnknownQubit(
            math.sqrt(x), math.sqrt(1 - x) * np.exp(1j * rng.uniform(0, 6.28)))
        pa, pb = _probabilities(qa, 0.65, 3), _probabilities(qb, 0.65, 3)
        for (n, m) in ((0, 1), (0, 2), (1, 2), (1, 3)):
            sa = pa[n, m] + pa[m, n]
            sb = pb[n, m] + pb[m, n]
            pair_dep = max(pair_dep, abs(sa - sb))
    ok = (completeness <= 1e-6 and identity <= 1e-6
          and recip <= 1e-10 and pair_dep <= 1e-10)
    _report(7, ok, f"completeness defect {completeness:.2e} (1e-6), "
                   f"direct+modulated defect {identity:.2e} (1e-6), "
                   f"reciprocity {recip:.2e} (1e-10), "
                   f"pair-sum qubit dependence {pair_dep:.2e} (1e-10)")


def test_criterion_8_circuit_oracle_convergence():
    qubit = protocol.UnknownQubit(math.sqrt(0.7), math.sqrt(0.3))
    alpha = 0.5
    outcomes = [(0, 0), (0, 1), (1, 0), (1, 1)]
    limit = _probabilities(qubit, alpha, 1)
    prob_errs, infids = [], []
    t_weakest = None
    rs = (0.2, 0.1, 0.05)
    for r in rs:
        t0 = time.perf_counter()
        rows = protocol.circuit_vs_limit(qubit, alpha, r)[1]
        elapsed = time.perf_counter() - t0
        if r == 0.05:
            t_weakest = elapsed
        perr = infid = 0.0
        for (n, m) in outcomes:
            here = [row for row in rows if (row[0].outcome.n, row[0].outcome.m) == (n, m)]
            p = sum(row[0].probability for row in here)
            perr = max(perr, abs(p - limit[n, m]))
            infid = max(infid, max(row[3] for row in here))
        prob_errs.append(perr)
        infids.append(infid)
    monotone = (prob_errs[0] > prob_errs[1] > prob_errs[2]
                and infids[0] > infids[1] > infids[2])
    # the circuit approaches the limit like r^2 (~0.38 r^2 here), so a
    # wrong limit shows as an error that is not small against r^2
    scaled = [e / r ** 2 for e, r in zip(prob_errs, rs)]
    bounded = max(scaled) <= 0.5
    ok = monotone and bounded and infids[-1] < 1e-2 and t_weakest < 300.0
    _report(8, ok, f"probability errors {[f'{e:.2e}' for e in prob_errs]} and "
                   f"infidelities {[f'{e:.2e}' for e in infids]} decrease; "
                   f"probability errors / r^2 {[f'{e:.3f}' for e in scaled]} (<= 0.5); "
                   f"infidelity at r=0.05 is {infids[-1]:.2e} (< 1e-2); "
                   f"r=0.05 run took {t_weakest:.2f}s (budget 300s)")


def test_criterion_9_demodulation_exactness():
    rng = np.random.default_rng(99)
    worst_fid = 0.0
    worst_qd = 0.0
    worst_qs = 0.0
    for _ in range(20):
        x = float(rng.uniform(0.05, 0.95))
        phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
        factor = float(rng.choice([-3.0, -1 / 3, 0.7, 1.9, -1.2, 3.5]))
        am = dm.AMQubit(math.sqrt(1 - x), math.sqrt(x) * phase, factor)
        target = int(rng.integers(0, 3))

        res = dm.demod_displacement(am, target)
        if res.restored is not None:
            # compose the actual optics and measure
            d2 = displaced.default_cutoff(abs(res.gamma)) + target + 2
            norm2 = abs(am.a0) ** 2 + abs(am.a1 * am.factor) ** 2
            amps = np.zeros((2, d2 + 1), dtype=complex)
            amps[0, 1] = am.a0 / math.sqrt(norm2)
            amps[1, 0] = am.a1 * am.factor / math.sqrt(norm2)
            # displace the auxiliary mode, then count ``target`` photons on it
            red = amps @ optics.displacement_matrix(res.gamma, d2 + 1).T[:, target]
            prob = np.vdot(red, red).real
            got = fock.QubitState(red[0], red[1])
            want = fock.QubitState(am.a0, res.sign * am.a1)
            worst_fid = max(worst_fid, 1.0 - fock.fidelity(got, want))
            worst_qd = max(worst_qd, abs(
                prob * norm2 - res.success_probability))
            worst_qd = max(worst_qd, abs(
                res.success_probability
                - displaced.overall_factor(res.gamma) ** 2
                * displaced.matrix_element(1, target, res.gamma) ** 2))

        res_s = dm.demod_swap(am)
        worst_fid = max(worst_fid, 1.0 - fock.fidelity(
            res_s.restored, fock.QubitState(am.a0, am.a1)))
        worst_qs = max(worst_qs, abs(
            res_s.success_probability - factor ** 2 / (1 + factor ** 2)))
    ok = worst_fid <= 1e-9 and worst_qd <= 1e-10 and worst_qs == 0.0
    _report(9, ok, f"restored-state infidelity {worst_fid:.2e} (1e-9), "
                   f"displacement weight defect {worst_qd:.2e} (1e-10), "
                   f"swap weight defect {worst_qs:.1e} (exact)")


def test_criterion_10_pre_modulated_behavior():
    grid = np.linspace(0.0, 1.0, 50)
    totals = [dm.initially_am_dual(math.sqrt(max(0.0, 1 - x * x)), x, 0.2)[1]
              for x in grid]
    floor = min(t for x, t in zip(grid, totals) if x <= 0.1)
    monotone = all(totals[i + 1] <= totals[i] + 1e-12
                   for i in range(len(totals) - 1))
    dominated = all(
        dm.initially_am_single(math.sqrt(1 - x * x), x, alpha)[1]
        > dm.initially_am_dual(math.sqrt(1 - x * x), x, alpha)[1]
        for alpha in (0.15, 0.2, 0.3) for x in (0.02, 0.05, 0.1, 0.2))
    ok = floor > 0.9 and monotone and dominated
    _report(10, ok, f"dual total at alpha=0.2 stays above {floor:.4f} for "
                    f"|a1| <= 0.1; non-increasing: {monotone}; "
                    f"single-rail variant dominates: {dominated}")
