import math
import warnings

import numpy as np
import pytest

from dvcv_teleport import demodulation, displaced, fock, optics
from dvcv_teleport.demodulation import (
    _chain_table,
    _chain_value,
    _displacement_step,
    _factor_classes,
    _row_sums,
    _transition,
    AMQubit,
    demod_displacement,
    demod_swap,
    initially_am_dual,
    initially_am_dual_total_reference,
    initially_am_single,
    initially_am_totals,
    overall_success,
    overall_success_report,
    q_best,
    q_displacement_chain,
    q_swap,
    single_rail_demod_additions,
)
from dvcv_teleport.displaced import matrix_element, matrix_element_rows, overall_factor
from dvcv_teleport.fock import QubitState, fidelity
from dvcv_teleport.protocol import (
    SingularFactorError,
    amp_factor_dual,
    direct_success_probability,
)

INV_SQRT2 = 1 / math.sqrt(2)
GOLDEN = (math.sqrt(5) - 1) / 2


def am_as_fock(am, modes, n_max2=1):
    v = am.physical_amplitudes()
    amps = np.zeros((2, n_max2 + 1), dtype=complex)
    amps[0, 1] = v[0]
    amps[1, 0] = v[1]
    return fock.FockState(modes, amps)


# -- roots --------------------------------------------------------------------

def test_roots_golden_ratio():
    gamma, usable, *_ = _displacement_step(1.0, 1)
    assert usable.all()
    assert gamma.tolist() == pytest.approx([GOLDEN, 1 / GOLDEN], abs=1e-12)


def test_roots_vacuum_count():
    # the spurious root gamma = 0 is dropped; the only root magnitude is |A|
    _, usable, *_ = _displacement_step(1 / 3, 0)
    assert usable.tolist() == [False, True]
    for a in (-1 / 3, 0.4, -2.2, 5.0):
        res = demod_displacement(AMQubit(1, 1, a), 0)
        assert res.gamma == pytest.approx(abs(a), abs=1e-12)


def test_roots_window_and_validation():
    _, usable, *_ = _displacement_step(20.0, 0)
    assert not usable.any()
    with pytest.raises(ValueError):
        demod_displacement(AMQubit(1, 1, 0.0), 1)
    with pytest.raises(ValueError):
        demod_displacement(AMQubit(1, 1, 1.0), -1)


def test_roots_satisfy_condition():
    for a in (-3.0, -1 / 3, 0.7, 2.5):
        for n in range(4):
            gamma, usable, *_ = _displacement_step(abs(a), n)
            for g in gamma[usable]:
                ratio = g / (n - g * g)
                assert abs(abs(a * ratio) - 1.0) < 1e-10


def test_roots_solve_their_quadratic_without_cancellation():
    # the smaller root solves g^2 + a g - n = 0, the larger g^2 - a g - n = 0;
    # (sqrt(a^2 + 4n) - a) / 2 would miss the first by ~eps a^2 / n
    a = np.logspace(-6, 6, 601)
    for n in range(9):
        gamma, usable, *_ = _displacement_step(a, n)
        for root, s in ((0, 1.0), (1, -1.0)):
            g, ok = gamma[:, root], usable[:, root]
            scale = g * g + a * g + n
            assert np.all(np.abs(g * g + s * a * g - n)[ok] <= 1e-14 * scale[ok])


def test_roots_of_a_factor_whose_square_overflows():
    # a^2 overflows past ~1.3e154; the smaller root n / a stays usable
    res = demod_displacement(AMQubit(0.8, 0.6, 1e200), 1)
    assert res.gamma == pytest.approx(1e-200, rel=1e-12)
    assert res.success_probability == pytest.approx(1.0, abs=1e-12)
    gamma, usable, *_ = _displacement_step(np.array([1e200, 1e300, 1.7e308]), 3)
    assert usable.tolist() == [[True, False]] * 3
    assert gamma[:, 0] == pytest.approx([3e-200, 3e-300, 3 / 1.7e308], rel=1e-12)


def test_residuals_whose_factor_overflows_are_left_out():
    # for 1.3e154 sqrt(n) < |A| < ~4.5e161 n the p = 0 residual keeps a
    # subnormal weight ~n^2 / A^2 while its factor ~A^2 / n overflows
    for a in (1.5e154, 1e160):
        res = demod_displacement(AMQubit(0.8, 0.6, a), 1)
        assert res.gamma == pytest.approx(1 / a, rel=1e-12)
        assert res.success_probability == pytest.approx(1.0, abs=1e-12)
        assert all(math.isfinite(am.factor) for _, _, am in res.residuals)
        assert 0 not in [p for p, _, _ in res.residuals]
    # below the band the p = 0 factor is representable and stays listed;
    # above it the weight underflows to zero and no residual is listed
    res = demod_displacement(AMQubit(0.8, 0.6, 1.2e154), 1)
    assert [(p, am.factor) for p, _, am in res.residuals] == [
        (0, pytest.approx(-1.44e308, rel=1e-12)), (2, pytest.approx(0.5, rel=1e-12))]
    assert demod_displacement(AMQubit(0.8, 0.6, 1e162), 1).residuals == ()


def _log_weight_gap(gamma, n):
    """log(F^2 c(0, n)^2) at the larger root minus at the smaller one, from
    -g^2 + 2n ln g in 60-digit decimal arithmetic at the given float roots."""
    import decimal
    ctx = decimal.Context(prec=60)
    lo, hi = (decimal.Decimal(float(g)) for g in gamma)
    return ctx.subtract(ctx.add(-hi * hi, 2 * n * ctx.ln(hi)),
                        ctx.add(-lo * lo, 2 * n * ctx.ln(lo)))


def test_root_pick_is_the_larger_weight_at_small_factors():
    # the two roots' weights differ by ~|A|^3 / (3 sqrt(n)) relative, far
    # below the cancellation error of c(1, n) there
    for a in np.geomspace(1e-6, 1e-3, 200):
        for n in range(1, 9):
            gamma, usable, *_ = _displacement_step(a, n)
            assert usable.all()
            want = gamma[1] if _log_weight_gap(gamma, n) >= 0 else gamma[0]
            for factor in (a, -a):
                assert demod_displacement(AMQubit(0.8, 0.6, factor), n).gamma == want


def test_demodulator_finds_a_root_where_the_step_has_one():
    log_grid, _ = _chain_table(1, False)
    for a in 10.0 ** log_grid[::20]:
        for n in range(9):
            _, usable, *_ = _displacement_step(a, n)
            for factor in (a, -a):
                res = demod_displacement(AMQubit(0.8, 0.6, factor), n)
                assert (res.gamma is not None) == usable.any()


# -- displacement route ---------------------------------------------------------

def test_displacement_clean_factor_example():
    am = AMQubit(math.sqrt(0.5), math.sqrt(0.5), 1.0)
    res = demod_displacement(am, 0)
    assert abs(res.gamma) == pytest.approx(1.0)
    assert res.success_probability == pytest.approx(math.exp(-1), abs=1e-15)
    assert res.residual_factor == 1.0


def test_displacement_restores_exact_state():
    rng = np.random.default_rng(6)
    for _ in range(6):
        x = rng.uniform(0.1, 0.9)
        am = AMQubit(math.sqrt(1 - x),
                     math.sqrt(x) * np.exp(1j * rng.uniform(0, 2 * math.pi)),
                     -1 / 3)
        res = demod_displacement(am, 0)
        want = QubitState(am.a0, res.sign * am.a1)
        assert fidelity(res.restored, want) > 1 - 1e-12
        # full optical composition as the oracle
        d2 = 1 + int(10 * abs(res.gamma)) + 14
        st = am_as_fock(am, ("one", "two"), n_max2=d2)
        st = optics.displacement_unitary(st, "two", res.gamma)
        red, prob = fock.project_number(st, "two", 0)
        got = QubitState(red.amps[0], red.amps[1])
        assert fidelity(got, want) > 1 - 1e-9
        assert prob * am.norm_weight() ** -2 == pytest.approx(
            res.success_probability, abs=1e-10)


def test_displacement_residual_factors():
    am = AMQubit(1, 1, -1.0)
    res = demod_displacement(am, 0)
    g = res.gamma
    for p, weight, child in res.residuals:
        expect = am.factor * matrix_element(0, p, g) / matrix_element(1, p, g)
        assert child.factor == pytest.approx(expect, abs=1e-12)
        assert weight == pytest.approx(
            overall_factor(g) ** 2 * matrix_element(1, p, g) ** 2)
    # weights of target and residuals tile the count distribution
    total = res.success_probability + sum(w for _, w, _ in res.residuals)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_displacement_no_root():
    am = AMQubit(1, 1, 20.0)
    res = demod_displacement(am, 0)
    assert res.restored is None
    assert res.success_probability == 0.0
    assert res.residual_factor == 20.0


def test_displacement_strong_factor_matches_chain():
    # the smaller root n / A must not cancel away at strong factors
    res = demod_displacement(AMQubit(0.8, 0.6, 1e4), 1)
    assert res.gamma == pytest.approx(1e-4, rel=1e-6)
    assert res.success_probability == pytest.approx(
        q_displacement_chain(1e4, 1), abs=1e-9)
    # the unusable larger root, 1e100, must not overflow the coefficient rows
    res = demod_displacement(AMQubit(0.8, 0.6, -1e100), 1)
    assert res.gamma == pytest.approx(1e-100)
    assert res.success_probability == pytest.approx(1.0)


@pytest.mark.parametrize("a,n", [(-1e-6, 1), (1e-6, 4)])
def test_displacement_weak_factor_finds_a_root(a, n):
    res = demod_displacement(AMQubit(0.8, 0.6, a), n)
    assert res.restored is not None and res.gamma is not None


def test_trivial_qubit_restored_regardless():
    am = AMQubit(1, 0, -1 / 3)
    res = demod_displacement(am, 0)
    assert fidelity(res.restored, QubitState(1, 0)) == pytest.approx(1.0)


# -- swap route -----------------------------------------------------------------

def test_swap_success_values():
    assert demod_swap(AMQubit(1, 1, 3.0)).success_probability == pytest.approx(0.9)
    assert demod_swap(AMQubit(1, 1, 1.0)).success_probability == pytest.approx(0.5)
    assert demod_swap(AMQubit(1, 1, 1 / 3)).success_probability == pytest.approx(0.1)
    with pytest.raises(ValueError):
        demod_swap(AMQubit(1, 1, 0.0))


def test_swap_composition_oracle():
    # balanced splitter between the modulated qubit and the prearranged
    # partner; both heralds restore the state (one up to a Z)
    a_factor = -2.0
    am = AMQubit(math.sqrt(0.7), math.sqrt(0.3) * np.exp(0.4j), a_factor)
    st = am_as_fock(am, ("m1", "m2"))
    pre = np.array([a_factor, 1.0]) / math.sqrt(1 + a_factor ** 2)
    amps = np.zeros((2, 2), dtype=complex)
    amps[0, 1] = pre[0]
    amps[1, 0] = pre[1]
    partner = fock.FockState(("m3", "m4"), amps)
    joint = fock.tensor(st, partner)
    joint = optics.pad_mode(optics.pad_mode(joint, "m2", 2), "m3", 2)
    out = optics.apply_bs(joint, "m2", "m3", optics.BeamSplitterParams.balanced())
    success = 0.0
    for n2, n3, z in ((0, 1, 1.0), (1, 0, -1.0)):
        s1, p1 = fock.project_number(out, "m2", n2)
        s2, p2 = fock.project_number(s1, "m3", n3)
        got = QubitState(s2.amps[0, 1], z * s2.amps[1, 0])
        assert fidelity(got, QubitState(am.a0, am.a1)) > 1 - 1e-12
        success += p1 * p2
    assert success * am.norm_weight() ** -2 == pytest.approx(
        q_swap(a_factor), abs=1e-12)


# -- policy values ---------------------------------------------------------------

def test_chain_values_monotone_in_depth():
    for a in (-1.0, -1 / 3, 2.0):
        q1 = q_displacement_chain(a, 1)
        q3 = q_displacement_chain(a, 3)
        assert q3 >= q1 - 1e-12
        assert q_best(a, 3) >= max(q3, q_swap(a)) - 1e-9


def test_chain_values_take_arrays():
    factors = np.array([-3.0, -1 / 3, 0.0, 0.7, 1.9])
    for q in (q_best, q_displacement_chain):
        assert q(factors, 3).tolist() == [q(float(a), 3) for a in factors]
    assert q_best(0.0) == q_displacement_chain(0.0) == 0.0


@pytest.mark.parametrize("include_swap", [False, True])
@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
def test_chain_values_fall_like_the_square_below_the_grid(depth, include_swap):
    # every step's success weights go like A^2, so below the grid's first
    # point value / A^2 holds its level instead of growing like 1 / A^2
    log_grid, value = _chain_table(depth, include_swap)
    flat = _chain_value(1e-5, include_swap, depth) / 1e-10
    for a in (1e-8, 1e-7, 1e-6):
        assert _chain_value(a, include_swap, depth) / a ** 2 == pytest.approx(flat, abs=1e-3)
    # at and above the grid the table is read as it lies
    a = 10.0 ** np.linspace(-6.0, 7.0, 200)
    assert np.array_equal(_chain_value(a, include_swap, depth),
                          np.interp(np.log10(a), log_grid, value))


def test_chain_first_step_matches_best_root():
    # depth one equals the best single displacement attempt over targets
    a = -1.0
    q1 = q_displacement_chain(a, 1)
    direct = max(
        overall_factor(g) ** 2 * matrix_element(1, n, g) ** 2
        for n in range(9)
        for g in (0.5 * (math.sqrt(a * a + 4 * n) + s * a) for s in (1, -1))
    )
    assert q1 == pytest.approx(direct, abs=1e-6)


def bellman_step(a, log_grid, value, target_max=8, residual_max=12,
                 gamma_max=8.0):
    """One scalar displacement step at factor ``a``: the best over targets n
    and roots gamma of the success weight plus the interpolated value of
    every residual count, which falls like A^2 below the grid."""
    best = 0.0
    for n in range(target_max + 1):
        root = math.sqrt(a * a + 4.0 * n)
        for g in {2.0 * n / (root + a), 0.5 * (root + a)}:
            if g == 0.0 or g > gamma_max:
                continue
            rows = matrix_element_rows(1, residual_max, g)
            f2 = overall_factor(g) ** 2
            total = f2 * rows[1, n] ** 2
            for p in range(residual_max + 1):
                if p == n or rows[1, p] == 0.0:
                    continue
                a_next = a * abs(rows[0, p] / rows[1, p])
                cont = np.interp(math.log10(max(a_next, 1e-300)), log_grid, value)
                cont *= (min(a_next, 10.0 ** log_grid[0]) / 10.0 ** log_grid[0]) ** 2
                total += f2 * rows[1, p] ** 2 * cont
            best = max(best, total)
    return best


@pytest.mark.parametrize("include_swap", [False, True])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_chain_table_is_one_bellman_step_of_the_shallower_table(depth, include_swap):
    log_grid, value = _chain_table(depth, include_swap)
    _, shallower = _chain_table(depth - 1, include_swap)
    for i in np.unique(np.linspace(0, len(log_grid) - 1, 30).astype(int)):
        a = 10.0 ** log_grid[i]
        expected = max(bellman_step(a, log_grid, shallower),
                       q_swap(a) if include_swap else 0.0)
        assert value[i] == pytest.approx(expected, rel=1e-12, abs=0.0)


def per_table_loop(depth, include_swap):
    """Value iteration as one self-contained loop per table: the nine
    transition slices built afresh, then ``depth`` sweeps from the floor.
    A residual below the grid reads the first value, scaled by (A / A_lo)^2."""
    log_grid = np.linspace(-6.0, 6.0, 601)
    a_grid = 10.0 ** log_grid
    value = q_swap(a_grid) if include_swap else np.zeros_like(a_grid)
    slices = []
    for n in range(9):
        gamma, _, c1n2, ratio, c1p2 = _displacement_step(a_grid, n)
        f2 = np.exp(-0.5 * gamma * gamma) ** 2
        a_next = a_grid[:, None, None] * np.abs(ratio)
        points = np.log10(np.maximum(a_next, 1e-300))
        weights = f2[..., None] * c1p2
        below = (a_next < 1e-6) & (a_next > 0.0)
        weights[below] *= (a_next[below] / 1e-6) ** 2
        slices.append((f2 * c1n2, points, weights))
    floor = value
    for _ in range(depth):
        best = floor
        for success, points, weights in slices:
            cont = np.interp(points, log_grid, value)
            total = success + np.sum(weights * cont, axis=-1)
            best = np.maximum(best, total.max(axis=-1))
        value = best
    return log_grid, value


@pytest.mark.parametrize("include_swap", [False, True])
def test_chain_tables_equal_the_per_table_loop(include_swap):
    # sweeping the cached shallower table through the shared transition is
    # bitwise the loop that rebuilt the transition for every table
    for depth in range(5):
        log_grid, value = _chain_table(depth, include_swap)
        want_grid, want = per_table_loop(depth, include_swap)
        assert np.array_equal(log_grid, want_grid)
        assert np.array_equal(value, want)


def test_grid_last_points_read_exactly_as_the_old_order():
    # the points lie along the grid so np.interp's bracket guess hits; each
    # point has one bracket, so any value table reads the same bits as
    # through the same points laid out (target, grid, root, count)
    log_grid, success, points, weights = _transition()
    assert success.shape == (9, 601, 2)
    assert points.shape == (9, 2, 13, 601) and points.flags.c_contiguous
    assert weights.shape == (9, 601, 2, 13) and weights.flags.c_contiguous
    old_order = np.ascontiguousarray(points.transpose(0, 3, 1, 2))
    rng = np.random.default_rng(20181)
    values = [rng.random(601), np.cumsum(rng.normal(size=601)),
              rng.normal(scale=1e3, size=601), np.abs(rng.normal(size=601)) ** 7]
    for value in values:
        read = np.interp(points, log_grid, value).transpose(0, 3, 1, 2)
        assert np.array_equal(read, np.interp(old_order, log_grid, value))


def test_chain_table_arrays_are_read_only():
    # every cache hit shares these arrays; a write would corrupt later values
    log_grid, value = _chain_table(3, True)
    with pytest.raises(ValueError):
        value[0] = 1.0
    with pytest.raises(ValueError):
        log_grid[0] = 1.0
    # so does every table sweep the transition's arrays
    for array in _transition():
        with pytest.raises(ValueError):
            array.flat[0] = 1.0


def test_overall_skip_is_direct():
    for alpha in (0.5, INV_SQRT2):
        assert overall_success(0, 1, alpha, policy="skip") == pytest.approx(
            direct_success_probability(0, 1, alpha), abs=1e-15)


@pytest.mark.parametrize("l,k", [(0, 1), (1, 2)])
@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1.4])
def test_overall_itemization_consistent(l, k, alpha):
    total, rows = overall_success_report(l, k, alpha, n_cut=12)
    recomputed = direct_success_probability(l, k, alpha, 12) + sum(
        r[4] * r[5] for r in rows)
    assert recomputed == pytest.approx(total, abs=1e-10)
    assert all(0.0 <= r[4] <= 1.0 for r in rows)
    # the factor grid reproduces the per-outcome reference exactly
    for n, m, factor, method, *_ in rows:
        try:
            expected = amp_factor_dual(l, k, n, m, alpha)
        except SingularFactorError:
            assert method == "singular" and math.isnan(factor)
        else:
            assert method != "singular" and factor == expected
    assert any(r[3] == "singular" for r in rows) == (alpha == 1.0)


def test_overall_clean_promotion_at_operating_point():
    _, rows = overall_success_report(0, 1, INV_SQRT2, n_cut=8)
    by_counts = {(r[0], r[1]): r for r in rows}
    assert by_counts[(0, 1)][3] == "clean"
    assert by_counts[(1, 0)][3] == "clean"
    assert by_counts[(0, 2)][3] in ("swap", "displacement")


def test_overall_policies_ordered():
    alpha = 0.7
    skip = overall_success(0, 1, alpha, policy="skip")
    swap = overall_success(0, 1, alpha, policy="swap")
    best = overall_success(0, 1, alpha, policy="best")
    assert skip < swap <= best <= 1.0


def test_unknown_policy_name_is_refused_before_any_table(monkeypatch):
    def refused(*args):
        raise AssertionError("a table was built before the policy check")

    monkeypatch.setattr(demodulation, "matrix_element_table", refused)
    # at 1/sqrt(2) both outcomes of n_cut = 1 are clean, so a check of the
    # outcomes' methods alone never sees the name
    for alpha in (INV_SQRT2, 0.7):
        with pytest.raises(ValueError, match="unknown demodulation method 'bogus'"):
            overall_success_report(0, 1, alpha, policy="bogus", n_cut=1)


def test_callable_policy_answer_is_checked_on_every_non_singular_outcome():
    # at 1/sqrt(2) both outcomes of n_cut = 1 are clean, so a check of the
    # non-clean outcomes alone never reads the callable's answer
    for alpha in (INV_SQRT2, 0.7):
        with pytest.raises(ValueError, match="unknown demodulation method 'bogus'"):
            overall_success_report(0, 1, alpha, policy=lambda *a: "bogus", n_cut=1)


def test_overall_callable_policy():
    picky = overall_success(
        0, 1, 0.7,
        policy=lambda n, m, A: "swap" if abs(A) > 1 else "skip")
    assert 0.0 < picky < overall_success(0, 1, 0.7, policy="swap")


def test_factor_classes_are_one_rule():
    tol = [s * (1 + d) for s in (1, -1) for d in (0.0, 5e-10, -5e-10)]
    far = [s * (1 + d) for s in (1, -1) for d in (2e-9, -2e-9)]
    factor = np.array([math.nan, 0.0] + tol + far + [0.3, -3.0, 1e200])
    singular, clean, restorable = _factor_classes(factor)
    assert singular.tolist() == [True] + [False] * 14
    assert clean.tolist() == [False, False] + [True] * 6 + [False] * 7
    assert restorable.tolist() == [False] * 8 + [True] * 7


def test_single_rail_additions_are_continuous_at_a_pure_sign():
    # at the golden ratio the count-1 factor of (0, 1) is -1; a step of
    # 1e-10 leaves it 3.6e-10 off, still a pure sign for every tally
    at = single_rail_demod_additions(0, 1, GOLDEN)
    near = single_rail_demod_additions(0, 1, GOLDEN + 1e-10)
    assert at.keys() == near.keys()
    for key in at:
        assert near[key] == pytest.approx(at[key], abs=1e-9)
    assert at["clean"] > 0.26


def test_chain_depth_saturation():
    d3 = overall_success(0, 1, INV_SQRT2, chain_depth=3)
    d4 = overall_success(0, 1, INV_SQRT2, chain_depth=4)
    assert abs(d4 - d3) < 1e-3


def test_swap_probability_bounds():
    for a in (1e-4, 0.3, 1.0, 7.0, 1e4):
        q = q_swap(a)
        assert 0.0 < q < 1.0
    assert q_swap(1e6) > 1 - 1e-11
    assert q_swap(1e-6) < 1e-11


def test_swap_probability_is_one_where_the_squared_factor_overflows():
    # A^2 = inf makes A^2 / (1 + A^2) inf / inf; its limit 1 / (1 + 1/A^2) is one
    for a in (math.inf, -math.inf, 1e200, -1e200):
        assert q_swap(a) == 1.0
    assert demod_swap(AMQubit(0.6, 0.8, 1e200)).success_probability == 1.0
    assert math.isnan(q_swap(math.nan))
    np.testing.assert_array_equal(q_swap(np.array([1e200, math.nan, -math.inf])),
                                  [1.0, math.nan, 1.0])
    # every factor whose square is finite keeps the bits of A^2 / (1 + A^2)
    rng = np.random.default_rng(18)
    a = rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-150, 150, 2000)
    assert q_swap(a).tobytes() == (a * a / (1.0 + a * a)).tobytes()
    assert [q_swap(x) for x in a[:50].tolist()] == (a[:50] ** 2 / (1.0 + a[:50] ** 2)).tolist()


def test_demodulated_addition_never_exceeds_am_mass():
    from dvcv_teleport.protocol import am_probability
    for alpha in (0.4, INV_SQRT2, 1.0):
        for l, k in ((0, 1), (1, 2)):
            delta = (overall_success(l, k, alpha)
                     - direct_success_probability(l, k, alpha))
            assert -1e-12 <= delta <= am_probability(l, k, alpha) + 1e-12


# -- pre-modulated protocols ------------------------------------------------------

def test_initially_am_dual_clean_row():
    rows, total = initially_am_dual(math.sqrt(0.9), math.sqrt(0.1), 0.3)
    by_counts = {(r[0], r[1]): r for r in rows}
    assert by_counts[(0, 1)][4] == "clean"
    assert 0.0 < total <= 1.0
    # probabilities tile the outcome distribution
    assert sum(r[2] for r in rows) == pytest.approx(1.0, abs=1e-6)


def test_initially_am_dual_matches_reference_formula():
    a0, a1 = math.sqrt(0.8), math.sqrt(0.2)
    alpha = 0.35
    a_ref = -alpha ** 2 / (1 - alpha ** 2)
    base = a0 ** 2 + a1 ** 2 * a_ref ** 2
    a1_original = a1 * abs(a_ref) / math.sqrt(base)
    _, total = initially_am_dual(a0, a1, alpha)
    ref = initially_am_dual_total_reference(a1_original, alpha,
                                            fourth_term="first_principles")
    assert total == pytest.approx(ref, abs=1e-12)
    printed = initially_am_dual_total_reference(a1_original, alpha,
                                                fourth_term="as_printed")
    assert abs(printed - ref) > 1e-3  # the printed exponent genuinely differs


def _scalar_reference(a1_original_abs, alpha, n_cut, fourth_term):
    """The reference total summed outcome by outcome, one amplitude factor
    (and one coefficient table) per outcome."""
    c0, c1 = matrix_element_rows(1, n_cut, alpha)
    a01 = amp_factor_dual(0, 1, 0, 1, alpha)
    a10 = 1.0 / a01
    n_am2 = 1.0 / (1.0 + (a01 ** -2 - 1.0) * a1_original_abs ** 2)
    total = c0[0] ** 2 * c1[1] ** 2
    total += c0[1] ** 2 * c1[0] ** 2 * q_swap(a10 ** 2)
    total += q_swap(a10) * float(np.sum(c0 ** 2 * c1 ** 2))
    for n in range(n_cut + 1):
        for m in range(n_cut + 1 - n):
            if n == m or (n, m) in ((0, 1), (1, 0)):
                continue
            try:
                a_nm = amp_factor_dual(0, 1, n, m, alpha)
            except SingularFactorError:
                continue
            phi = a10 * a_nm if fourth_term == "first_principles" else a_nm / a10
            total += c0[n] ** 2 * c1[m] ** 2 * q_swap(phi)
    return overall_factor(alpha) ** 4 * n_am2 * total


@pytest.mark.parametrize("fourth_term", ["first_principles", "as_printed"])
def test_reference_closed_form_matches_scalar_sum(fourth_term):
    # alpha = 2 puts m = alpha^2 = 4 on the grid, where the factor is undefined
    for alpha in [0.05 * i for i in range(1, 31) if i != 20] + [-0.7, 2.0]:
        for a1, n_cut in ((0.2, 20), (0.6, 20), (0.8, 7)):
            got = initially_am_dual_total_reference(a1, alpha, n_cut, fourth_term)
            want = _scalar_reference(a1, alpha, n_cut, fourth_term)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_reference_builds_one_coefficient_table(monkeypatch):
    calls = []
    rows = displaced.matrix_element_rows

    def counted(*args):
        calls.append(args)
        return rows(*args)

    monkeypatch.setattr(displaced, "matrix_element_rows", counted)
    for fourth_term in ("first_principles", "as_printed"):
        calls.clear()
        initially_am_dual_total_reference(0.3, 0.35, fourth_term=fourth_term)
        assert len(calls) <= 1


@pytest.mark.parametrize("alpha", [0.0, 1.0, -1.0])
def test_reference_singular_at_vanishing_or_infinite_factor(alpha):
    with pytest.raises(SingularFactorError):
        initially_am_dual_total_reference(0.3, alpha)


def test_initially_am_single_vacuum_clean():
    rows, total = initially_am_single(math.sqrt(0.84), 0.4, 0.5)
    assert rows[0][3] == "clean"
    assert rows[0][2] == pytest.approx(1.0, abs=1e-12)
    assert sum(r[1] for r in rows) == pytest.approx(1.0, abs=1e-6)
    assert 0.0 < total <= 1.0


def test_initially_am_behavior_small_alpha():
    grid = np.linspace(0.0, 1.0, 50)
    duals = [initially_am_dual(math.sqrt(max(0.0, 1 - x * x)), x, 0.2)[1]
             for x in grid]
    assert min(d for x, d in zip(grid, duals) if x <= 0.1) > 0.9
    assert all(duals[i + 1] <= duals[i] + 1e-12 for i in range(len(duals) - 1))
    for x in (0.02, 0.1, 0.2):
        a0 = math.sqrt(1 - x * x)
        assert (initially_am_single(a0, x, 0.2)[1]
                > initially_am_dual(a0, x, 0.2)[1])


@pytest.mark.parametrize("alpha", [0.05, 0.2, 0.3, 0.4, 0.75, 1.0, 1.2, 1.5])
@pytest.mark.parametrize("rail", ["dual", "single"])
def test_initially_am_totals_equal_the_per_input_runs(rail, alpha):
    run = initially_am_dual if rail == "dual" else initially_am_single
    a1s = [0.0, 0.3, 0.99, 1.0]
    if rail == "dual" and alpha == 1.0:
        # the (0, 1) reference factor is singular at alpha = 1
        with pytest.raises(SingularFactorError):
            initially_am_totals(rail, a1s, alpha)
        return
    totals, clean_sums = initially_am_totals(rail, a1s, alpha)
    for x, total, clean in zip(a1s, totals.tolist(), clean_sums.tolist()):
        records, want = run(math.sqrt(max(0.0, 1.0 - x * x)), x, alpha)
        assert total == want
        assert clean == sum(r[-1] for r in records if r[-2] == "clean")


#: fig2's grid with the operating points, alpha = 1 (where some single-rail
#: factors are exactly -1 and 1, so the rows select different counts) and
#: random amplitudes
CURVE_ALPHAS = np.concatenate([
    np.round(np.arange(0.05, 1.2 + 0.005, 0.01), 10),
    [INV_SQRT2, 0.628482, 0.4072, 0.5053, 1.0],
    np.random.default_rng(3).uniform(0.05, 2.0, 40)])


def _scalar_curves(l, k, alpha, n_cut=20):
    """The curve values at one alpha, summed as the per-alpha code summed
    them: direct and modulated mass, the (0, 3) and (l, k) pair sums, and
    the four single-rail additions."""
    c = matrix_element_rows(max(l, k), max(n_cut, 3), alpha)
    f2, f4 = overall_factor(alpha) ** 2, overall_factor(alpha) ** 4
    cl2, ck2 = c[l, :n_cut + 1] ** 2, c[k, :n_cut + 1] ** 2
    diag = float(np.sum(cl2 * ck2))

    def pair(n, m):
        return f4 * ((float(c[l, n]) * float(c[k, m])) ** 2
                     + (float(c[l, m]) * float(c[k, n])) ** 2)

    weight = f2 * cl2
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(cl2 == 0.0, np.nan, c[k, :n_cut + 1] / c[l, :n_cut + 1])
    defined = ~np.isnan(factor)
    clean = defined & (np.abs(np.abs(factor) - 1.0) <= 1e-12)
    demod = defined & ~clean & (factor != 0.0)
    w, f = weight[demod], factor[demod]
    return [f4 * diag, f4 * (float(np.sum(np.outer(cl2, ck2))) - diag), pair(0, 3), pair(l, k),
            float(weight[clean].sum()), float(np.sum(w * q_swap(f))),
            float(np.sum(w * q_displacement_chain(f, 1))),
            float(np.sum(w * q_displacement_chain(f)))]


@pytest.mark.parametrize("l,k", [(0, 1), (1, 2), (2, 0)])
def test_curve_functions_take_alpha_arrays_bitwise(l, k):
    # one call over the whole grid gives, for every alpha, the bits of the
    # per-alpha sums, and so does one call at a float
    from dvcv_teleport.protocol import am_probability, pair_sum_probability

    curves = [lambda a: direct_success_probability(l, k, a),
              lambda a: am_probability(l, k, a),
              lambda a: pair_sum_probability(l, k, 0, 3, a),
              lambda a: pair_sum_probability(l, k, l, k, a)]
    curves += [lambda a, key=key: single_rail_demod_additions(l, k, a)[key]
               for key in ("clean", "swap", "displacement_first", "displacement_chain")]
    want = np.array([_scalar_curves(l, k, a) for a in CURVE_ALPHAS.tolist()]).T
    for curve, column in zip(curves, want):
        batch = curve(CURVE_ALPHAS)
        assert batch.shape == CURVE_ALPHAS.shape
        assert batch.tobytes() == column.tobytes()
        assert np.array([curve(a) for a in CURVE_ALPHAS.tolist()]).tobytes() == column.tobytes()
    grid = CURVE_ALPHAS.reshape(7, -1)
    assert direct_success_probability(l, k, grid).tobytes() == want[0].reshape(7, -1).tobytes()


def test_row_sums_sum_each_rows_selection_alone():
    rng = np.random.default_rng(5)
    values = rng.uniform(0.0, 1.0, (2, 6, 30)) * 10.0 ** rng.integers(-8, 8, (2, 6, 30))
    mask = rng.uniform(size=(2, 6, 30)) < np.array([0.0, 0.2, 0.5, 0.9, 1.0, 1.0])[:, None]
    want = [[np.sum(values[j, i][mask[j, i]]) for i in range(6)] for j in range(2)]
    assert _row_sums(values, mask).tobytes() == np.array(want).tobytes()
    assert _row_sums(values[0, 2], mask[0, 2]) == want[0][2]


@pytest.mark.parametrize("rail", ["dual", "single"])
def test_initially_am_totals_take_alpha_arrays_bitwise(rail):
    alphas = CURVE_ALPHAS[CURVE_ALPHAS != 1.0]  # dual is singular at 1
    a1s = np.linspace(0.0, 0.99, 7)
    totals, clean = initially_am_totals(rail, a1s, alphas)
    assert totals.shape == clean.shape == alphas.shape + a1s.shape
    one_by_one = [initially_am_totals(rail, a1s, a) for a in alphas.tolist()]
    assert totals.tobytes() == np.array([t for t, _ in one_by_one]).tobytes()
    assert clean.tobytes() == np.array([c for _, c in one_by_one]).tobytes()


def test_initially_am_singular_alpha_in_an_array_raises():
    with pytest.raises(SingularFactorError, match="is nan at alpha=1.0"):
        initially_am_totals("dual", [0.3], np.array([0.5, 1.0, 1.5]))


def test_initially_am_at_tiny_alpha_does_not_warn():
    # phi overflows to inf on outcomes that carry no weight there, and at a
    # subnormal alpha so does the count-1 factor (1 - alpha^2) / alpha; the
    # library handles both without asking numpy to warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert initially_am_single(0.6, 0.8, 1e-300)[1] == 0.36
        assert initially_am_single(0.6, 0.8, 5e-324)[1] == 0.36
        assert initially_am_dual(0.6, 0.8, 1e-100)[1] == 0.36
        # |a0| = sqrt(1 - 0.8^2) squares to 0.36 within rounding
        assert initially_am_totals("single", [0.8], 1e-300)[0] == pytest.approx([0.36], rel=1e-14)
        assert initially_am_totals("dual", [0.8], 1e-100)[0] == pytest.approx([0.36], rel=1e-14)


def test_initially_am_zero_displacement_is_singular():
    # the reference factor vanishes at alpha = 0: nothing to pre-modulate
    for run in (initially_am_dual, initially_am_single):
        with pytest.raises(SingularFactorError):
            run(0.8, 0.6, 0.0)
    for rail in ("dual", "single"):
        with pytest.raises(SingularFactorError):
            initially_am_totals(rail, [0.6], 0.0)


def test_am_qubit_validation():
    with pytest.raises(ValueError):
        AMQubit(0, 0, 1.0)
    with pytest.raises(ValueError):
        AMQubit(1, 0, math.inf)
    for a0, a1 in ((math.nan, 1), (math.inf, 0), (1, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            AMQubit(a0, a1, 1.0)
    big = AMQubit(1e200, 1e200, 2.0)
    assert (big.a0, big.a1) == (1 / math.sqrt(2), 1 / math.sqrt(2))
    am = AMQubit(2.0, 0, -0.5)
    assert abs(am.a0) == pytest.approx(1.0)


@pytest.mark.parametrize("run", [initially_am_dual, initially_am_single])
@pytest.mark.parametrize("a0, a1", [(math.nan, 0.5), (0.5, math.inf), (0, 0)])
def test_initially_am_refuses_non_finite_and_zero_pairs(run, a0, a1):
    with pytest.raises(ValueError, match="finite|zero norm"):
        run(a0, a1, 0.3)


@pytest.mark.parametrize("run", [initially_am_dual, initially_am_single])
@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e200, 2.0 ** 700])
def test_initially_am_normalizes_past_the_squared_norm_range(run, scale):
    # a pair whose |a0|^2 + |a1|^2 under- or overflows is scaled down first
    rows, total = run(scale, scale / 2, 0.3)
    want_rows, want = run(1.0, 0.5, 0.3)
    assert total == pytest.approx(want, rel=1e-14)
    assert len(rows) == len(want_rows)
    if scale == 2.0 ** 700:  # an exact power of two scales without rounding
        assert (rows, total) == (want_rows, want)

