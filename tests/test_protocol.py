import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvcv_teleport import displaced, optics, protocol
from dvcv_teleport.fock import QubitState, fidelity
from dvcv_teleport.protocol import (
    Outcome,
    SingularFactorError,
    UnknownQubit,
    am_probability,
    amp_factor_dual,
    brute_force_pipeline,
    circuit_vs_limit,
    direct_success_probability,
    dual_rail_records,
    maximize_direct_success,
    outcome_probability_grid,
    pair_sum_probability,
    single_rail_pipeline,
    solve_amp_factor_alpha,
    z_power_for,
)

INV_SQRT2 = 1 / math.sqrt(2)


def _single_factors(l, k, n_max, alpha):
    """The single-rail factors c(k, n)/c(l, n) of every count n <= n_max."""
    return protocol._factor_row(l, k, displaced.matrix_element_table(max(l, k), n_max, alpha))


def _probabilities(qubit, alpha, n_max):
    """The outcome probabilities of every count pair up to n_max, one table."""
    table = displaced.matrix_element_table(max(qubit.l, qubit.k), n_max, alpha)
    return outcome_probability_grid(qubit, table)


def _branches(qubit, alpha, n, m):
    """The (even, odd) conditional states of counts (n, m): records come in
    (parity, n, m) order, so the two parities of (n, m) in that order."""
    return tuple(r.bob_state for r in dual_rail_records(qubit, alpha, n_cut=max(n, m))
                 if (r.outcome.n, r.outcome.m) == (n, m))


def _corrected(state, parity, n, l):
    """``state`` after the protocol's correction word H Z^z for this branch."""
    return QubitState(*protocol._correction(z_power_for(parity, n, l)) @ state.vec())


def test_unknown_qubit_validation():
    q = UnknownQubit(3.0, 4.0)
    assert abs(q.a0) ** 2 + abs(q.a1) ** 2 == pytest.approx(1.0)
    with pytest.raises(ValueError):
        UnknownQubit(1, 0, l=0, k=2)  # even difference refused
    with pytest.raises(ValueError):
        UnknownQubit(1, 0, l=1, k=1)
    with pytest.raises(ValueError):
        UnknownQubit(0, 0)


@pytest.mark.parametrize("a0, a1", [(math.nan, 1), (math.inf, 0), (1, math.inf),
                                    (complex(1, math.nan), 0)])
def test_unknown_qubit_refuses_non_finite_amplitudes(a0, a1):
    with pytest.raises(ValueError, match="finite"):
        UnknownQubit(a0, a1)


def test_unknown_qubit_normalizes_past_the_squared_norm_range():
    # |a0|^2 + |a1|^2 overflows (or underflows) as it stands
    for big in (1e200, 1e-200):
        q = UnknownQubit(big, big)
        assert (q.a0, q.a1) == (1 / math.sqrt(2), 1 / math.sqrt(2))
    # ... or is subnormal, keeping only a few significant digits
    q = UnknownQubit(1e-160, 0)
    assert (q.a0, q.a1) == (1, 0)
    q = UnknownQubit(complex(1e308, -1e308), 0)
    assert (q.a0, q.a1) == (complex(1, -1) / math.sqrt(2), 0)
    # ordinary amplitudes divide by sqrt(|a0|^2 + |a1|^2) exactly
    q = UnknownQubit(0.3, 0.4j)
    assert (q.a0, q.a1) == (0.3 / math.sqrt(0.3 ** 2 + 0.4 ** 2),
                            0.4j / math.sqrt(0.3 ** 2 + 0.4 ** 2))


def test_outcome_validation():
    with pytest.raises(ValueError):
        Outcome("both", 0, 0)
    with pytest.raises(ValueError):
        Outcome("even", -1, 0)
    assert Outcome("even", 1).m is None


# -- amplitude factors ---------------------------------------------------

def test_factor_rational_values():
    # at alpha^2 = 1/2 the (0,1) factors reduce to (2n-1)/(2m-1)
    for (n, m), expect in [((0, 2), -1 / 3), ((0, 3), -0.2), ((1, 2), 1 / 3),
                           ((0, 4), -1 / 7), ((1, 3), 0.2), ((0, 5), -1 / 9),
                           ((1, 4), 1 / 7), ((2, 3), 0.6)]:
        assert amp_factor_dual(0, 1, n, m, INV_SQRT2) == pytest.approx(
            expect, abs=1e-12)


def test_factor_equal_counts_equal_displacements():
    for n in range(5):
        assert amp_factor_dual(0, 1, n, n, 0.77) == 1.0
        assert amp_factor_dual(1, 2, n, n, 0.33) == 1.0


def test_factor_singular():
    # c(1, 1, 1) = 0 sits in the denominator for m = 1 at alpha = 1
    with pytest.raises(SingularFactorError):
        amp_factor_dual(1, 0, 1, 0, 1.0)
    assert math.isnan(_single_factors(1, 0, 1, 1.0)[1])
    with pytest.raises(SingularFactorError):
        single_rail_pipeline(UnknownQubit(0.6, 0.8, l=1, k=0), 1.0, 1)


@given(st.integers(0, 6), st.integers(0, 6), st.floats(0.2, 1.4))
@settings(max_examples=60, deadline=None)
def test_factor_reciprocity(n, m, alpha):
    if n == m:
        return
    try:
        prod = (amp_factor_dual(0, 1, n, m, alpha)
                * amp_factor_dual(0, 1, m, n, alpha))
    except SingularFactorError:
        return
    assert prod == pytest.approx(1.0, abs=1e-10)


def test_single_rail_factors():
    assert _single_factors(0, 1, 0, 0.45)[0] == pytest.approx(-0.45)
    assert _single_factors(0, 1, 1, 1.0)[1] == pytest.approx(0.0)
    assert _single_factors(0, 1, 2, INV_SQRT2)[2] == pytest.approx(
        1.5 / INV_SQRT2, abs=1e-12)


# -- conditional states and corrections -----------------------------------

def test_bob_states_a1_zero():
    q = UnknownQubit(1, 0)
    even, odd = _branches(q, 0.7, 0, 2)
    assert abs(even.c0) == pytest.approx(abs(even.c1))
    assert abs(odd.c0) == pytest.approx(abs(odd.c1))


def test_bob_states_equal_counts_act_as_hadamard():
    q = UnknownQubit(math.sqrt(0.3), math.sqrt(0.7))
    even, _ = _branches(q, 0.7, 2, 2)
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    expect = h @ q_vec(q)
    got = even.vec() * np.sign(even.c0.real) * np.sign(expect[0].real)
    np.testing.assert_allclose(got, expect / np.linalg.norm(expect), atol=1e-12)


def q_vec(q):
    return np.array([q.a0, q.a1])


def test_parity_branches_differ_by_z():
    q = UnknownQubit(math.sqrt(0.4), math.sqrt(0.6) * 1j)
    even, odd = _branches(q, 0.9, 1, 3)
    np.testing.assert_allclose(even.vec() * np.array([1, -1]), odd.vec(),
                               atol=1e-12)


def test_correct_restores_modulated_form():
    rng = np.random.default_rng(8)
    for _ in range(6):
        x = rng.uniform(0.1, 0.9)
        q = UnknownQubit(math.sqrt(1 - x), math.sqrt(x)
                         * np.exp(1j * rng.uniform(0, 2 * math.pi)))
        n, m = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        alpha = rng.uniform(0.4, 1.1)
        a_fac = amp_factor_dual(0, 1, n, m, alpha)
        even, odd = _branches(q, alpha, n, m)
        target = QubitState(q.a0, q.a1 * a_fac)
        assert fidelity(_corrected(even, "even", n, 0), target) > 1 - 1e-12
        assert fidelity(_corrected(odd, "odd", n, 0), target) > 1 - 1e-12


def test_z_power_parity_only():
    assert z_power_for("even", 4, 0) == 0
    assert z_power_for("even", 3, 0) == 1
    assert z_power_for("odd", 3, 0) == 0
    # even power means no flip at all
    q = QubitState(0.6, 0.8)
    np.testing.assert_allclose(
        _corrected(q, "even", 2, 0).vec(),
        np.array([0.6 + 0.8, 0.6 - 0.8]) / math.sqrt(2), atol=1e-12)


def test_correct_is_single_application():
    # the word contains one Hadamard; applying it twice is not the identity
    q = QubitState(math.sqrt(0.3), math.sqrt(0.7))
    twice = _corrected(_corrected(q, "even", 1, 0), "even", 1, 0)
    assert fidelity(twice, q) < 0.999


# -- probabilities ----------------------------------------------------------

def test_direct_success_headline_values():
    assert direct_success_probability(0, 1, INV_SQRT2) == pytest.approx(
        0.2578, abs=5e-4)
    alpha, peak = maximize_direct_success(0, 1)
    assert peak == pytest.approx(0.2637, abs=5e-4)
    assert alpha == pytest.approx(0.628482, abs=5e-3)
    assert direct_success_probability(0, 1, 1e-3) < 1e-5


def test_outcome_completeness():
    q = UnknownQubit(math.sqrt(0.7), math.sqrt(0.3))
    total = _probabilities(q, 0.7, 20).sum()
    assert total == pytest.approx(1.0, abs=1e-6)


def test_direct_plus_modulated_is_one():
    for alpha in (0.3, 0.7, 1.2):
        assert (direct_success_probability(0, 1, alpha)
                + am_probability(0, 1, alpha)) == pytest.approx(1.0, abs=1e-6)
        assert (direct_success_probability(1, 2, alpha)
                + am_probability(1, 2, alpha)) == pytest.approx(1.0, abs=1e-6)


def test_pair_sum_qubit_independence():
    rng = np.random.default_rng(9)
    for _ in range(4):
        x = rng.uniform(0.05, 0.95)
        qa = UnknownQubit(math.sqrt(1 - x), math.sqrt(x))
        qb = UnknownQubit(math.sqrt(x), 1j * math.sqrt(1 - x))
        pa, pb = _probabilities(qa, 0.6, 2), _probabilities(qb, 0.6, 2)
        for (n, m) in ((0, 1), (0, 2), (1, 2)):
            sa = pa[n, m] + pa[m, n]
            sb = pb[n, m] + pb[m, n]
            assert abs(sa - sb) < 1e-10
            assert sa == pytest.approx(pair_sum_probability(0, 1, n, m, 0.6),
                                       abs=1e-12)


@pytest.mark.parametrize("lk", [(0, 1), (1, 2)])
def test_pair_sum_at_equal_counts_is_the_one_outcome(lk):
    # (n, n) is one outcome; the pair sum counted it twice
    probabilities = _probabilities(UnknownQubit(0.6, 0.8j, *lk), 0.7, 3)
    for n in range(4):
        assert pair_sum_probability(*lk, n, n, 0.7) == pytest.approx(
            probabilities[n, n], rel=1e-14, abs=0)
    # every unordered pair once tiles the outcomes (1.2588 when n = m doubled)
    total = sum(pair_sum_probability(*lk, n, m, 0.7)
                for n in range(21) for m in range(n, 21))
    assert total == pytest.approx(1.0, abs=1e-12)
    alphas = np.array([0.3, 0.7])
    assert (pair_sum_probability(*lk, 2, 2, alphas).tolist()
            == [pair_sum_probability(*lk, 2, 2, a) for a in alphas.tolist()])


@pytest.mark.parametrize("lk", [(0, 1), (1, 2)])
def test_outcome_probability_grid_over_an_alpha_array(lk):
    # each alpha row of the array grid is bitwise the grid of its float table
    q = UnknownQubit(0.3 + 0.4j, -0.5 + 0.2j, *lk)
    alphas = [0.05, 0.4072, 0.7, 1.3, 2.9]
    grid = outcome_probability_grid(
        q, displaced.matrix_element_table(max(lk), 12, np.array(alphas)))
    assert grid.shape == (len(alphas), 13, 13)
    for row, alpha in zip(grid, alphas):
        one = outcome_probability_grid(q, displaced.matrix_element_table(max(lk), 12, alpha))
        assert row.tobytes() == one.tobytes()


def test_per_outcome_probability_depends_on_qubit():
    qa = UnknownQubit(1, 0)
    qb = UnknownQubit(0, 1)
    pa = _probabilities(qa, 0.6, 2)[0, 2]
    pb = _probabilities(qb, 0.6, 2)[0, 2]
    assert abs(pa - pb) > 1e-3


def test_singular_outcome_probability_is_finite():
    # at alpha = 1 the (1, 0) factor for the (1, 0) pair is singular, yet the
    # product form keeps the outcome weight finite
    q = UnknownQubit(math.sqrt(0.5), math.sqrt(0.5), l=1, k=0)
    p = _probabilities(q, 1.0, 1)[1, 0]
    assert 0.0 < p < 1.0


def test_pair_headline_values():
    assert pair_sum_probability(0, 1, 0, 1, INV_SQRT2) == pytest.approx(
        0.18394, abs=5e-4)
    assert pair_sum_probability(1, 2, 1, 2, 0.4072) == pytest.approx(
        0.2883, abs=1e-3)


def test_operating_point_roots():
    a = solve_amp_factor_alpha(0, 1, 0, 1, -1.0, 0.5, 0.9)
    assert a == pytest.approx(INV_SQRT2, abs=1e-10)
    a12 = solve_amp_factor_alpha(1, 2, 1, 2, -1.0, 0.45, 0.56)
    assert a12 == pytest.approx(0.5053, abs=1e-3)


# -- pipelines ---------------------------------------------------------------

def test_dual_records_complete_and_ordered():
    q = UnknownQubit(math.sqrt(0.6), math.sqrt(0.4))
    records = dual_rail_records(q, 0.7, n_cut=20)
    assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-6)
    keys = [(r.outcome.parity, r.outcome.n, r.outcome.m) for r in records]
    assert keys == sorted(keys, key=lambda x: (x[0] != "even", x[1], x[2]))
    # each record agrees with the per-outcome references (factors exactly,
    # probabilities to a few ulps); singular outcomes are omitted
    for alpha in (1.0, 0.7):
        records = dual_rail_records(q, alpha, n_cut=6)
        probabilities = _probabilities(q, alpha, 6)
        expected = []
        for n in range(7):
            for m in range(7):
                try:
                    expected.append((n, m, amp_factor_dual(0, 1, n, m, alpha)))
                except SingularFactorError:
                    pass
        assert len(expected) < 49 if alpha == 1.0 else len(expected) == 49
        assert [(r.outcome.n, r.outcome.m, r.amp_factor) for r in records] == expected * 2
        for r in records:
            assert r.probability == pytest.approx(
                0.5 * probabilities[r.outcome.n, r.outcome.m], rel=1e-14)


@pytest.mark.parametrize("l,k", [(0, 1), (1, 2)])
@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1.4])
def test_dual_records_correct_like_the_scalar_word(l, k, alpha):
    # the batched correction is bitwise the word H Z^z applied record by record
    def bob_state(qubit, a_fac, n, parity):
        # one parity branch of the conditional state for factor a_fac on count n
        plus, minus = qubit.a0 + qubit.a1 * a_fac, qubit.a0 - qubit.a1 * a_fac
        sign = (-1.0) ** (n - qubit.l) * (1.0 if parity == "even" else -1.0)
        return QubitState(plus, sign * minus)

    def corrected(state, z):
        # H Z^z from the gates' matrices, on one state
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        return QubitState(*(h @ np.diag([1.0, (-1.0) ** z])) @ state.vec())

    for a0, a1 in ((math.sqrt(0.6), math.sqrt(0.4)), (0.6, 0.8j), (0.3 + 0.4j, -0.5 + 0.2j)):
        q = UnknownQubit(a0, a1, l, k)
        records = dual_rail_records(q, alpha, n_cut=6)
        assert records
        for r in records:
            parity, n = r.outcome.parity, r.outcome.n
            bob = bob_state(q, r.amp_factor, n, parity)
            assert r.bob_state == bob
            assert r.z_power == z_power_for(parity, n, l)
            assert r.corrected_state == corrected(bob, r.z_power)


def test_dual_records_build_one_coefficient_table(monkeypatch):
    calls = []
    rows = displaced.matrix_element_rows

    def counted(*args):
        calls.append(args)
        return rows(*args)

    monkeypatch.setattr(displaced, "matrix_element_rows", counted)
    dual_rail_records(UnknownQubit(0.6, 0.8j, 1, 2), 0.7, n_cut=6)
    assert len(calls) == 1


def test_single_rail_record_builds_one_coefficient_table(monkeypatch):
    calls = []
    rows = displaced.matrix_element_rows

    def counted(*args):
        calls.append(args)
        return rows(*args)

    monkeypatch.setattr(displaced, "matrix_element_rows", counted)
    rec = single_rail_pipeline(UnknownQubit(0.6, 0.8j, 1, 2), 0.7, 3)
    assert len(calls) == 1
    assert rec.amp_factor == _single_factors(1, 2, 3, 0.7)[3]
    # the singular factor names its row and count: c(1, 1) = 0 at alpha = 1
    with pytest.raises(SingularFactorError, match=r"c\(1,1;1.0\) vanishes; outcome 1 is "):
        single_rail_pipeline(UnknownQubit(0.6, 0.8, 1, 2), 1.0, 1)


@pytest.mark.parametrize("alpha", [1.0, math.sqrt(2)])
def test_outcomes_the_qubit_cannot_produce_are_left_out(alpha):
    # c(1, n0) = 0 at n0 = alpha^2, so A(n0, m) = 0 for m != n0; with a0 = 0
    # both branch amplitudes a0 +- a1 A vanish and the outcome has
    # probability zero
    n0 = round(alpha ** 2)
    q = UnknownQubit(0, 1)
    vanish = [(n0, m) for m in range(9) if m != n0]
    probabilities = _probabilities(q, alpha, 8)
    for n, m in vanish:
        assert probabilities[n, m] == 0.0
    grid = protocol.amp_factor_grid(0, 1, displaced.matrix_element_table(1, 8, alpha))
    kept = [(n, m) for n, m in np.argwhere(~np.isnan(grid)).tolist() if (n, m) not in vanish]
    assert (n0, n0) in kept  # equal counts: factor one, a well-defined branch
    records = dual_rail_records(q, alpha)
    assert [(r.outcome.n, r.outcome.m) for r in records] == kept * 2
    with pytest.raises(ValueError, match=f"outcome {n0} cannot occur"):
        single_rail_pipeline(UnknownQubit(0, 1), alpha, n0)


def test_single_rail_pipeline():
    q = UnknownQubit(math.sqrt(0.75), 0.5)
    total = sum(single_rail_pipeline(q, 0.9, n).probability for n in range(25))
    assert total == pytest.approx(1.0, abs=1e-6)

    # the golden-ratio displacement makes the first-count factor one
    rec = single_rail_pipeline(q, (math.sqrt(5) - 1) / 2, 1)
    assert rec.amp_factor == pytest.approx(1.0, abs=1e-4)

    trivial = UnknownQubit(1, 0)
    rec = single_rail_pipeline(trivial, 0.8, 2)
    assert fidelity(rec.corrected_state, QubitState(1, 0)) > 1 - 1e-12


def test_brute_force_converges_to_analytic():
    q = UnknownQubit(math.sqrt(0.7), math.sqrt(0.3))
    alpha = 0.5
    worst_prev = None
    probabilities = _probabilities(q, alpha, 1)
    for r in (0.2, 0.1):
        t = math.sqrt(1 - r * r)
        records = brute_force_pipeline(q, alpha * t / r, r, n_cut=1)
        worst = max(infid for rec, _, _, infid in circuit_vs_limit(q, alpha, r)[1]
                    if rec.outcome.n <= 1 and rec.outcome.m <= 1)
        by_counts = {}
        for rec in records:
            key = (rec.outcome.n, rec.outcome.m)
            by_counts[key] = by_counts.get(key, 0.0) + rec.probability
        for (n, m), p in by_counts.items():
            assert p == pytest.approx(probabilities[n, m], rel=12 * r * r)
        if worst_prev is not None:
            assert worst < worst_prev
        worst_prev = worst
    assert worst < 0.02


def test_brute_force_regression_point():
    # frozen regression for the reference circuit point: alpha=0.5, r=0.1,
    # counts (0,0); the exact conditional state is mixed, so its overlap
    # with the ideal-limit state tops out just below 0.99 here
    q = UnknownQubit(math.sqrt(0.7), math.sqrt(0.3))
    r = 0.1
    beta = 0.5 * math.sqrt(1 - r * r) / r
    records = brute_force_pipeline(q, beta, r, n_cut=0)
    worst = max(infid for rec, _, _, infid in circuit_vs_limit(q, 0.5, r)[1]
                if (rec.outcome.n, rec.outcome.m) == (0, 0))
    assert worst < 0.02
    assert min(rec.purity for rec in records) > 0.96


def test_brute_force_records_shape():
    q = UnknownQubit(1, 1)
    records = brute_force_pipeline(q, 2.4, 0.25, n_cut=1)
    assert len(records) == 8  # two parities x four count pairs
    for rec in records:
        assert 0.0 < rec.probability < 1.0
        assert 0.5 <= rec.purity <= 1.0 + 1e-12
        np.testing.assert_allclose(rec.rho, rec.rho.conj().T, atol=1e-12)
        assert np.trace(rec.rho).real == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n_cut", [-1, -5, 19])
def test_brute_force_refuses_a_count_cut_outside_the_auxiliary_grid(n_cut):
    # refused by name before any splitter runs; -1 used to reach a reshape
    # (mode 3 holds 19 levels at this beta and r)
    with pytest.raises(ValueError, match="n_cut"):
        brute_force_pipeline(UnknownQubit(0.6, 0.8), 4.97, 0.1, n_cut=n_cut)


def test_brute_force_builds_each_splitter_once(monkeypatch):
    # two physical splitters, each taking all its inputs as one batch
    builds = []
    real = optics._bs_blocks

    def counted(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(optics, "_bs_blocks", counted)
    q = UnknownQubit(math.sqrt(0.7), math.sqrt(0.3))
    brute_force_pipeline(q, 4.9, 0.1)
    assert len(builds) == 2


@pytest.mark.parametrize("beta", [2.4, 49.9, 249.9])
def test_negated_carrier_window_is_the_window_at_minus_beta(beta):
    # the circuit flips the odd levels of the +beta window for the -beta one
    dim = displaced.default_cutoff(beta) + 20
    c0, plus, trimmed = protocol._carrier_window(beta, dim, 1e-10)
    m0, minus, m_trimmed = protocol._carrier_window(-beta, dim, 1e-10)
    assert (c0, trimmed) == (m0, m_trimmed)
    flipped = plus.real * (-1.0) ** np.arange(c0, dim)
    np.testing.assert_array_equal(flipped.view(np.int64), minus.real.view(np.int64))
    assert not np.signbit(minus.imag).any()


@pytest.mark.parametrize("lk", [(0, 1), (1, 2)])
@pytest.mark.parametrize("r", [0.05, 0.02, 0.01])
def test_carrier_window_leaves_the_records(r, lk, monkeypatch):
    # the untrimmed reference: with no floor every carrier row starts at
    # level 0, so both splitters take the full rows at offset 0
    q = UnknownQubit(math.sqrt(0.7), math.sqrt(0.3), *lk)
    beta = 0.5 * math.sqrt(1 - r * r) / r
    windowed = brute_force_pipeline(q, beta, r)
    monkeypatch.setattr(protocol, "_CARRIER_FLOOR", -math.inf)
    full = brute_force_pipeline(q, beta, r)
    assert [rec.outcome for rec in windowed] == [rec.outcome for rec in full]
    # bitwise equal with numpy 2.4 on x86-64; the trimmed levels hold
    # amplitudes below 1e-16, far under one rounding of the sums
    for a, b in zip(windowed, full):
        assert a.probability == pytest.approx(b.probability, rel=1e-14, abs=0)
        np.testing.assert_allclose(a.rho, b.rho, rtol=0, atol=1e-15)
        np.testing.assert_allclose(a.corrected_rho, b.corrected_rho, rtol=0, atol=1e-15)


def _records_one_at_a_time(qubit, gram):
    """The circuit's records from its Gram array, one outcome per pass:
    (outcome, probability, rho, corrected rho, purity)."""
    rows = []
    for p, parity in enumerate(("even", "odd")):
        for n in range(gram.shape[1]):
            for m in range(gram.shape[2]):
                prob = 0.5 * float(np.trace(gram[p, n, m]).real)
                if prob <= 0.0:
                    continue
                rho = gram[p, n, m] / (2.0 * prob)
                gate = protocol.H_GATE @ protocol.Z_POWERS[z_power_for(parity, n, qubit.l)]
                rho_c = gate @ rho @ gate.conj().T
                rows.append((Outcome(parity, n, m), prob, rho, rho_c,
                             float(np.trace(rho @ rho).real)))
    return rows


@pytest.mark.parametrize("lk", [(0, 1), (1, 2)])
@pytest.mark.parametrize("r", [0.2, 0.05, 0.01])
def test_stacked_circuit_records_equal_the_per_outcome_loop(r, lk):
    q = UnknownQubit(0.3 + 0.4j, -0.5 + 0.2j, *lk)
    beta = 0.5 * math.sqrt(1 - r * r) / r
    records = brute_force_pipeline(q, beta, r)
    expected = _records_one_at_a_time(q, protocol._circuit_gram(q, beta, r, 2, 1e-10))
    assert len(records) == len(expected) == 18
    for rec, (outcome, prob, rho, rho_c, purity) in zip(records, expected):
        assert (rec.outcome, rec.probability, rec.purity) == (outcome, prob, purity)
        assert rec.rho.tobytes() == rho.tobytes()
        assert rec.corrected_rho.tobytes() == rho_c.tobytes()


@pytest.mark.parametrize("lk", [(0, 1), (1, 2)])
def test_circuit_approaches_the_limit_as_r_squared(lk):
    # Paris's O(r^2) approach of the splitter to the displacement, fitted
    # over r = 0.02 .. 0.002 (beta = 25 .. 250); every fitted slope was
    # within 7.4e-4 of 2.  The receiver turns pure at that rate too: the
    # counts erase the displacement amplitudes (claim 2)
    q = UnknownQubit(math.sqrt(0.7), math.sqrt(0.3), *lk)
    rs = (0.02, 0.01, 0.005, 0.002)
    worst = np.array([np.max([(rel, infid, 1.0 - rec.purity)
                              for rec, _, rel, infid in circuit_vs_limit(q, 0.5, r)[1]],
                             axis=0)
                      for r in rs])  # (r, [rel_err, infidelity, 1 - purity])
    slopes = np.polyfit(np.log(rs), np.log(worst), 1)[0]
    np.testing.assert_allclose(slopes, 2.0, rtol=0, atol=5e-3)


def test_brute_force_validation():
    q = UnknownQubit(1, 0)
    with pytest.raises(ValueError):
        brute_force_pipeline(q, 1.0, 0.5)
    # the regime ends at r = 0.3, as the splitter-as-displacer's does
    assert len(brute_force_pipeline(q, 1.0, 0.3)) > 0
    with pytest.raises(ValueError, match="regime"):
        brute_force_pipeline(q, 1.0, math.nextafter(0.3, 1.0))


@pytest.mark.parametrize("call", [
    lambda: amp_factor_dual(0, 1, -1, 2, 0.7),
    lambda: amp_factor_dual(0, 1, 2, -1, 0.7),
    lambda: amp_factor_dual(-1, 1, 0, 2, 0.7),
    lambda: single_rail_pipeline(UnknownQubit(0.6, 0.8), 0.7, -1),
    lambda: single_rail_pipeline(UnknownQubit(0.6, 0.8, l=-1, k=1), 0.7, 2),
    lambda: Outcome("even", -1, 2),
    lambda: Outcome("even", 2, -1),
    lambda: pair_sum_probability(0, 1, -1, 2, 0.7),
    lambda: pair_sum_probability(0, -1, 1, 2, 0.7),
    lambda: direct_success_probability(-1, 1, 0.7),
    lambda: am_probability(1, -1, 0.7),
])
def test_negative_rows_and_counts_are_refused(call):
    # numpy would read index -1 from the table's far end: amp_factor_dual
    # (0, 1, -1, 2, 0.7) returned the (2, 2) entry, 1.0
    with pytest.raises(ValueError, match="nonnegative"):
        call()
