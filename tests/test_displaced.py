import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvcv_teleport import displaced
from dvcv_teleport.displaced import (
    matrix_element,
    matrix_element_table,
    overall_factor,
    parity_sign_table,
)
from dvcv_teleport.fock import TailMassError


def poly_element(l, n, a):
    """Printed closed forms of the first six rows, used as the oracle."""
    f = a ** (n - l) / math.sqrt(math.factorial(l) * math.factorial(n))
    if l == 0:
        return f
    if l == 1:
        return f * (n - a ** 2)
    if l == 2:
        return f * (n * (n - 1) - 2 * n * a ** 2 + a ** 4)
    if l == 3:
        return f * (n * (n - 1) * (n - 2) - 3 * n * (n - 1) * a ** 2
                    + 3 * n * a ** 4 - a ** 6)
    if l == 4:
        return f * (n * (n - 1) * (n - 2) * (n - 3)
                    - 4 * n * (n - 1) * (n - 2) * a ** 2
                    + 6 * n * (n - 1) * a ** 4 - 4 * n * a ** 6 + a ** 8)
    if l == 5:
        return f * (n * (n - 1) * (n - 2) * (n - 3) * (n - 4)
                    - 5 * n * (n - 1) * (n - 2) * (n - 3) * a ** 2
                    + 10 * n * (n - 1) * (n - 2) * a ** 4
                    - 10 * n * (n - 1) * a ** 6 + 5 * n * a ** 8 - a ** 10)
    raise ValueError(l)


@pytest.mark.parametrize("alpha", [0.3, 1 / math.sqrt(2), 1.0, 1.5])
def test_recurrence_matches_printed_polynomials(alpha):
    for l in range(6):
        for n in range(21):
            assert matrix_element(l, n, alpha) == pytest.approx(
                poly_element(l, n, alpha), abs=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 0.83, 1.5, -0.83, 2.0])
def test_rows_match_laguerre_closed_form(alpha):
    # Cahill-Glauber: c(l, n) = sqrt(l!/n!) a^(n-l) L_l^(n-l)(a^2) for n >= l
    # and sqrt(n!/l!) (-a)^(l-n) L_n^(l-n)(a^2) below; the recurrence agrees
    # to 7.0e-14 absolute and 9.6e-14 relative over these amplitudes
    from scipy.special import eval_genlaguerre

    rows = displaced.matrix_element_rows(6, 30, alpha)
    for l in range(7):
        for n in range(31):
            lo, hi = min(l, n), max(l, n)
            sign = 1.0 if n >= l else (-1.0) ** (l - n)
            want = (sign * math.sqrt(math.factorial(lo) / math.factorial(hi))
                    * alpha ** (hi - lo) * eval_genlaguerre(lo, hi - lo, alpha * alpha))
            diff = abs(rows[l, n] - want)
            assert diff <= 2e-13
            if abs(want) > 1e-12:
                assert diff <= 2e-13 * abs(want)


def test_coherent_row_values():
    assert matrix_element(0, 2, 1.0) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert matrix_element(1, 1, 1 / math.sqrt(2)) == pytest.approx(0.5, abs=1e-14)
    # evaluated printed two-photon polynomial
    assert matrix_element(2, 2, 0.4072) == pytest.approx(0.682127, abs=1e-5)
    assert matrix_element(2, 2, 0.4072) == pytest.approx(
        poly_element(2, 2, 0.4072), abs=1e-14)


@pytest.mark.parametrize("l_max,n_max", [(0, 5), (1, 12), (2, 20)])
def test_rows_take_amplitude_arrays(l_max, n_max):
    # amplitude axes sit between l and n, each slice bitwise the scalar table
    alphas = np.array([[0.0, -0.0, -2.5, -1 / 3],
                       [1 / math.sqrt(2), 1.0, 4.2, 8.0]])
    rows = displaced.matrix_element_rows(l_max, n_max, alphas)
    assert rows.shape == (l_max + 1,) + alphas.shape + (n_max + 1,)
    stacked = np.stack([displaced.matrix_element_rows(l_max, n_max, float(a))
                        for a in alphas.ravel()], axis=1)
    assert rows.reshape(stacked.shape).tobytes() == stacked.tobytes()


def test_zero_displacement_is_kronecker():
    for l in range(7):
        for n in range(7):
            assert matrix_element(l, n, 0.0) == (1.0 if l == n else 0.0)


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        matrix_element(-1, 0, 0.5)


@given(st.integers(0, 5), st.integers(0, 12),
       st.floats(0.05, 1.9, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_reflection_sign_rule(l, n, alpha):
    assert parity_sign_table(l, n, alpha)[l, n]


def test_sign_rule_table_matches_the_per_coefficient_rule():
    alphas = np.array([0.3, 0.8, 1.3, 1.9])
    table = parity_sign_table(5, 14, alphas)
    assert table.shape == (6, 4, 15)
    for l in range(6):
        for n in range(15):
            for i, a in enumerate(alphas.tolist()):
                plus, minus = matrix_element(l, n, a), matrix_element(l, n, -a)
                expect = abs(minus - (-1.0) ** (n - l) * plus) <= 1e-12 * max(1.0, abs(plus))
                assert table[l, i, n] == expect


def test_sign_rule_examples():
    a = 0.8
    assert matrix_element(0, 3, -a) == pytest.approx(-matrix_element(0, 3, a))
    assert matrix_element(1, 1, -a) == pytest.approx(matrix_element(1, 1, a))
    assert matrix_element(5, 2, -1.3) == pytest.approx(
        -matrix_element(5, 2, 1.3))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_normalization_and_orthogonality(alpha):
    table = matrix_element_table(5, 80, alpha)
    for l in range(6):
        assert table.normalization_defect(l) < 1e-8
        for k in range(6):
            assert table.orthogonality_defect(l, k) < 1e-8


def test_displaced_state_basics():
    vac = displaced.displaced_number_state(0, 0.0)
    assert vac[0] == pytest.approx(1.0)

    coh = displaced.displaced_number_state(0, 0.7)
    assert abs(coh[0]) == pytest.approx(math.exp(-0.245), abs=1e-12)
    assert np.linalg.norm(coh) == pytest.approx(1.0, abs=1e-10)


def test_displaced_states_orthonormal():
    # same displacement, different excitation: still an orthonormal family
    states = [displaced.displaced_number_state(l, 0.9, n_max=40) for l in range(4)]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            expect = 1.0 if i == j else 0.0
            assert abs(np.vdot(a, b)) == pytest.approx(expect, abs=1e-9)


def test_displaced_state_tail_violation():
    with pytest.raises(TailMassError):
        displaced.displaced_number_state(0, 2.0, n_max=4)


def test_overall_factor():
    assert overall_factor(0.7) == pytest.approx(math.exp(-0.245))


# -- the in-package log-factorial against scipy.special ----------------------
# Its floats must be scipy's exactly, so no output moves; scipy is imported
# inside each test, as an oracle only.

ROW_AMPLITUDES = (0.0, -0.0, 1e-300, -1e-5, 0.3, -0.5, 1.0, 2.5, -10.0, 25.0,
                  -50.0, 100.0, 250.0, 1e3)
ROW_CUTOFFS = (0, 1, 11, 12, 13, 998, 999, 2830, 64048)


def bits(values):
    """The float64 bit patterns, so that == also compares sign bits."""
    return np.asarray(values, dtype=float).view(np.int64)


def test_log_factorial_is_gammaln_bit_for_bit():
    from scipy.special import gammaln

    # every branch of cephes lgam: x = n + 1 below 13, below 1000, above
    n = np.arange(200_001)
    np.testing.assert_array_equal(bits(displaced._log_factorial_range(0, 200_001)),
                                  bits(gammaln(n + 1.0)))


def test_log_factorial_past_the_series_cut_is_gammaln_bit_for_bit():
    from scipy.special import gammaln

    # cephes drops the series correction above x = 1e8
    n = np.arange(10 ** 8 - 20, 10 ** 8 + 20)
    np.testing.assert_array_equal(bits(displaced._log_factorial_range(n[0], n[-1] + 1)),
                                  bits(gammaln(n + 1.0)))


def test_scaled_coherent_row_is_the_xlogy_gammaln_row_bit_for_bit():
    from scipy.special import gammaln, xlogy

    for alpha in ROW_AMPLITUDES:
        for n_max in ROW_CUTOFFS:
            n = np.arange(n_max + 1)
            log_mag = xlogy(n, abs(alpha)) - 0.5 * gammaln(n + 1.0) - 0.5 * alpha * alpha
            want = np.exp(log_mag) * np.sign(alpha) ** n
            got = displaced._scaled_coherent_row(n_max, alpha)
            np.testing.assert_array_equal(bits(got), bits(want), err_msg=f"{alpha=} {n_max=}")


@pytest.mark.parametrize("beta", [1e-5, 0.3, 1.0, 2.5, 25.0, 250.0])
def test_negated_row_is_the_row_at_minus_alpha_bit_for_bit(beta):
    # the circuit oracle flips the odd levels of the +beta row
    # instead of building the -beta row
    n_max = displaced.default_cutoff(beta)
    plus = displaced._scaled_coherent_row(n_max, beta)
    flipped = plus * (-1.0) ** np.arange(n_max + 1)
    np.testing.assert_array_equal(bits(flipped),
                                  bits(displaced._scaled_coherent_row(n_max, -beta)))


def shifted_copy_ladder(row0, l_max, alpha):
    """The l-recurrence as one formula per step on a zero-padded shifted
    copy of the row: the reference for the table's in-place steps."""
    shape = row0.shape[:-1]
    c = np.empty((l_max + 1,) + row0.shape)
    c[0] = row0
    sqrt_n = np.sqrt(np.arange(row0.shape[-1]))
    a = alpha[..., None] if shape else alpha
    for l in range(l_max):
        shifted = np.concatenate((np.zeros(shape + (1,)), c[l, ..., :-1]), axis=-1)
        c[l + 1] = (sqrt_n * shifted - a * c[l]) / math.sqrt(l + 1)
    return c


def _grid_roots():
    """Displacement roots on the value tables' factor grid, as (601, 2),
    with 0 standing in for every root above 8."""
    a = 10.0 ** np.linspace(-6.0, 6.0, 601)
    half = 0.5 * np.sqrt(a * a + 12.0) + 0.5 * a
    roots = np.stack((3.0 / half, half), axis=-1)
    return np.where(roots <= 8.0, roots, 0.0)


@pytest.mark.parametrize("n_max", [0, 1, 12, 20])
@pytest.mark.parametrize("l_max", [0, 1, 2, 5, 8])
def test_ladder_is_bitwise_the_shifted_copy_formula(l_max, n_max):
    roots = _grid_roots()
    assert (roots == 0.0).any() and (roots != 0.0).any()
    for alpha in (0.83, -2.5, np.array([0.0, -0.0, 1e-300, 0.3, -1.7, 8.0]), roots):
        want = shifted_copy_ladder(displaced._coherent_row(n_max, alpha), l_max, alpha)
        got = displaced.matrix_element_rows(l_max, n_max, alpha)
        assert got.shape == want.shape
        np.testing.assert_array_equal(bits(got), bits(want), err_msg=f"{alpha=}")
