import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvcv_teleport import fock
from dvcv_teleport.fock import (
    FockState,
    MeasurementRangeError,
    ModeCollisionError,
    QubitState,
    fidelity,
    number_state,
    project_number,
    single_mode,
    tensor,
)
from dvcv_teleport.optics import pad_mode


def random_state(rng, modes, dims):
    shape = tuple(d + 1 for d in dims)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps /= np.linalg.norm(amps)
    return FockState(modes, amps)


def coherent_coeffs(alpha, n_max):
    n = np.arange(n_max + 1)
    fact = np.array([math.factorial(int(i)) for i in n], dtype=float)
    return np.exp(-abs(alpha) ** 2 / 2) * alpha ** n / np.sqrt(fact)


def test_fock_state_validation():
    with pytest.raises(ValueError, match="cutoff"):
        FockState(("a", "b"), np.ones((1, 3)))
    state = FockState(("a",), np.ones(3))
    for bad in (1.0, -1e-3, math.nan):
        with pytest.raises(ValueError, match="tail tolerance"):
            state.check_tail(bad)


def test_cutoffs_are_the_array_shape():
    # every state a function builds reads its cutoffs off its own array
    a = single_mode("a", [0.6, 0.0, 0.8])
    joint = tensor(a, number_state("b", 1, 3))
    assert (joint.n_max("a"), joint.n_max("b")) == (2, 3)
    assert joint.tail_mass("a") == pytest.approx(0.64)
    assert joint.tail_mass("b") == 0.0
    rest, _ = project_number(joint, "a", 2)
    assert rest.modes == ("b",) and rest.n_max("b") == 3
    assert rest.tail_mass("b") == 0.0
    grown = pad_mode(joint, "a", 5)
    assert grown.amps.shape == (6, 4) and grown.n_max("a") == 5
    assert grown.tail_mass("a") == 0.0


def test_vacuum_tensor_product():
    v1 = number_state("a", 0, 1)
    v2 = number_state("b", 0, 1)
    prod = tensor(v1, v2)
    assert prod.amps[0, 0] == 1.0
    assert prod.norm() == pytest.approx(1.0)


def test_tensor_linearity():
    plus = single_mode("a", np.array([1, 1]) / np.sqrt(2))
    one = number_state("b", 1, 1)
    prod = tensor(plus, one)
    np.testing.assert_allclose(prod.amps[:, 1], [1 / np.sqrt(2)] * 2)
    np.testing.assert_allclose(prod.amps[:, 0], [0, 0])


def test_tensor_rejects_mode_collision():
    a = number_state("a", 0, 1)
    with pytest.raises(ModeCollisionError):
        tensor(a, number_state("a", 1, 1))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_tensor_norm_multiplies(seed):
    rng = np.random.default_rng(seed)
    a = random_state(rng, ("a",), (3,))
    b = random_state(rng, ("b", "c"), (2, 2))
    scaled = FockState(a.modes, 0.7 * a.amps)
    prod = tensor(scaled, b)
    # independent oracle: direct summation over all multi-indices
    direct = math.sqrt(sum(
        abs(scaled.amps[i] * b.amps[j, k]) ** 2
        for i in range(4) for j in range(3) for k in range(3)
    ))
    assert prod.norm() == pytest.approx(scaled.norm() * b.norm(), abs=1e-12)
    assert prod.norm() == pytest.approx(direct, abs=1e-12)


def test_project_number_basics():
    state = tensor(number_state(1, 0, 1), number_state(2, 1, 1))
    rest, p = project_number(state, 1, 0)
    assert p == pytest.approx(1.0)
    np.testing.assert_allclose(rest.amps, [0, 1])

    bell_amps = np.zeros((2, 2), dtype=complex)
    bell_amps[0, 1] = bell_amps[1, 0] = 1 / np.sqrt(2)
    bell = FockState((1, 2), bell_amps)
    rest, p = project_number(bell, 1, 1)
    assert p == pytest.approx(0.5)
    np.testing.assert_allclose(rest.amps, [1, 0])


def test_project_number_coherent_single_photon_weight():
    # closed form: |<1|alpha>|^2 = exp(-|a|^2) |a|^2
    state = single_mode("m", coherent_coeffs(0.5, 20))
    _, p = project_number(state, "m", 1)
    assert p == pytest.approx(math.exp(-0.25) * 0.25, abs=1e-12)


def test_project_number_range_and_zero_probability():
    state = number_state("m", 1, 3)
    with pytest.raises(MeasurementRangeError):
        project_number(state, "m", 4)
    out, p = project_number(state, "m", 2)
    assert out is None and p == 0.0


def test_project_number_completeness():
    rng = np.random.default_rng(5)
    state = random_state(rng, ("a", "b"), (4, 3))
    total = sum(project_number(state, "a", n)[1] for n in range(5))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_tensor_projection_commutation():
    rng = np.random.default_rng(3)
    a = random_state(rng, ("a", "x"), (3, 2))
    b = random_state(rng, ("b",), (2,))
    joint = tensor(a, b)
    left, p_joint = project_number(joint, "a", 2)
    alone, p_alone = project_number(a, "a", 2)
    assert p_joint == pytest.approx(p_alone, abs=1e-12)
    expect = tensor(alone, b)
    np.testing.assert_allclose(left.amps, expect.amps, atol=1e-12)


def test_normalize_closure():
    state = single_mode("m", [0.3, 0.1, 0.2])
    assert abs(state.normalize().norm() - 1.0) < 1e-12


@pytest.mark.parametrize("c0, c1", [(math.nan, 1), (1, math.inf),
                                    (complex(0, math.nan), 1), (0, 0), (0.0, -0.0)])
def test_qubit_state_refuses_non_finite_and_zero_pairs(c0, c1):
    with pytest.raises(ValueError, match="finite|zero norm"):
        QubitState(c0, c1)


@pytest.mark.parametrize("c0, c1, want", [
    (1e-170, 0, (1, 0)),  # |c0|^2 underflows to zero
    (1e-160, 0, (1, 0)),  # |c0|^2 is subnormal
    (1e200, 0, (1, 0)),  # |c0|^2 overflows
    (1e200, 1e200, (1 / math.sqrt(2), 1 / math.sqrt(2))),
])
def test_qubit_state_normalizes_past_the_squared_norm_range(c0, c1, want):
    q = QubitState(c0, c1)
    assert (q.c0, q.c1) == want


def test_qubit_state_keeps_the_bits_of_ordinary_pairs():
    # numpy amplitudes (an eigenvector, a sliced state) as well as Python ones
    for c0, c1 in ((0.3, 0.4j), (np.complex128(0.6 - 0.1j), np.float64(-0.2)),
                   (np.complex128(1e-3j), np.complex128(2e-3))):
        n = math.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
        q = QubitState(c0, c1)
        assert (q.c0, q.c1) == (complex(c0) / n, complex(c1) / n)


def test_qubit_fidelity():
    x = QubitState(1, 1)
    assert fidelity(x, x) == pytest.approx(1.0)
    assert fidelity(QubitState(1, 0), QubitState(0, 1)) == 0.0
    assert fidelity(QubitState(1, 1), QubitState(1, 0)) == pytest.approx(0.5)
    # global phase invisible
    assert fidelity(QubitState(1j, 1j), QubitState(1, 1)) == pytest.approx(1.0)


def test_amplitudes_frozen():
    state = number_state("m", 0, 2)
    with pytest.raises(ValueError):
        state.amps[0] = 5.0


def test_tail_check():
    amps = np.array([0.1, 1.0]) / math.sqrt(1.01)
    state = single_mode("m", amps)
    with pytest.raises(fock.TailMassError):
        state.check_tail()
    assert state.tail_mass("m") == pytest.approx(1.0 / 1.01)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_amplitudes_rejected(bad):
    # NaN compares false with everything, so a zero-norm test alone lets it in
    with pytest.raises(fock.NonFiniteAmplitudeError):
        single_mode("m", [0.5, bad])


def test_default_cutoff_admits_every_amplitude_in_use():
    # beta = 250, the carrier of the oracle at r = 0.002, is the largest
    assert fock.default_cutoff(250.0) == 64012
    assert fock.default_cutoff(-996.0) == 998004 <= fock.MAX_CUTOFF


@pytest.mark.parametrize("amplitude", [997.0, -1e4, 1e200, math.inf, math.nan])
def test_default_cutoff_refuses_an_unallocatable_cutoff(amplitude):
    # raised before any array is made, so 1e4 never asks for gigabytes
    with pytest.raises(fock.TailMassError, match=r"amplitude .* photon-number cutoff"):
        fock.default_cutoff(amplitude)
