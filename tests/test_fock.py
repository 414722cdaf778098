import math
import warnings

import numpy as np
import pytest

from dvcv_teleport import fock
from dvcv_teleport.displaced import coherent_state, displaced_number_state
from dvcv_teleport.fock import QubitState, fidelity


def test_tail_tolerance_validation():
    for bad in (1.0, -1e-3, math.nan):
        with pytest.raises(ValueError, match="tail tolerance"):
            displaced_number_state(0, 0.5, tail_tolerance=bad)


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


def _bits(*zs):
    """Both parts of complex numbers as hex and as their sign, zeros included."""
    return [(x.hex(), math.copysign(1.0, x)) for z in map(complex, zs) for x in (z.real, z.imag)]


def _check_unit_pairs(a0, a1):
    """_unit_pairs of the arrays is _unit_pair of each entry, in every bit."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u0, u1 = fock._unit_pairs(a0, a1)
    assert u0.shape == u1.shape == np.shape(a0)
    for x0, x1, v0, v1 in zip(*(np.ravel(x).tolist() for x in (a0, a1, u0, u1))):
        assert _bits(v0, v1) == _bits(*fock._unit_pair(x0, x1)), (x0, x1)


def test_unit_pairs_are_unit_pair_bit_for_bit():
    rng = np.random.default_rng(3)
    size = 4000
    # complex phases, magnitudes from squared-norm underflow (1e-170) to
    # overflow (1e200), and parts of zero with either sign
    mags = 10.0 ** rng.uniform(-170, 200, (2, size))
    mags[:, : size // 2] = rng.uniform(0.0, 1.0, (2, size // 2))
    pairs = mags * np.exp(2j * np.pi * rng.uniform(size=(2, size)))
    zero = rng.integers(0, 6, (2, 2, size))
    for part, (re, im) in zip(pairs, zero):
        part.real[re == 0], part.imag[im == 0] = 0.0, 0.0
        part.real[re == 1], part.imag[im == 1] = -0.0, -0.0
    edges = np.array([(1e-170, 0), (1e-160, -0.0), (5e-324, 5e-324j), (1e200, 0),
                      (1e200, -1e200j), (1e308 + 1e308j, 1), (-0.0, 1),
                      (complex(-0.0, -0.0), -0.0j), (0.6, -0.8), (complex(0.0, -0.0), 1j),
                      (3.0, 4.0)]).T
    a0, a1 = np.concatenate([pairs, edges], axis=1)
    kept = (a0 != 0) | (a1 != 0)
    _check_unit_pairs(a0[kept], a1[kept])
    # any shape; real arrays are read as complex ones with +0.0 imaginary parts
    kept = (a0.real != 0) | (a1.real != 0)
    _check_unit_pairs(a0.real[kept][:3000].reshape(-1, 3), a1.real[kept][:3000].reshape(-1, 3))


@pytest.mark.parametrize("bad, message", [
    ((math.nan, 1), "qubit amplitudes must be finite"),
    ((1, math.inf), "qubit amplitudes must be finite"),
    ((complex(0, math.nan), 1), "qubit amplitudes must be finite"),
    ((0, 0), "qubit has zero norm"),
    ((0.0, -0.0j), "qubit has zero norm"),
])
def test_unit_pairs_refuse_what_unit_pair_refuses(bad, message):
    with pytest.raises(ValueError, match=message):
        fock._unit_pair(*bad)
    # among entries that _unit_pair accepts, and before one it refuses otherwise
    other = (math.nan, 0) if message.endswith("norm") else (0, 0)
    pairs = np.array([(0.6, 0.8j), bad, (1e-170, 0), other], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}$"):
            fock._unit_pairs(pairs[:, 0], pairs[:, 1])


def test_qubit_state_unit_keeps_the_pair():
    u0, u1 = fock._unit_pairs(np.array([0.3, -0.0]), np.array([0.4j, 2.0]))
    for c0, c1 in zip(u0.tolist(), u1.tolist()):
        state = QubitState._unit(c0, c1)
        assert state == QubitState(c0, c1)
        assert _bits(state.c0, state.c1) == _bits(c0, c1)
        assert repr(state) == repr(QubitState(c0, c1))


def test_qubit_fidelity():
    x = QubitState(1, 1)
    assert fidelity(x, x) == pytest.approx(1.0)
    assert fidelity(QubitState(1, 0), QubitState(0, 1)) == 0.0
    assert fidelity(QubitState(1, 1), QubitState(1, 0)) == pytest.approx(0.5)
    # global phase invisible
    assert fidelity(QubitState(1j, 1j), QubitState(1, 1)) == pytest.approx(1.0)


def test_tail_check():
    # the two-level row exp(-1/2) (1, 1) holds exp(-1) at its cutoff
    with pytest.raises(fock.TailMassError, match="3.679e-01 probability at its cutoff"):
        coherent_state(1.0, n_max=1)
    assert coherent_state(1.0, n_max=1, tail_tolerance=0.37).shape == (2,)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_amplitudes_rejected(bad):
    # NaN compares false with everything, so a tail test alone lets it in;
    # an infinite amplitude gives 0 * inf = NaN at level 0, which numpy
    # also reports as an invalid multiply
    with np.errstate(invalid="ignore"):
        with pytest.raises(fock.NonFiniteAmplitudeError):
            displaced_number_state(0, bad, n_max=1)
        with pytest.raises(fock.NonFiniteAmplitudeError):
            displaced_number_state(2, bad, n_max=3)


def test_row_that_underflows_to_zero_is_refused():
    # exp(-800) underflows at every level of a cutoff far below 40^2
    with pytest.raises(ValueError, match="zero norm"):
        coherent_state(40.0, n_max=3)


def test_default_cutoff_admits_every_amplitude_in_use():
    # beta = 250, the carrier of the oracle at r = 0.002, is the largest
    assert fock.default_cutoff(250.0) == 64012
    assert fock.default_cutoff(-996.0) == 998004 <= fock.MAX_CUTOFF


def test_default_cutoff_tail_is_the_documented_one():
    # scipy's Poisson survival function is the mass a coherent component
    # of amplitude x leaves past the cutoff: at most 2.9e-14 up to x = 3
    # and 8.4e-10 up to x = 250, measured on these grids
    from scipy.stats import poisson

    for bound, grid in ((1e-12, np.linspace(0.0, 3.0, 61)),
                        (1e-9, np.geomspace(3.0, 250.0, 200))):
        cutoffs = [fock.default_cutoff(x) for x in grid]
        assert poisson.sf(cutoffs, grid ** 2).max() <= bound


@pytest.mark.parametrize("amplitude", [997.0, -1e4, 1e200, math.inf, math.nan])
def test_default_cutoff_refuses_an_unallocatable_cutoff(amplitude):
    # raised before any array is made, so 1e4 never asks for gigabytes
    with pytest.raises(fock.TailMassError, match=r"amplitude .* photon-number cutoff"):
        fock.default_cutoff(amplitude)
