import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvcv_teleport.displaced import coherent_state, displaced_number_state
from dvcv_teleport.fock import TailMassError, default_cutoff
from dvcv_teleport.optics import (
    BeamSplitterParams,
    HybridChannel,
    _bs_blocks,
    _normalized,
    MAX_SPLIT_CELLS,
    channel_state,
    check_split_size,
    displacement_matrix,
    htbs_residual,
    negativity,
    negativity_closed_form,
    negativity_numeric,
    split_amplitudes,
)

BALANCED = BeamSplitterParams(1 / math.sqrt(2), 1 / math.sqrt(2))


def random_two_mode(rng, d=5, pad=0):
    """A normalized random (d, d) array, zero-filled to d + pad levels a mode."""
    amps = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return np.pad(amps / np.linalg.norm(amps), ((0, pad), (0, pad)))


def ket(n, dim):
    """|n> on the levels 0 .. dim - 1."""
    return np.eye(dim)[n]


def split(amps, params):
    """One two-mode array through the splitter, at the package's tail bound."""
    return split_amplitudes(amps[:, :, None, None], params, 1e-10)[:, :, 0, 0]


def test_params_validation():
    with pytest.raises(ValueError):
        BeamSplitterParams(0.5, 0.5)
    with pytest.raises(ValueError):
        BeamSplitterParams(-1.0, 0.0)
    BeamSplitterParams(math.sqrt(1 - 0.09), -0.3)  # negative r is the inverse


def test_identity_splitter():
    rng = np.random.default_rng(0)
    state = random_two_mode(rng)
    out = split(state, BeamSplitterParams(1.0, 0.0))
    np.testing.assert_allclose(out, state, atol=1e-14)


def test_single_photon_convention():
    out = split(np.outer(ket(1, 2), ket(0, 2)), BALANCED)
    r = 1 / math.sqrt(2)
    assert out[1, 0] == pytest.approx(r)
    assert out[0, 1] == pytest.approx(r)

    out = split(np.outer(ket(0, 2), ket(1, 2)), BALANCED)
    assert out[1, 0] == pytest.approx(-r)
    assert out[0, 1] == pytest.approx(r)


def test_two_photon_interference():
    out = split(np.outer(ket(1, 3), ket(1, 3)), BALANCED)
    assert out[1, 1] == pytest.approx(0.0, abs=1e-14)
    assert abs(out[2, 0]) == pytest.approx(1 / math.sqrt(2))
    assert abs(out[0, 2]) == pytest.approx(1 / math.sqrt(2))


def test_coherent_transformation_law():
    # closed-form oracle: (x, y) -> (t x - r y, r x + t y)
    x, y = 0.6, 0.3
    bs = BeamSplitterParams.from_reflectance(0.4)
    joint = split(np.outer(coherent_state(x), coherent_state(y)), bs)
    expect = np.outer(
        coherent_state(bs.t * x - bs.r * y, n_max=joint.shape[0] - 1),
        coherent_state(bs.r * x + bs.t * y, n_max=joint.shape[1] - 1),
    )
    np.testing.assert_allclose(joint, expect, atol=1e-11)


@pytest.mark.parametrize("r", [0.02, 0.1, -0.1])
def test_strong_carrier_at_oracle_sizes(r):
    # |0>|beta> -> |-r beta>|t beta>, and |1>|beta> is its (t a+ + r b+)
    # image; the carrier cutoff is the oracle's default for beta = 25
    beta = 25.0
    bs = BeamSplitterParams.from_reflectance(r)
    na, nb = default_cutoff(r * beta) + 1, default_cutoff(beta)
    carrier = coherent_state(beta, n_max=nb)
    a0 = coherent_state(-r * beta, n_max=na)
    b0 = coherent_state(bs.t * beta, n_max=nb)
    up_a = np.sqrt(np.arange(na + 1)) * np.roll(a0, 1)
    up_b = np.sqrt(np.arange(nb + 1)) * np.roll(b0, 1)
    # the input holds every block N <= nb whole; higher blocks are cut
    inside = np.add.outer(np.arange(na + 1), np.arange(nb + 1)) <= nb
    for s, expect in ((0, np.outer(a0, b0)),
                      (1, bs.t * np.outer(up_a, b0) + bs.r * np.outer(a0, up_b))):
        out = split(np.outer(ket(s, na + 1), carrier), bs)
        np.testing.assert_allclose(out[inside], expect[inside], rtol=0, atol=1e-12)


@given(st.floats(0.05, 0.95), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_unitarity_random_states(r, seed):
    rng = np.random.default_rng(seed)
    state = random_two_mode(rng, d=4, pad=5)
    out = split(state, BeamSplitterParams.from_reflectance(r))
    assert abs(np.linalg.norm(out) - np.linalg.norm(state)) < 1e-10


def test_inverse_composition():
    rng = np.random.default_rng(1)
    state = random_two_mode(rng, d=4, pad=6)
    bs = BeamSplitterParams.from_reflectance(0.25)
    back = split(split(state, bs), BeamSplitterParams(bs.t, -bs.r))
    np.testing.assert_allclose(back, state, atol=1e-12)


def test_batch_through_one_splitter_matches_single_states():
    rng = np.random.default_rng(2)
    bs = BeamSplitterParams.from_reflectance(0.3)
    states = [np.pad(random_two_mode(rng, d=4), ((0, 6), (0, 3))) for _ in range(3)]
    batch = np.stack(states, axis=2)[..., None]
    out = split_amplitudes(batch, bs, 1e-10)
    for i, s in enumerate(states):
        np.testing.assert_allclose(out[:, :, i, 0], split(s, bs), rtol=0, atol=1e-15)
    # the swap to the smaller mode happens inside: list the modes the other way
    swapped = split_amplitudes(batch.swapaxes(0, 1), bs, 1e-10)
    for i, s in enumerate(states):
        np.testing.assert_allclose(swapped[:, :, i, 0], split(s.T, bs), rtol=0, atol=1e-15)


def test_batch_leak_is_judged_per_entry():
    # a strong entry (norm^2 1e6) that keeps its mass next to a weak one
    # that loses 2.5e-9 past the cutoffs: summed over the batch the loss
    # stays under the strong entry's 1e-14 relative floor, per entry it raises
    bs = BALANCED
    strong = 1e3 * random_two_mode(np.random.default_rng(3), d=4, pad=6)
    weak = np.zeros((10, 10), dtype=complex)
    weak[0, 0], weak[9, 9] = 1.0, 5e-5
    assert split_amplitudes(strong[:, :, None, None], bs, 1e-10).shape == (10, 10, 1, 1)
    both = np.stack([strong, weak], axis=2)[..., None]
    with pytest.raises(TailMassError):
        split_amplitudes(both, bs, 1e-10)
    with pytest.raises(TailMassError):
        split_amplitudes(weak[:, :, None, None], bs, 1e-10)


@pytest.mark.parametrize("r", [0.01, -0.3])
@pytest.mark.parametrize("n_min", [0, 1, 18, 19, 500])
def test_windowed_blocks_are_rows_of_the_full_build(r, n_min):
    # b = 19 levels, the oracle's auxiliary size; the window starts its
    # recurrence b - 1 blocks low, which leaves every returned bit as is
    t = math.sqrt(1 - r * r)
    full = _bs_blocks(t, r, 19, 700)
    window = _bs_blocks(t, r, 19, 700, n_min)
    assert window.shape == (701 - n_min, 19, 19)
    assert np.array_equal(window, full[n_min:])


def test_amplitude_below_the_window_is_leak():
    # levels 40.. of a coherent carrier (mean count 64) next to a photon
    # mode: the splitter moves amplitude from the window's lowest levels to
    # below it, where it is dropped and counted as loss
    bs = BeamSplitterParams.from_reflectance(0.1)
    carrier = coherent_state(8.0)
    lowest = 40
    amps = np.zeros((len(carrier) - lowest, 24, 1, 1), dtype=complex)
    amps[:, 1, 0, 0] = carrier[lowest:]
    # the same input stored from level 0 goes through the full blocks; what
    # it sends below level 40 is what the window loses
    padded = np.concatenate((np.zeros((lowest, 24, 1, 1)), amps))
    ref = split_amplitudes(padded, bs, 1e-10)
    below = np.vdot(ref[:lowest], ref[:lowest]).real
    assert below > 1e-5
    with pytest.raises(TailMassError):
        split_amplitudes(amps, bs, 0.99 * below, offset=lowest)
    out = split_amplitudes(amps, bs, 1.01 * below, offset=lowest)
    np.testing.assert_allclose(out, ref[lowest:], rtol=0, atol=1e-15)


def test_split_size_admits_the_oracle_in_use():
    # the largest splitter of the tests, verify and the benchmarks: alpha
    # 0.5 at r = 0.002, 19 levels of mode 3 against a 4,374-level window
    check_split_size(4374, 19, 4)
    check_split_size(19, 4374, 4)
    assert 2_253_096 <= MAX_SPLIT_CELLS


def test_oversized_splitter_is_refused_before_allocating():
    # a zero-stride view of 16 bytes stands for a 6.4 GB input: the guard
    # must raise before the blocks or the input layout are made
    huge = np.broadcast_to(np.zeros((1, 1, 1, 1), dtype=complex), (20_000, 20_000, 1, 1))
    with pytest.raises(TailMassError, match="beam splitter on 20000 x 20000 levels"):
        split_amplitudes(huge, BALANCED, 1e-10)
    with pytest.raises(TailMassError, match="with 4 inputs"):
        check_split_size(146, 628, 4)  # the oracle at alpha 8.8, r = 0.3


def test_overflow_guard():
    with pytest.raises(TailMassError):
        split(np.outer(ket(3, 4), ket(3, 4)), BALANCED)


def test_displacement_unitary_basics():
    vac = ket(0, 17)
    same = displacement_matrix(0.0, 17) @ vac
    np.testing.assert_allclose(same, vac, atol=1e-15)

    coh = displacement_matrix(0.5, 17) @ vac
    assert abs(coh[1]) == pytest.approx(math.exp(-0.125) * 0.5, abs=1e-12)
    assert np.linalg.norm(coh) == pytest.approx(1.0, abs=1e-13)


def test_displacement_inverse():
    rng = np.random.default_rng(2)
    amps = np.zeros(20, dtype=complex)
    amps[:4] = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = amps / np.linalg.norm(amps)
    back = displacement_matrix(-0.8, 20) @ (displacement_matrix(0.8, 20) @ state)
    np.testing.assert_allclose(back, state, atol=1e-9)


def test_displacement_columns_match_displaced_states():
    d = displacement_matrix(0.9, 45)
    for l in range(4):
        col = displaced_number_state(l, 0.9, n_max=44)
        np.testing.assert_allclose(d[:, l], col.real, atol=1e-9)


def _generator(gamma, dim):
    g = np.zeros((dim, dim))
    root = gamma * np.sqrt(np.arange(1, dim))
    g[np.arange(1, dim), np.arange(dim - 1)] = root
    g[np.arange(dim - 1), np.arange(1, dim)] = -root
    return g


@pytest.mark.parametrize("gamma", [0.3, 1 / math.sqrt(2), 1.0, 1.5, -0.8, 2.5])
@pytest.mark.parametrize("dim", [13, 40, 80])
def test_displacement_matrix_is_the_matrix_exponential(gamma, dim):
    # measured: <= 4.1e-14 from scipy's expm, unitarity <= 1.6e-14,
    # transpose <= 1.2e-16 on this grid
    from scipy.linalg import expm
    d = displacement_matrix(gamma, dim)
    np.testing.assert_allclose(d, expm(_generator(gamma, dim)), rtol=0, atol=1e-13)
    np.testing.assert_allclose(d.T @ d, np.eye(dim), rtol=0, atol=5e-14)
    np.testing.assert_allclose(displacement_matrix(-gamma, dim), d.T, rtol=0, atol=1e-13)


@pytest.mark.parametrize("beta", [0.05, 0.3, 1.0, 2.0, 3.0])
def test_negativity_from_schmidt_values_matches_partial_transpose(beta):
    state = channel_state(HybridChannel(beta))
    d1 = state.shape[0]
    psi = np.stack([state[:, 0, 1], state[:, 1, 0]], axis=1).reshape(-1)
    rho = np.outer(psi, psi.conj())
    rho_pt = rho.reshape(d1, 2, d1, 2).swapaxes(1, 3).reshape(2 * d1, 2 * d1)
    full = np.linalg.svd(rho_pt, compute_uv=False).sum() - 1.0
    assert negativity_numeric(HybridChannel(beta)) == pytest.approx(full, rel=0, abs=1e-12)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("r", [0.3, 0.2, 0.05])
def test_htbs_fidelity_matches_the_density_matrix_form(r, sign):
    beta = 0.6 * math.sqrt(1 - r * r) / r
    start = ket(1, 7)
    fid, m = htbs_residual(start, beta, r, sign)
    rho = m @ m.conj().T
    grown = np.pad(start, (0, m.shape[0] - 7))
    t = displacement_matrix(sign * beta * r / math.sqrt(1 - r * r), m.shape[0]) @ grown
    expect = np.vdot(t, rho @ t).real / np.trace(rho).real
    assert fid == pytest.approx(expect, rel=0, abs=1e-14)


def test_htbs_vacuum_regression():
    t = math.sqrt(1 - 0.01)
    fid, _ = htbs_residual(ket(0, 5), 0.5 * t / 0.1, 0.1, +1)
    assert fid > 0.99


def test_htbs_monotone_convergence():
    fids = []
    for r in (0.2, 0.1, 0.05):
        beta = 0.5 * math.sqrt(1 - r * r) / r
        fid, _ = htbs_residual(ket(1, 7), beta, r, +1)
        fids.append(fid)
    assert fids[0] < fids[1] < fids[2]
    slope = np.polyfit(np.log([0.2, 0.1, 0.05]),
                       np.log1p([-f for f in fids]), 1)[0]
    assert 1.5 <= slope <= 2.5


def test_htbs_negative_sign_pattern():
    # displacing |1> by -alpha flips the coefficient signs as (-1)^(n-1)
    r = 0.05
    beta = 0.6 * math.sqrt(1 - r * r) / r
    _, m = htbs_residual(ket(1, 9), beta, r, -1)
    rho = m @ m.conj().T
    w, v = np.linalg.eigh(rho)
    lead = v[:, -1] * np.sign(v[1, -1].real)
    expect = displaced_number_state(1, -0.6, n_max=rho.shape[0] - 1).real
    expect = expect * np.sign(expect[1])
    np.testing.assert_allclose(lead.real, expect, atol=2e-3)


def test_normalize_closure():
    assert abs(np.linalg.norm(_normalized(np.array([0.3, 0.1, 0.2]))) - 1.0) < 1e-12


def test_channel_state_structure():
    ch = HybridChannel(1.0)
    state = channel_state(ch)
    # dual-rail modes always carry exactly one photon
    assert np.allclose(state[:, 0, 0], 0.0)
    assert np.allclose(state[:, 1, 1], 0.0)
    # conditioning the dual rail on |01> leaves the -beta coherent part
    branch = state[:, 0, 1]
    p = np.vdot(branch, branch).real
    assert p == pytest.approx(0.5, abs=1e-12)
    expect = coherent_state(-1.0, n_max=len(branch) - 1)
    np.testing.assert_allclose(branch / math.sqrt(p), expect, atol=1e-10)


def test_channel_reduced_purity():
    # coherent-branch overlap exp(-2 b^2) shows up in the carrier's purity
    state = channel_state(HybridChannel(1.0))
    u = state[:, 0, 1]
    v = state[:, 1, 0]
    rho = np.outer(u, u.conj()) + np.outer(v, v.conj())
    purity = float(np.trace(rho @ rho).real)
    assert purity == pytest.approx((1 + math.exp(-4)) / 2, abs=1e-10)


def test_negativity_values():
    for beta in (0.5, 1.0, 1.5, 2.0):
        closed, numeric = negativity(HybridChannel(beta))
        assert abs(closed - numeric) < 1e-6
    assert negativity_closed_form(HybridChannel(1.0)) == pytest.approx(
        0.990799, abs=1e-5)
    assert negativity_closed_form(HybridChannel(2.0)) > 0.9999
    # separable small-amplitude limit: tau ~ 2 beta
    closed, numeric = negativity(HybridChannel(0.01))
    assert closed == pytest.approx(0.02, abs=2e-6)
    assert numeric == pytest.approx(closed, abs=1e-9)


def test_channel_validation():
    with pytest.raises(ValueError):
        HybridChannel(0.0)
    for r in (0.5, math.nextafter(0.3, 1.0)):  # the regime ends at r = 0.3
        with pytest.raises(ValueError, match="htbs regime"):
            htbs_residual(ket(0, 3), 1.0, r, +1)
