import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvcv_teleport.displaced import coherent_state, displaced_number_state
from dvcv_teleport.fock import (
    FockState,
    TailMassError,
    default_cutoff,
    number_state,
    project_number,
    single_mode,
    tensor,
)
from dvcv_teleport.optics import (
    BeamSplitterParams,
    HybridChannel,
    _bs_blocks,
    apply_bs,
    channel_state,
    displacement_matrix,
    displacement_unitary,
    htbs_residual,
    negativity,
    negativity_closed_form,
    negativity_numeric,
    pad_mode,
    split_amplitudes,
)

BALANCED = BeamSplitterParams.balanced()


def random_two_mode(rng, d=5):
    amps = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    amps /= np.linalg.norm(amps)
    return FockState(("a", "b"), amps)


def test_params_validation():
    with pytest.raises(ValueError):
        BeamSplitterParams(0.5, 0.5)
    with pytest.raises(ValueError):
        BeamSplitterParams(-1.0, 0.0)
    BeamSplitterParams(math.sqrt(1 - 0.09), -0.3)  # negative r is the inverse


def test_identity_splitter():
    rng = np.random.default_rng(0)
    state = random_two_mode(rng)
    out = apply_bs(state, "a", "b", BeamSplitterParams(1.0, 0.0))
    np.testing.assert_allclose(out.amps, state.amps, atol=1e-14)


def test_single_photon_convention():
    s = tensor(number_state("a", 1, 1), number_state("b", 0, 1))
    out = apply_bs(s, "a", "b", BALANCED)
    r = 1 / math.sqrt(2)
    assert out.amps[1, 0] == pytest.approx(r)
    assert out.amps[0, 1] == pytest.approx(r)

    s = tensor(number_state("a", 0, 1), number_state("b", 1, 1))
    out = apply_bs(s, "a", "b", BALANCED)
    assert out.amps[1, 0] == pytest.approx(-r)
    assert out.amps[0, 1] == pytest.approx(r)


def test_two_photon_interference():
    s = tensor(number_state("a", 1, 2), number_state("b", 1, 2))
    out = apply_bs(s, "a", "b", BALANCED)
    assert out.amps[1, 1] == pytest.approx(0.0, abs=1e-14)
    assert abs(out.amps[2, 0]) == pytest.approx(1 / math.sqrt(2))
    assert abs(out.amps[0, 2]) == pytest.approx(1 / math.sqrt(2))


def test_coherent_transformation_law():
    # closed-form oracle: (x, y) -> (t x - r y, r x + t y)
    x, y = 0.6, 0.3
    bs = BeamSplitterParams.from_reflectance(0.4)
    joint = apply_bs(
        tensor(coherent_state(x, mode="a"), coherent_state(y, mode="b")),
        "a", "b", bs)
    expect = tensor(
        coherent_state(bs.t * x - bs.r * y, mode="a",
                       n_max=joint.n_max("a")),
        coherent_state(bs.r * x + bs.t * y, mode="b",
                       n_max=joint.n_max("b")),
    )
    np.testing.assert_allclose(joint.amps, expect.amps, atol=1e-11)


@pytest.mark.parametrize("r", [0.02, 0.1, -0.1])
def test_strong_carrier_at_oracle_sizes(r):
    # |0>|beta> -> |-r beta>|t beta>, and |1>|beta> is its (t a+ + r b+)
    # image; the carrier cutoff is the oracle's default for beta = 25
    beta = 25.0
    bs = BeamSplitterParams.from_reflectance(r)
    na, nb = default_cutoff(r * beta) + 1, default_cutoff(beta)
    carrier = coherent_state(beta, mode="b", n_max=nb)
    a0 = coherent_state(-r * beta, mode="a", n_max=na).amps
    b0 = coherent_state(bs.t * beta, mode="b", n_max=nb).amps
    up_a = np.sqrt(np.arange(na + 1)) * np.roll(a0, 1)
    up_b = np.sqrt(np.arange(nb + 1)) * np.roll(b0, 1)
    # the input holds every block N <= nb whole; higher blocks are cut
    inside = np.add.outer(np.arange(na + 1), np.arange(nb + 1)) <= nb
    for s, expect in ((0, np.outer(a0, b0)),
                      (1, bs.t * np.outer(up_a, b0) + bs.r * np.outer(a0, up_b))):
        out = apply_bs(tensor(number_state("a", s, na), carrier), "a", "b", bs)
        np.testing.assert_allclose(out.amps[inside], expect[inside], rtol=0, atol=1e-12)


@given(st.floats(0.05, 0.95), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_unitarity_random_states(r, seed):
    rng = np.random.default_rng(seed)
    state = pad_mode(pad_mode(random_two_mode(rng, d=4), "a", 8), "b", 8)
    out = apply_bs(state, "a", "b", BeamSplitterParams.from_reflectance(r))
    assert abs(out.norm() - state.norm()) < 1e-10


def test_inverse_composition():
    rng = np.random.default_rng(1)
    state = pad_mode(pad_mode(random_two_mode(rng, d=4), "a", 9), "b", 9)
    bs = BeamSplitterParams.from_reflectance(0.25)
    back = apply_bs(apply_bs(state, "a", "b", bs), "a", "b",
                    BeamSplitterParams(bs.t, -bs.r))
    np.testing.assert_allclose(back.amps, state.amps, atol=1e-12)


def test_batch_through_one_splitter_matches_single_states():
    rng = np.random.default_rng(2)
    bs = BeamSplitterParams.from_reflectance(0.3)
    states = [pad_mode(pad_mode(random_two_mode(rng, d=4), "a", 9), "b", 6)
              for _ in range(3)]
    batch = np.stack([s.amps for s in states], axis=2)[..., None]
    out = split_amplitudes(batch, bs, 1e-10)
    for i, s in enumerate(states):
        np.testing.assert_allclose(out[:, :, i, 0], apply_bs(s, "a", "b", bs).amps,
                                   rtol=0, atol=1e-15)
    # the swap to the smaller mode happens inside: list the modes the other way
    swapped = split_amplitudes(batch.swapaxes(0, 1), bs, 1e-10)
    for i, s in enumerate(states):
        np.testing.assert_allclose(swapped[:, :, i, 0], apply_bs(s, "b", "a", bs).amps.T,
                                   rtol=0, atol=1e-15)


def test_batch_leak_is_judged_per_entry():
    # a strong entry (norm^2 1e6) that keeps its mass next to a weak one
    # that loses 2.5e-9 past the cutoffs: summed over the batch the loss
    # stays under the strong entry's 1e-14 relative floor, per entry it raises
    bs = BALANCED
    strong = 1e3 * pad_mode(pad_mode(random_two_mode(np.random.default_rng(3), d=4),
                                     "a", 9), "b", 9).amps
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
    carrier = coherent_state(8.0).amps
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


def test_overflow_guard():
    s = tensor(number_state("a", 3, 3), number_state("b", 3, 3))
    with pytest.raises(TailMassError):
        apply_bs(s, "a", "b", BALANCED)


def test_displacement_unitary_basics():
    vac = number_state("m", 0, 16)
    same = displacement_unitary(vac, "m", 0.0)
    np.testing.assert_allclose(same.amps, vac.amps, atol=1e-15)

    coh = displacement_unitary(vac, "m", 0.5)
    assert abs(coh.amps[1]) == pytest.approx(math.exp(-0.125) * 0.5, abs=1e-12)
    assert coh.norm() == pytest.approx(1.0, abs=1e-13)


def test_displacement_inverse():
    rng = np.random.default_rng(2)
    amps = np.zeros(20, dtype=complex)
    amps[:4] = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = single_mode("m", amps / np.linalg.norm(amps))
    back = displacement_unitary(displacement_unitary(state, "m", 0.8), "m", -0.8)
    np.testing.assert_allclose(back.amps, state.amps, atol=1e-9)


def test_displacement_columns_match_displaced_states():
    d = displacement_matrix(0.9, 45)
    for l in range(4):
        col = displaced_number_state(l, 0.9, n_max=44)
        np.testing.assert_allclose(d[:, l], col.amps.real, atol=1e-9)


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
    d1 = state.amps.shape[0]
    psi = np.stack([state.amps[:, 0, 1], state.amps[:, 1, 0]], axis=1).reshape(-1)
    rho = np.outer(psi, psi.conj())
    rho_pt = rho.reshape(d1, 2, d1, 2).swapaxes(1, 3).reshape(2 * d1, 2 * d1)
    full = np.linalg.svd(rho_pt, compute_uv=False).sum() - 1.0
    assert negativity_numeric(HybridChannel(beta)) == pytest.approx(full, rel=0, abs=1e-12)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("r", [0.2, 0.05])
def test_htbs_fidelity_matches_the_density_matrix_form(r, sign):
    beta = 0.6 * math.sqrt(1 - r * r) / r
    start = number_state("x", 1, 6)
    fid, joint = htbs_residual(start, beta, r, sign)
    m = joint.amps
    rho = m @ m.conj().T
    grown = pad_mode(start, "x", m.shape[0] - 1)
    t = displacement_unitary(grown, "x", sign * beta * r / math.sqrt(1 - r * r)).amps
    expect = np.vdot(t, rho @ t).real / np.trace(rho).real
    assert fid == pytest.approx(expect, rel=0, abs=1e-14)


def test_htbs_vacuum_regression():
    t = math.sqrt(1 - 0.01)
    fid, _ = htbs_residual(number_state("x", 0, 4), 0.5 * t / 0.1, 0.1, +1)
    assert fid > 0.99


def test_htbs_monotone_convergence():
    fids = []
    for r in (0.2, 0.1, 0.05):
        beta = 0.5 * math.sqrt(1 - r * r) / r
        fid, _ = htbs_residual(number_state("x", 1, 6), beta, r, +1)
        fids.append(fid)
    assert fids[0] < fids[1] < fids[2]
    slope = np.polyfit(np.log([0.2, 0.1, 0.05]),
                       np.log1p([-f for f in fids]), 1)[0]
    assert 1.5 <= slope <= 2.5


def test_htbs_negative_sign_pattern():
    # displacing |1> by -alpha flips the coefficient signs as (-1)^(n-1)
    r = 0.05
    beta = 0.6 * math.sqrt(1 - r * r) / r
    _, joint = htbs_residual(number_state("x", 1, 8), beta, r, -1)
    m = joint.amps
    rho = m @ m.conj().T
    w, v = np.linalg.eigh(rho)
    lead = v[:, -1] * np.sign(v[1, -1].real)
    expect = displaced_number_state(1, -0.6, n_max=rho.shape[0] - 1).amps.real
    expect = expect * np.sign(expect[1])
    np.testing.assert_allclose(lead.real, expect, atol=2e-3)


def test_channel_state_structure():
    ch = HybridChannel(1.0)
    state = channel_state(ch)
    # dual-rail modes always carry exactly one photon
    assert np.allclose(state.amps[:, 0, 0], 0.0)
    assert np.allclose(state.amps[:, 1, 1], 0.0)
    # conditioning the dual rail on |01> leaves the -beta coherent part
    rest, p = project_number(state, 3, 1)
    rest, p2 = project_number(rest, 2, 0)
    assert p * p2 == pytest.approx(0.5, abs=1e-12)
    expect = coherent_state(-1.0, mode=1, n_max=rest.n_max(1))
    np.testing.assert_allclose(rest.amps, expect.amps, atol=1e-10)


def test_channel_reduced_purity():
    # coherent-branch overlap exp(-2 b^2) shows up in the carrier's purity
    state = channel_state(HybridChannel(1.0))
    u = state.amps[:, 0, 1]
    v = state.amps[:, 1, 0]
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
    with pytest.raises(ValueError):
        htbs_residual(number_state("x", 0, 2), 1.0, 0.5, +1)
