import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvcv_teleport.displaced import coherent_state, displaced_number_state
from dvcv_teleport.fock import (
    FockState,
    TailMassError,
    TruncationConfig,
    default_cutoff,
    number_state,
    project_number,
    single_mode,
    tensor,
)
from dvcv_teleport.optics import (
    BeamSplitterParams,
    HybridChannel,
    apply_bs,
    channel_state,
    displacement_matrix,
    displacement_unitary,
    htbs_residual,
    negativity,
    negativity_closed_form,
    pad_mode,
    split_amplitudes,
)

BALANCED = BeamSplitterParams.balanced()


def random_two_mode(rng, d=5):
    amps = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    amps /= np.linalg.norm(amps)
    return FockState(("a", "b"), amps, TruncationConfig((d - 1, d - 1)))


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
                       n_max=joint.trunc.n_max_per_mode[0]),
        coherent_state(bs.r * x + bs.t * y, mode="b",
                       n_max=joint.trunc.n_max_per_mode[1]),
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
    expect = coherent_state(-1.0, mode=1, n_max=rest.trunc.n_max_per_mode[0])
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
