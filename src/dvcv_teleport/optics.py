"""Exact linear-optical elements on truncated Fock grids.

The two-mode beam splitter conserves total photon number, so its Fock
representation is block diagonal.  Each call builds the blocks it needs
as one array, by a recurrence over the smaller mode's photon number
(peel one creation operator off the input); nothing is cached.

Mode-operator convention, fixed once for the whole package: listing modes
``(a, b)``, the splitter maps ``a+ -> t a+ + r b+`` and
``b+ -> -r a+ + t b+``; on a single photon

    |1 0> -> t |1 0> + r |0 1>,      |0 1> -> -r |1 0> + t |0 1>,

and coherent amplitudes transform as ``(x, y) -> (t x - r y, r x + t y)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .displaced import coherent_state, default_cutoff
from .fock import (
    FockState,
    ModeLabel,
    TailMassError,
    TruncationConfig,
    tensor,
)

_UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class BeamSplitterParams:
    """Real transmittance/reflectance amplitudes with t^2 + r^2 = 1.

    ``r`` may be negative (the inverse splitter); the highly transmissive
    regime used by the teleportation circuit has 0 < r <= 0.3.
    """

    t: float
    r: float

    def __post_init__(self):
        if self.t <= 0.0:
            raise ValueError("transmittance amplitude t must be positive")
        if abs(self.t ** 2 + self.r ** 2 - 1.0) > _UNITARITY_TOL:
            raise ValueError(f"t^2 + r^2 = {self.t**2 + self.r**2!r} != 1")

    @staticmethod
    def balanced() -> "BeamSplitterParams":
        s = 1.0 / math.sqrt(2.0)
        return BeamSplitterParams(s, s)

    @staticmethod
    def from_reflectance(r: float) -> "BeamSplitterParams":
        return BeamSplitterParams(math.sqrt(1.0 - r * r), r)


@dataclass(frozen=True)
class HybridChannel:
    """Entanglement resource: coherent amplitudes -beta/+beta on one mode,
    correlated with a dual-rail single photon."""

    beta: float

    def __post_init__(self):
        if self.beta <= 0.0:
            raise ValueError("channel amplitude beta must be positive")


# -- beam splitter blocks ---------------------------------------------------

def _bs_blocks(t: float, r: float, b_dim: int, n_total_max: int) -> np.ndarray:
    """Blocks G[N, jb, nb] = <N-jb, jb| BS |N-nb, nb> for N <= n_total_max
    and jb, nb < b_dim.

    The first-mode index is implicit (N minus the stored one), which keeps
    the tables small when one mode is a high-occupancy coherent carrier.
    Column nb = 0 is the binomial sqrt(C(N, j)) t^(N-j) r^j; column nb
    follows from column nb - 1 of block N - 1 through
    |N-nb, nb> = b+ |N-nb, nb-1> / sqrt(nb) and b+ -> -r a+ + t b+.
    Both loops run over the small mode only, each step over every N.
    """
    n_total = np.arange(n_total_max + 1.0)
    g = np.zeros((n_total_max + 1, b_dim, b_dim))
    g[:, 0, 0] = t ** n_total
    for j in range(1, b_dim):
        root = np.sqrt(np.clip(n_total - j + 1, 0, None) / j)
        g[:, j, 0] = g[:, j - 1, 0] * root * (r / t)
    sqrt_ja = np.sqrt(np.clip(n_total[1:, None] - np.arange(b_dim), 0, None))
    sqrt_jb = np.sqrt(np.arange(1, b_dim))
    for nb in range(1, b_dim):
        prev = g[:-1, :, nb - 1]
        g[1:, :, nb] = -r * sqrt_ja * prev
        g[1:, 1:, nb] += t * sqrt_jb * prev[:, :-1]
        g[1:, :, nb] /= math.sqrt(nb)
    return g


def split_amplitudes(amps: np.ndarray, params: BeamSplitterParams,
                     leak_tolerance: float) -> np.ndarray:
    """Apply the splitter to amplitudes shaped (dim_a, dim_b, batch, rest).

    Every batch entry is a separate input through the same splitter, so
    one block array serves them all.  Amplitude [a, b] sits in block
    N = a + b: one gather lays the input out as (N, b, ...) with the
    smaller mode second, one batched product applies every block, and the
    inverse gather drops what lands past the other mode's cutoff.  The
    real blocks act on the real and imaginary parts separately: a complex
    copy of them would take twice their memory.  A batch entry that loses
    more than ``max(leak_tolerance, 1e-14 * its norm^2)`` raises a
    TailMassError.
    """
    t, r = params.t, params.r
    swap = amps.shape[1] > amps.shape[0]
    if swap:
        # store the blocks over the smaller mode; swapping the listing
        # order flips the sign of r
        amps, r = amps.swapaxes(0, 1), -r
    da, db = amps.shape[:2]
    blocks = _bs_blocks(t, r, db, da + db - 2)
    a_idx, b_idx = np.arange(da)[:, None], np.arange(db)
    by_total = np.zeros((da + db - 1,) + amps.shape[1:], dtype=complex)
    by_total[a_idx + b_idx, b_idx] = amps
    flat = by_total.reshape(da + db - 1, db, -1)
    out = np.matmul(blocks, flat.real) + 1j * np.matmul(blocks, flat.imag)
    out = out.reshape(by_total.shape)[a_idx + b_idx, b_idx]
    in2 = np.einsum("abir,abir->i", amps.conj(), amps).real
    leak = in2 - np.einsum("abir,abir->i", out.conj(), out).real
    lost = leak > np.maximum(leak_tolerance, 1e-14 * in2)
    if lost.any():
        raise TailMassError(
            f"beam splitter pushed {leak[lost].max():.3e} probability past the cutoffs"
        )
    return out.swapaxes(0, 1) if swap else out


def apply_bs(state: FockState, mode_a: ModeLabel, mode_b: ModeLabel,
             params: BeamSplitterParams) -> FockState:
    """Exact beam-splitter action on two labelled modes.

    Components pushed past either cutoff are dropped; if the dropped
    probability exceeds the state's tail tolerance a TailMassError is
    raised.
    """
    axes = (state.axis(mode_a), state.axis(mode_b))
    moved = np.moveaxis(state.amps, axes, (0, 1))
    out = split_amplitudes(moved.reshape(moved.shape[:2] + (1, -1)), params,
                           state.trunc.tail_tolerance)
    out = np.moveaxis(out.reshape(moved.shape), (0, 1), axes)
    return FockState(state.modes, out, state.trunc)


# -- displacement -----------------------------------------------------------

def displacement_matrix(gamma: float, dim: int) -> np.ndarray:
    """Exact displacement unitary on a ``dim``-level mode via the matrix
    exponential of gamma * (a+ - a).

    Independent of the polynomial/recurrence route: serves as its oracle.
    """
    g = np.zeros((dim, dim))
    root = gamma * np.sqrt(np.arange(1, dim))
    g[np.arange(1, dim), np.arange(dim - 1)] = root
    g[np.arange(dim - 1), np.arange(1, dim)] = -root
    return expm(g)


def displacement_unitary(state: FockState, mode: ModeLabel, gamma: float) -> FockState:
    """Displace one mode by a real amplitude.

    The truncated generator is antisymmetric, so the action is exactly
    norm-preserving; the cutoff must leave room for the displaced support
    (use ``pad_mode`` first if in doubt).
    """
    ax = state.axis(mode)
    dim = state.amps.shape[ax]
    d = displacement_matrix(gamma, dim)
    moved = np.moveaxis(state.amps, ax, 0)
    out = np.tensordot(d, moved, axes=(1, 0))
    return FockState(state.modes, np.moveaxis(out, 0, ax), state.trunc)


def pad_mode(state: FockState, mode: ModeLabel, new_n_max: int) -> FockState:
    """Grow one mode's cutoff, zero-filling the new levels."""
    ax = state.axis(mode)
    old = state.trunc.n_max_per_mode[ax]
    if new_n_max < old:
        raise ValueError("pad_mode cannot shrink a mode")
    if new_n_max == old:
        return state
    pad = [(0, 0)] * state.amps.ndim
    pad[ax] = (0, new_n_max - old)
    cuts = list(state.trunc.n_max_per_mode)
    cuts[ax] = new_n_max
    return FockState(
        state.modes,
        np.pad(state.amps, pad),
        TruncationConfig(tuple(cuts), state.trunc.tail_tolerance),
    )


# -- highly transmissive splitter as a displacer ----------------------------

def htbs_residual(input_state: FockState, beta: float, r: float, sign: int):
    """How well a strong coherent drive through a weak splitter displaces.

    The single-mode ``input_state`` is mixed with a coherent ancilla on a
    splitter of reflectance ``r``;  under the package convention an ancilla
    amplitude ``-sign*beta`` displaces the input by ``sign*alpha`` with
    ``alpha = beta*r/t``.  Returns ``(fidelity, joint)`` where ``fidelity``
    compares the ancilla-traced output against the ideal displaced input
    and ``joint`` is the exact two-mode post-splitter state.
    """
    if not 0.0 < r < 0.3:
        raise ValueError("htbs regime requires 0 < r < 0.3")
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    if len(input_state.modes) != 1:
        raise ValueError("input must be a single-mode state")
    t = math.sqrt(1.0 - r * r)
    alpha = beta * r / t
    mode = input_state.modes[0]
    anc = ("htbs", "ancilla")
    if anc == mode:
        anc = ("htbs", "ancilla", 2)

    grown = pad_mode(input_state, mode,
                     input_state.trunc.n_max_per_mode[0] + default_cutoff(alpha))
    ancilla = coherent_state(-sign * beta, mode=anc,
                             tail_tolerance=input_state.trunc.tail_tolerance)
    joint = tensor(grown, ancilla)
    joint = apply_bs(joint, mode, anc, BeamSplitterParams(t, r))

    m = joint.amps  # (input levels, ancilla levels)
    rho = m @ m.conj().T
    target = displacement_unitary(grown.normalize(), mode, sign * alpha)
    tvec = target.amps
    fid = float(np.real(np.vdot(tvec, rho @ tvec))) / float(np.trace(rho).real)
    return fid, joint


# -- hybrid channel and its entanglement -------------------------------------

def channel_state(channel: HybridChannel) -> FockState:
    """The shared resource state: (|-beta>|01> + |beta>|10>) / sqrt(2),
    on modes (1, 2, 3) with the coherent mode cut at its default cutoff.

    The dual-rail branches are orthogonal, so the raw 1/sqrt(2) norm is
    exactly one despite the non-orthogonal coherent parts; the state is
    renormalized numerically anyway.
    """
    beta = channel.beta
    n_max = default_cutoff(beta)
    amps = np.zeros((n_max + 1, 2, 2), dtype=complex)
    amps[:, 0, 1] = coherent_state(-beta, n_max=n_max).amps / math.sqrt(2.0)
    amps[:, 1, 0] = coherent_state(beta, n_max=n_max).amps / math.sqrt(2.0)
    state = FockState((1, 2, 3), amps, TruncationConfig((n_max, 1, 1)))
    return state.normalize().check_tail(modes=(1,))


def negativity_closed_form(channel: HybridChannel) -> float:
    """sqrt(1 - exp(-4 beta^2)): one in the strong-amplitude limit."""
    return math.sqrt(1.0 - math.exp(-4.0 * channel.beta ** 2))


def negativity_numeric(channel: HybridChannel) -> float:
    """Entanglement of the resource from the partial-transpose criterion.

    Computed as trace_norm(rho^T_qubit) - 1 on the truncated density
    matrix, the normalization that reaches one for maximally entangled
    qubit pairs and matches the closed form.
    """
    state = channel_state(channel)
    d1 = state.amps.shape[0]
    psi = np.stack([state.amps[:, 0, 1], state.amps[:, 1, 0]], axis=1)  # (d1, 2)
    rho = np.outer(psi.reshape(-1), psi.reshape(-1).conj())
    rho = rho.reshape(d1, 2, d1, 2).swapaxes(1, 3).reshape(2 * d1, 2 * d1)
    svals = np.linalg.svd(rho, compute_uv=False)
    return float(svals.sum() - 1.0)


def negativity(channel: HybridChannel) -> tuple[float, float]:
    """(closed form, numeric partial-transpose value); they agree to ~1e-6
    once the truncation holds the coherent tails."""
    return negativity_closed_form(channel), negativity_numeric(channel)
