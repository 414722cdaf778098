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

from .displaced import coherent_state, default_cutoff
from .fock import (
    FockState,
    ModeLabel,
    TailMassError,
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

def _bs_blocks(t: float, r: float, b_dim: int, n_total_max: int,
               n_total_min: int = 0) -> np.ndarray:
    """Blocks G[N - n_total_min, jb, nb] = <N-jb, jb| BS |N-nb, nb> for
    n_total_min <= N <= n_total_max and jb, nb < b_dim.

    The first-mode index is implicit (N minus the stored one), which keeps
    the tables small when one mode is a high-occupancy coherent carrier.
    Column nb = 0 is the binomial sqrt(C(N, j)) t^(N-j) r^j; column nb
    follows from column nb - 1 of block N - 1 through
    |N-nb, nb> = b+ |N-nb, nb-1> / sqrt(nb) and b+ -> -r a+ + t b+.
    Both loops run over the small mode only, each step over every N, on
    columns stored contiguously (g[nb, N, jb], transposed on return).  A
    window from n_total_min > 0 runs the recurrence from block
    n_total_min - (b_dim - 1), the lowest one its columns depend on, so
    its rows are bitwise those of the full build.
    """
    n_first = max(0, n_total_min - (b_dim - 1))
    n_total = np.arange(n_first, n_total_max + 1.0)
    g = np.zeros((b_dim, len(n_total), b_dim))
    g[0, :, 0] = t ** n_total
    for j in range(1, b_dim):
        root = np.sqrt(np.clip(n_total - j + 1, 0, None) / j)
        g[0, :, j] = g[0, :, j - 1] * root * (r / t)
    sqrt_ja = np.sqrt(np.clip(n_total[1:, None] - np.arange(b_dim), 0, None))
    sqrt_jb = np.sqrt(np.arange(1, b_dim))
    for nb in range(1, b_dim):
        prev, col = g[nb - 1, :-1], g[nb, 1:]
        col[:] = -r * sqrt_ja * prev
        col[:, 1:] += t * sqrt_jb * prev[:, :-1]
        col /= math.sqrt(nb)
    return np.ascontiguousarray(g.transpose(1, 2, 0)[n_total_min - n_first:])


def split_amplitudes(amps: np.ndarray, params: BeamSplitterParams,
                     leak_tolerance: float, offset: int = 0) -> np.ndarray:
    """Apply the splitter to amplitudes shaped (dim_a, dim_b, batch, rest).

    Every batch entry is a separate input through the same splitter, so
    one block array serves them all.  The larger mode's stored levels are
    the photon numbers ``offset`` .. ``offset + dim - 1``: a window on a
    strong carrier, whose lower levels hold no amplitude at double
    precision.  Amplitude [a, b] sits in block N = a + offset + b: one
    gather lays the input out as (N, b, ...) with the smaller mode second,
    one batched product applies every block, and the inverse gather drops
    what lands past the larger mode's cutoff or below its window.  The
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
    blocks = _bs_blocks(t, r, db, offset + da + db - 2, offset)
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
                           state.tail_tolerance)
    out = np.moveaxis(out.reshape(moved.shape), (0, 1), axes)
    return FockState(state.modes, out, state.tail_tolerance)


# -- displacement -----------------------------------------------------------

def displacement_matrix(gamma: float, dim: int) -> np.ndarray:
    """Exact displacement unitary on a ``dim``-level mode via the matrix
    exponential of gamma * (a+ - a).

    Scaling and squaring in plain ``@`` products: the antisymmetric
    generator is scaled by 2^-s so that its 1-norm is at most 1/2, where 18
    Taylor terms leave a remainder below 1e-22, and the sum is squared s
    times.  OpenBLAS runs products this small on the calling thread;
    scipy's ``expm`` took ~8 ms a call at any size on a 2-CPU host, almost
    all of it handing work to the BLAS thread pool, against ~0.2 ms here
    at dim 40.  Independent of the polynomial/recurrence route: serves as
    its oracle.
    """
    g = np.zeros((dim, dim))
    root = gamma * np.sqrt(np.arange(1, dim))
    g[np.arange(1, dim), np.arange(dim - 1)] = root
    g[np.arange(dim - 1), np.arange(1, dim)] = -root
    squarings = max(0, math.frexp(np.abs(g).sum(axis=0).max())[1] + 1)
    g /= 2.0 ** squarings
    term = out = np.eye(dim)
    for j in range(1, 19):
        term = term @ g / j
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


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
    return FockState(state.modes, np.moveaxis(out, 0, ax), state.tail_tolerance)


def pad_mode(state: FockState, mode: ModeLabel, new_n_max: int) -> FockState:
    """Grow one mode's cutoff, zero-filling the new levels."""
    ax = state.axis(mode)
    old = state.amps.shape[ax] - 1
    if new_n_max < old:
        raise ValueError("pad_mode cannot shrink a mode")
    if new_n_max == old:
        return state
    pad = [(0, 0)] * state.amps.ndim
    pad[ax] = (0, new_n_max - old)
    return FockState(state.modes, np.pad(state.amps, pad), state.tail_tolerance)


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

    grown = pad_mode(input_state, mode, input_state.n_max(mode) + default_cutoff(alpha))
    ancilla = coherent_state(-sign * beta, mode=anc,
                             tail_tolerance=input_state.tail_tolerance)
    joint = tensor(grown, ancilla)
    joint = apply_bs(joint, mode, anc, BeamSplitterParams(t, r))

    # <t| rho |t> / tr rho with rho = m m^H the ancilla-traced output is
    # |t^H m|^2 / |m|_F^2, so rho itself is never built
    m = joint.amps  # (input levels, ancilla levels)
    target = displacement_unitary(grown.normalize(), mode, sign * alpha)
    v = target.amps.conj() @ m
    fid = float(np.vdot(v, v).real) / float(np.vdot(m, m).real)
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
    return FockState((1, 2, 3), amps).normalize().check_tail(modes=(1,))


def negativity_closed_form(channel: HybridChannel) -> float:
    """sqrt(1 - exp(-4 beta^2)): one in the strong-amplitude limit."""
    return math.sqrt(1.0 - math.exp(-4.0 * channel.beta ** 2))


def negativity_numeric(channel: HybridChannel) -> float:
    """Entanglement of the resource from the partial-transpose criterion.

    trace_norm(rho^T_qubit) - 1 on the truncated state, the normalization
    that reaches one for maximally entangled qubit pairs and matches the
    closed form.  For a pure state with Schmidt values s_i (the singular
    values of its (coherent levels, qubit) amplitude matrix) the partial
    transpose has trace norm (sum_i s_i)^2, so only the (d1, 2) matrix is
    decomposed, never the (2 d1, 2 d1) density matrix.
    """
    state = channel_state(channel)
    psi = np.stack([state.amps[:, 0, 1], state.amps[:, 1, 0]], axis=1)  # (d1, 2)
    schmidt = np.linalg.svd(psi, compute_uv=False)
    return float(schmidt.sum() ** 2 - 1.0)


def negativity(channel: HybridChannel) -> tuple[float, float]:
    """(closed form, numeric partial-transpose value); they agree to ~1e-6
    once the truncation holds the coherent tails."""
    return negativity_closed_form(channel), negativity_numeric(channel)
