"""Exact linear-optical elements on truncated Fock grids.

Every element acts on plain complex arrays whose axes the caller names.
:func:`split_amplitudes` is the one beam splitter: the finite-reflectance
circuit of ``protocol`` runs on it, and so do the splitter checks of
``verify --suite properties`` and :func:`htbs_residual`.
:func:`displacement_matrix` is the matrix-exponential displacement, the
reference that the displaced rows of ``displaced`` are checked against.

The two-mode beam splitter conserves total photon number, so its Fock
representation is block diagonal.  Each call builds the blocks it needs
as one array, by a recurrence over the smaller mode's photon number
(peel one creation operator off the input), and only their columns of
the input levels the smaller mode occupies; nothing is cached.

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
from .fock import TAIL_TOL, TailMassError

_UNITARITY_TOL = 1e-12
#: largest splitter accepted, in float64 cells of its block array plus its
#: outputs laid out by total photon number (two cells per amplitude); the
#: circuit oracle bounds itself by all its block columns but builds only
#: those its qubit modes occupy: ``oracle --alpha 8.7 --r 0.3``, just inside
#: the bound, peaks near 60 MB
MAX_SPLIT_CELLS = 2 ** 24
#: the highly transmissive regime, 0 < r <= this, for the htbs and the circuit
_HTBS_R_MAX = 0.3


@dataclass(frozen=True)
class BeamSplitterParams:
    """Real transmittance/reflectance amplitudes with t^2 + r^2 = 1.

    ``r`` may be negative (the inverse splitter); the highly transmissive
    regime used by the teleportation circuit has 0 < r <= ``_HTBS_R_MAX``.
    """

    t: float
    r: float

    def __post_init__(self):
        if self.t <= 0.0:
            raise ValueError("transmittance amplitude t must be positive")
        if abs(self.t ** 2 + self.r ** 2 - 1.0) > _UNITARITY_TOL:
            raise ValueError(f"t^2 + r^2 = {self.t**2 + self.r**2!r} != 1")

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
               n_total_min: int = 0, columns: int | None = None) -> np.ndarray:
    """Blocks G[N - n_total_min, jb, nb] = <N-jb, jb| BS |N-nb, nb> for
    n_total_min <= N <= n_total_max, jb < b_dim and nb < ``columns``
    (default b_dim, every column).

    The first-mode index is implicit (N minus the stored one), which keeps
    the tables small when one mode is a high-occupancy coherent carrier.
    Column nb = 0 is the binomial sqrt(C(N, j)) t^(N-j) r^j; column nb
    follows from column nb - 1 of block N - 1 through
    |N-nb, nb> = b+ |N-nb, nb-1> / sqrt(nb) and b+ -> -r a+ + t b+.
    Both loops run over the small mode only, each step over every N, on
    columns stored contiguously (g[nb, N, jb], transposed on return).  A
    column reads only the one below it, so the first ``columns`` columns
    are bitwise those of the full build; a window from n_total_min > 0
    runs the recurrence from block n_total_min - (columns - 1), the lowest
    one its columns depend on, so its rows are bitwise those of the full
    build too.
    """
    columns = b_dim if columns is None else columns
    n_first = max(0, n_total_min - (columns - 1))
    n_total = np.arange(n_first, n_total_max + 1.0)
    g = np.zeros((columns, len(n_total), b_dim))
    g[0, :, 0] = t ** n_total
    for j in range(1, b_dim):
        root = np.sqrt(np.clip(n_total - j + 1, 0, None) / j)
        g[0, :, j] = g[0, :, j - 1] * root * (r / t)
    sqrt_ja = np.sqrt(np.clip(n_total[1:, None] - np.arange(b_dim), 0, None))
    sqrt_jb = np.sqrt(np.arange(1, b_dim))
    for nb in range(1, columns):
        prev, col = g[nb - 1, :-1], g[nb, 1:]
        col[:] = -r * sqrt_ja * prev
        col[:, 1:] += t * sqrt_jb * prev[:, :-1]
        col /= math.sqrt(nb)
    return np.ascontiguousarray(g.transpose(1, 2, 0)[n_total_min - n_first:])


def check_split_size(dim_a: int, dim_b: int, batch: int,
                     columns: int | None = None) -> None:
    """Raise TailMassError, before anything is allocated, when a splitter
    on a (dim_a, dim_b) grid with ``batch`` inputs exceeds
    :data:`MAX_SPLIT_CELLS`.  ``columns`` is the number of block columns
    built, one per input level of the smaller mode (default: every level).
    The blocks hold (dim_a + dim_b - 1) x the smaller mode x ``columns``
    cells, so a strong amplitude on both modes is what gets refused."""
    small = min(dim_a, dim_b)
    columns = small if columns is None else columns
    cells = (dim_a + dim_b - 1) * small * (columns + 2 * batch)
    if cells > MAX_SPLIT_CELLS:
        raise TailMassError(
            f"a beam splitter on {dim_a} x {dim_b} levels with {batch} inputs needs "
            f"{cells:,} cells, above the largest supported ({MAX_SPLIT_CELLS:,})")


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
    what lands past the larger mode's cutoff or below its window.  Only
    the block columns of the smaller mode's input levels up to its highest
    occupied one are built: the others would multiply zeros.  The real
    blocks act on the real and imaginary parts separately, each product
    written into its half of one complex output: a complex copy of them
    would take twice their memory.  A batch entry that loses more than
    ``max(leak_tolerance, 1e-14 * its norm^2)`` raises a TailMassError, as
    does a grid past :func:`check_split_size`, which refuses a grid on
    which even one block column cannot fit before the input is scanned.
    """
    batch = math.prod(amps.shape[2:])
    check_split_size(amps.shape[0], amps.shape[1], batch, columns=1)
    t, r = params.t, params.r
    swap = amps.shape[1] > amps.shape[0]
    if swap:
        # store the blocks over the smaller mode; swapping the listing
        # order flips the sign of r
        amps, r = amps.swapaxes(0, 1), -r
    da, db = amps.shape[:2]
    occupied = np.flatnonzero(np.any(amps, axis=(0,) + tuple(range(2, amps.ndim))))
    columns = int(occupied[-1]) + 1 if occupied.size else 1
    check_split_size(da, db, batch, columns)
    blocks = _bs_blocks(t, r, db, offset + da + db - 2, offset, columns=columns)
    a_idx, b_idx, n_blocks = np.arange(da)[:, None], np.arange(db), da + db - 1
    by_total = np.zeros((n_blocks, columns) + amps.shape[2:], dtype=complex)
    by_total[a_idx + b_idx[:columns], b_idx[:columns]] = amps[:, :columns]
    flat = by_total.reshape(n_blocks, columns, batch)
    out = np.empty((n_blocks,) + amps.shape[1:], dtype=complex)
    products = out.reshape(n_blocks, db, batch)
    np.matmul(blocks, flat.real, out=products.real)
    np.matmul(blocks, flat.imag, out=products.imag)
    out = out[a_idx + b_idx, b_idx]
    in2 = np.einsum("abir,abir->i", amps.conj(), amps).real
    leak = in2 - np.einsum("abir,abir->i", out.conj(), out).real
    lost = leak > np.maximum(leak_tolerance, 1e-14 * in2)
    if lost.any():
        raise TailMassError(
            f"beam splitter pushed {leak[lost].max():.3e} probability past the cutoffs"
        )
    return out.swapaxes(0, 1) if swap else out


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


# -- highly transmissive splitter as a displacer ----------------------------

def htbs_residual(row: np.ndarray, beta: float, r: float, sign: int):
    """How well a strong coherent drive through a weak splitter displaces.

    The input mode's amplitudes ``row`` are mixed with a coherent ancilla
    on a splitter of reflectance ``r``;  under the package convention an
    ancilla amplitude ``-sign*beta`` displaces the input by ``sign*alpha``
    with ``alpha = beta*r/t``.  Returns ``(fidelity, joint)`` where
    ``fidelity`` compares the ancilla-traced output against the ideal
    displaced input and ``joint`` is the exact post-splitter array over
    (input levels, ancilla levels).
    """
    if not 0.0 < r <= _HTBS_R_MAX:
        raise ValueError(f"htbs regime requires 0 < r <= {_HTBS_R_MAX}")
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    row = np.asarray(row, dtype=complex)
    if row.ndim != 1:
        raise ValueError("input must be a single-mode row")
    t = math.sqrt(1.0 - r * r)
    alpha = beta * r / t

    grown = np.pad(row, (0, default_cutoff(alpha)))
    joint = np.multiply.outer(grown, coherent_state(-sign * beta))
    joint = split_amplitudes(joint[:, :, None, None], BeamSplitterParams(t, r), TAIL_TOL)
    # a C-order copy: the product with the target rounds differently on
    # the transposed view the splitter returns
    joint = np.ascontiguousarray(joint[:, :, 0, 0])

    # <t| rho |t> / tr rho with rho = m m^H the ancilla-traced output is
    # |t^H m|^2 / |m|_F^2, so rho itself is never built
    target = np.tensordot(displacement_matrix(sign * alpha, len(grown)),
                          _normalized(grown), axes=(1, 0))
    v = target.conj() @ joint
    fid = float(np.vdot(v, v).real) / float(np.vdot(joint, joint).real)
    return fid, joint


# -- hybrid channel and its entanglement -------------------------------------

def _normalized(amps: np.ndarray) -> np.ndarray:
    """``amps`` divided by its norm, or as it is when that norm is one to
    within 1e-12."""
    n = float(np.sqrt(np.vdot(amps, amps).real))
    return amps if abs(n - 1.0) <= 1e-12 else amps / n


def channel_state(channel: HybridChannel) -> np.ndarray:
    """The shared resource state (|-beta>|01> + |beta>|10>) / sqrt(2), as
    an array over (coherent levels, rail 2, rail 3) with the coherent mode
    cut at its default cutoff, where each coherent row is checked.

    The dual-rail branches are orthogonal, so the raw 1/sqrt(2) norm is
    exactly one despite the non-orthogonal coherent parts; the state is
    renormalized numerically anyway.
    """
    beta = channel.beta
    n_max = default_cutoff(beta)
    amps = np.zeros((n_max + 1, 2, 2), dtype=complex)
    amps[:, 0, 1] = coherent_state(-beta, n_max=n_max) / math.sqrt(2.0)
    amps[:, 1, 0] = coherent_state(beta, n_max=n_max) / math.sqrt(2.0)
    return _normalized(amps)


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
    psi = np.stack([state[:, 0, 1], state[:, 1, 0]], axis=1)  # (d1, 2)
    schmidt = np.linalg.svd(psi, compute_uv=False)
    return float(schmidt.sum() ** 2 - 1.0)


def negativity(channel: HybridChannel) -> tuple[float, float]:
    """(closed form, numeric partial-transpose value); they agree to ~1e-6
    once the truncation holds the coherent tails.  The numeric value goes
    first, so an amplitude past the cutoff guard fails there, by name."""
    numeric = negativity_numeric(channel)
    return negativity_closed_form(channel), numeric
