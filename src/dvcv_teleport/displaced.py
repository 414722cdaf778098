"""Displaced number states and their Fock-basis matrix elements.

A displaced number state is a Fock state pushed through phase space by a
real amplitude ``alpha``.  Writing it over the plain number basis,

    |l, alpha> = F(alpha) * sum_n c(l, n, alpha) |n>,
    F(alpha)   = exp(-alpha^2 / 2),

the coefficients ``c`` are polynomials in ``alpha``; the coherent state is
the ``l = 0`` row, ``c(0, n) = alpha^n / sqrt(n!)``.  Rows for higher ``l``
follow from peeling one creation operator off the displaced ket:

    c(l+1, n) = (sqrt(n) * c(l, n-1) - alpha * c(l, n)) / sqrt(l+1).

The recurrence is numerically benign in the regime used here (alpha <= 2,
l <= 8) and is cross-checked elsewhere against an exact matrix-exponential
construction of the displacement unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .fock import (
    FockState,
    ModeLabel,
    TailMassError,
    default_cutoff,
    single_mode,
)

SIGN_RULE_TOL = 1e-12


def overall_factor(alpha: float) -> float:
    """The Gaussian prefactor F(alpha) = exp(-alpha^2 / 2)."""
    return math.exp(-0.5 * alpha * alpha)


def _coherent_row(n_max: int, alpha) -> np.ndarray:
    """Row alpha^n / sqrt(n!) for n <= n_max, amplitude axes last."""
    row = np.empty((n_max + 1,) + getattr(alpha, "shape", ()))
    row[0] = 1.0
    for n in range(1, n_max + 1):
        row[n] = row[n - 1] * alpha / math.sqrt(n)
    return row


def _scaled_coherent_row(n_max: int, alpha: float) -> np.ndarray:
    """F(alpha) * alpha^n / sqrt(n!) for n <= n_max, summed in the exponent
    so that a strong amplitude neither overflows alpha^n nor underflows F."""
    n = np.arange(n_max + 1)
    log_mag = xlogy(n, abs(alpha)) - 0.5 * gammaln(n + 1.0) - 0.5 * alpha * alpha
    return np.exp(log_mag) * np.sign(alpha) ** n


def _ladder(row0: np.ndarray, l_max: int, alpha) -> np.ndarray:
    """Rows 0..l_max of the l-recurrence started from row ``row0`` (its n
    axis first); the recurrence is linear, so a row scaled by F stays so."""
    shape = row0.shape[1:]
    c = np.empty((l_max + 1,) + row0.shape)
    c[0] = row0
    sqrt_n = np.sqrt(np.arange(row0.shape[0])).reshape((-1,) + (1,) * len(shape))
    for l in range(l_max):
        shifted = np.concatenate((np.zeros((1,) + shape), c[l, :-1]))
        c[l + 1] = (sqrt_n * shifted - alpha * c[l]) / math.sqrt(l + 1)
    return c


def matrix_element_rows(l_max: int, n_max: int, alpha) -> np.ndarray:
    """Table c[l, n, ...] for 0 <= l <= l_max, 0 <= n <= n_max (without F).

    ``alpha`` may be a float or an ndarray; the array's axes come last, and
    each amplitude's table is bitwise the one a float ``alpha`` gives.
    """
    if l_max < 0 or n_max < 0:
        raise ValueError("l_max and n_max must be nonnegative")
    return _ladder(_coherent_row(n_max, alpha), l_max, alpha)


@dataclass(frozen=True)
class MatrixElementTable:
    """Precomputed decomposition coefficients for displaced number states.

    ``c[l, n]`` is c(l, n, alpha) for every row l and count n its shape
    covers.  Immutable once built; one table serves every outcome at its
    alpha.
    """

    alpha: float
    c: np.ndarray
    f: float

    def element(self, l: int, n: int) -> float:
        return float(self.c[l, n])

    def normalization_defect(self, l: int) -> float:
        """|F^2 * sum_n c^2 - 1| for one row; small iff the cutoff holds the tail."""
        return abs(self.f ** 2 * float(np.dot(self.c[l], self.c[l])) - 1.0)

    def orthogonality_defect(self, l: int, k: int) -> float:
        val = self.f ** 2 * float(np.dot(self.c[l], self.c[k]))
        return abs(val - (1.0 if l == k else 0.0))


def matrix_element_table(l_max: int, n_max: int, alpha: float) -> MatrixElementTable:
    c = matrix_element_rows(l_max, n_max, alpha)
    c.flags.writeable = False
    return MatrixElementTable(alpha=float(alpha), c=c, f=overall_factor(alpha))


def matrix_element(l: int, n: int, alpha: float) -> float:
    """Single coefficient c(l, n, alpha); c(l, n, 0) is the Kronecker delta."""
    if l < 0 or n < 0:
        raise ValueError("l and n must be nonnegative")
    return float(matrix_element_rows(l, n, alpha)[l, n])


def parity_sign_table(l_max: int, n_max: int, alpha) -> np.ndarray:
    """Whether c(l, n, -alpha) == (-1)^(n-l) * c(l, n, alpha) to 1e-12, as a
    boolean table [l, n, ...] over the rows of :func:`matrix_element_rows`."""
    plus = matrix_element_rows(l_max, n_max, alpha)
    minus = matrix_element_rows(l_max, n_max, -alpha)
    sign = np.where((np.arange(n_max + 1) - np.arange(l_max + 1)[:, None]) % 2, -1.0, 1.0)
    expected = sign.reshape(sign.shape + (1,) * (plus.ndim - 2)) * plus
    return np.abs(minus - expected) <= SIGN_RULE_TOL * np.maximum(1.0, np.abs(plus))


def parity_sign_check(l: int, n: int, alpha: float) -> bool:
    """Whether c(l, n, -alpha) == (-1)^(n-l) * c(l, n, alpha) to 1e-12."""
    return bool(parity_sign_table(l, n, alpha)[l, n])


def displaced_number_state(l: int, alpha: float, mode: ModeLabel = 0,
                           n_max: int | None = None,
                           tail_tolerance: float = 1e-10) -> FockState:
    """Single-mode state with amplitudes F(alpha) * c(l, n, alpha).

    The l = 0 row is built with F in log space, so amplitudes far past the
    tables' regime (the circuit's carrier, beta ~ 50) stay finite.
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    if n_max is None:
        n_max = default_cutoff(alpha) + l
    amps = _ladder(_scaled_coherent_row(n_max, alpha), l, alpha)[l]
    state = single_mode(mode, amps.astype(complex), tail_tolerance)
    return state.check_tail()


def coherent_state(alpha: float, mode: ModeLabel = 0, n_max: int | None = None,
                   tail_tolerance: float = 1e-10) -> FockState:
    return displaced_number_state(0, alpha, mode=mode, n_max=n_max,
                                  tail_tolerance=tail_tolerance)


def scs_norm_factor(parity: str, beta: float) -> float:
    """Normalizer of the even/odd coherent-state superposition."""
    sign = 1.0 if parity == "even" else -1.0
    return (2.0 * (1.0 + sign * math.exp(-2.0 * beta * beta))) ** -0.5


def scs_state(parity: str, beta: float, mode: ModeLabel = 0,
              n_max: int | None = None, tail_tolerance: float = 1e-10) -> FockState:
    """Even or odd superposition of the coherent states with amplitudes -beta, +beta.

    The even branch has support only on even photon numbers, the odd branch
    only on odd ones.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if n_max is None:
        n_max = default_cutoff(beta)
    sign = 1.0 if parity == "even" else -1.0
    plus = _scaled_coherent_row(n_max, beta)
    minus = _scaled_coherent_row(n_max, -beta)
    amps = scs_norm_factor(parity, beta) * (minus + sign * plus)
    state = single_mode(mode, amps.astype(complex), tail_tolerance)
    defect = abs(state.norm() - 1.0)
    if defect > max(tail_tolerance, 1e-12):
        raise TailMassError(f"cat-state cutoff {n_max} too small (norm defect {defect:.2e})")
    return state.normalize().check_tail()

