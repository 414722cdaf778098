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

from .fock import TAIL_TOL, NonFiniteAmplitudeError, TailMassError, default_cutoff

SIGN_RULE_TOL = 1e-12


def overall_factor(alpha: float) -> float:
    """The Gaussian prefactor F(alpha) = exp(-alpha^2 / 2)."""
    return math.exp(-0.5 * alpha * alpha)


def _per_entry(fn, *args):
    """``fn`` of Python floats at each entry of array arguments, or of float
    ones: numpy's array exp and power differ from libm's (``math.exp``,
    float ``**``) in the last bit on some entries.  The arguments are
    scanned with a plain loop, since a scalar call pays for every step."""
    for x in args:
        if getattr(x, "ndim", 0):
            return np.frompyfunc(fn, len(args), 1)(*args).astype(float)
    return fn(*map(float, args))


def _float_or_array(x):
    """A float or 0-d result as a Python float, any other array as it is."""
    return x if getattr(x, "ndim", 0) else float(x)


def _coherent_row(n_max: int, alpha) -> np.ndarray:
    """Row alpha^n / sqrt(n!) for n <= n_max, after the amplitude axes."""
    row = np.empty(getattr(alpha, "shape", ()) + (n_max + 1,))
    # filled through the reversed-axes view, where the count comes first;
    # the running term is carried as computed, not read back from the row,
    # so at a float alpha it stays a Python float (the same IEEE products)
    rev, a = row.T, getattr(alpha, "T", alpha)
    term = rev[0] = 1.0
    for n in range(1, n_max + 1):
        term = rev[n] = term * a / math.sqrt(n)
    return row


#: cephes ``lgam``'s Stirling-series coefficients and log(sqrt(2 pi))
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LS2PI = 0.91893853320467274178
_SMALL_LOG_FACTORIALS = np.array([math.log(math.factorial(n)) for n in range(12)])


def _log_factorial_range(lo: int, hi: int) -> np.ndarray:
    """log(n!) for lo <= n < hi, bitwise scipy's ``gammaln(n + 1.0)``.

    The branches, edges and operation order are those of cephes ``lgam``
    (the code behind ``gammaln``), so the floats are scipy's bit for bit.
    Every log comes from ``math.log`` (libm): numpy's SIMD log differs
    from libm in the last bit on some integers.
    """
    n = np.arange(lo, hi)
    x = n + 1.0
    log_x = np.fromiter(map(math.log, range(lo + 1, hi + 1)), float, hi - lo)
    q = (x - 0.5) * log_x - x + _LS2PI
    p = 1.0 / (x * x)
    series = _LGAM_A[0]
    for a in _LGAM_A[1:]:
        series = series * p + a
    tail = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p \
        + 0.0833333333333333333333
    # cephes returns q alone above x = 1e8, where the correction is below
    # half an ulp of q, so adding it there changes no bit
    q += np.where(x < 1000.0, series, tail) / x
    small = x < 13.0
    q[small] = _SMALL_LOG_FACTORIALS[n[small]]
    return q


def _scaled_coherent_row(n_max: int, alpha: float) -> np.ndarray:
    """F(alpha) * alpha^n / sqrt(n!) for n <= n_max, summed in the exponent
    so that a strong amplitude neither overflows alpha^n nor underflows F."""
    n = np.arange(n_max + 1)
    a = abs(alpha)
    # xlogy(n, |alpha|): at alpha = 0 the n = 0 term is 0 and the rest -inf,
    # so the row is exactly (1, 0, 0, ...)
    n_log_a = np.where(n > 0, -math.inf, 0.0) if a == 0.0 else n * math.log(a)
    log_mag = n_log_a - 0.5 * _log_factorial_range(0, n_max + 1) - 0.5 * alpha * alpha
    return np.exp(log_mag) * np.sign(alpha) ** n


def _ladder(row0: np.ndarray, l_max: int, alpha) -> np.ndarray:
    """Rows 0..l_max of the l-recurrence started from row ``row0`` (its n
    axis last); the recurrence is linear, so a row scaled by F stays so.

    Each step is written into its own row of the table: count 0 gets
    sqrt(0) * 0 = 0, the counts above it sqrt(n) c(l, n - 1), then the
    row takes alpha c(l, n) off and is divided by sqrt(l + 1), the
    operations of the formula in its order, with no shifted copy.  The
    first step's divisor is sqrt(1) = 1, and x / 1.0 is x bitwise, so that
    division is not made."""
    c = np.empty((l_max + 1,) + row0.shape)
    c[0] = row0
    sqrt_n = np.sqrt(np.arange(1, row0.shape[-1]))
    a = alpha[..., None] if row0.ndim > 1 else alpha
    for l in range(l_max):
        nxt = c[l + 1]
        nxt[..., 0] = 0.0
        np.multiply(sqrt_n, c[l, ..., :-1], out=nxt[..., 1:])
        nxt -= a * c[l]
        if l > 0:
            nxt /= math.sqrt(l + 1)
    return c


def matrix_element_rows(l_max: int, n_max: int, alpha) -> np.ndarray:
    """Table c[l, ..., n] for 0 <= l <= l_max, 0 <= n <= n_max (without F).

    ``alpha`` may be a float or an ndarray, whose axes come between l and
    n, so each row is contiguous over n; each amplitude's table is bitwise
    the one a float ``alpha`` gives.
    """
    if l_max < 0 or n_max < 0:
        raise ValueError("l_max and n_max must be nonnegative")
    return _ladder(_coherent_row(n_max, alpha), l_max, alpha)


@dataclass(frozen=True)
class MatrixElementTable:
    """Precomputed decomposition coefficients for displaced number states.

    ``c[l, ..., n]`` is c(l, n, alpha) for every row l and count n its
    shape covers, at a float ``alpha`` or an array of them (``f`` likewise).
    Immutable once built; one table serves every outcome at every alpha.
    """

    alpha: float | np.ndarray
    c: np.ndarray
    f: float | np.ndarray

    def normalization_defect(self, l: int):
        """|F^2 * sum_n c^2 - 1| for one row; small iff the cutoff holds the tail."""
        return self.orthogonality_defect(l, l)

    def orthogonality_defect(self, l: int, k: int):
        # one (1 x n) @ (n x 1) product per amplitude, bitwise np.dot of the rows
        dot = (self.c[l][..., None, :] @ self.c[k][..., :, None])[..., 0, 0]
        val = _per_entry(pow, self.f, 2) * dot
        return _float_or_array(np.abs(val - (1.0 if l == k else 0.0)))


def matrix_element_table(l_max: int, n_max: int, alpha) -> MatrixElementTable:
    c = matrix_element_rows(l_max, n_max, alpha)
    c.flags.writeable = False
    return MatrixElementTable(alpha=_per_entry(float, alpha), c=c,
                              f=_per_entry(overall_factor, alpha))


def matrix_element(l: int, n: int, alpha: float) -> float:
    """Single coefficient c(l, n, alpha); c(l, n, 0) is the Kronecker delta."""
    if l < 0 or n < 0:
        raise ValueError("l and n must be nonnegative")
    return float(matrix_element_rows(l, n, alpha)[l, n])


def parity_sign_table(l_max: int, n_max: int, alpha) -> np.ndarray:
    """Whether c(l, n, -alpha) == (-1)^(n-l) * c(l, n, alpha) to 1e-12, as a
    boolean table [l, ..., n] over the rows of :func:`matrix_element_rows`."""
    plus = matrix_element_rows(l_max, n_max, alpha)
    minus = matrix_element_rows(l_max, n_max, -alpha)
    sign = np.where((np.arange(n_max + 1) - np.arange(l_max + 1)[:, None]) % 2, -1.0, 1.0)
    expected = sign.reshape((l_max + 1,) + (1,) * (plus.ndim - 2) + (n_max + 1,)) * plus
    return np.abs(minus - expected) <= SIGN_RULE_TOL * np.maximum(1.0, np.abs(plus))


def displaced_number_state(l: int, alpha: float, n_max: int | None = None,
                           tail_tolerance: float = TAIL_TOL) -> np.ndarray:
    """The complex row F(alpha) * c(l, n, alpha) for n <= n_max (by
    default the cutoff of ``alpha`` plus l).

    Refuses a non-finite amplitude (NonFiniteAmplitudeError), a row that
    underflows to zero and a ``tail_tolerance`` outside [0, 1) (both
    ValueError), and a row whose cutoff level holds more than
    ``tail_tolerance`` (TailMassError).  The l = 0 row is built with F in
    log space, so amplitudes far past the tables' regime (the circuit's
    carrier, beta ~ 50) stay finite.
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    if n_max is None:
        n_max = default_cutoff(alpha) + l
    row = _ladder(_scaled_coherent_row(n_max, alpha), l, alpha)[l].astype(complex)
    n2 = float(np.vdot(row, row).real)
    if not math.isfinite(n2):
        raise NonFiniteAmplitudeError("state has a non-finite amplitude")
    if n2 <= 0.0:
        raise ValueError("state has zero norm")
    if not (0.0 <= tail_tolerance < 1.0):
        raise ValueError("tail tolerance must lie in [0, 1)")
    mass = float(np.sum(np.abs(row[-1]) ** 2))
    if mass > tail_tolerance:
        raise TailMassError(
            f"row l={l} at alpha={alpha:.9g} holds {mass:.3e} probability at its "
            f"cutoff (tolerance {tail_tolerance:.1e})")
    return row


def coherent_state(alpha: float, n_max: int | None = None,
                   tail_tolerance: float = TAIL_TOL) -> np.ndarray:
    return displaced_number_state(0, alpha, n_max=n_max, tail_tolerance=tail_tolerance)
