"""Removing the known amplitude factor from a delivered qubit.

Two probabilistic routes exist.  Displacing an auxiliary mode and counting
photons removes the factor whenever the displacement amplitude solves

    A * c(0, n, gamma) / c(1, n, gamma) = +-1,

a quadratic in gamma since the coefficient ratio is gamma / (n - gamma^2);
failed counts leave fresh amplitude-modulated states, so the procedure can
be chained.  Swapping with a prearranged partner through a balanced
splitter works once, with success A^2 / (1 + A^2).  The qubit to
demodulate is ``AMQubit(a0, a1, factor)``: the state (a0, a1 * factor) up
to its norm.

Reported success probabilities follow the composition convention in which
the conditional-state normalizer cancels against the outcome weight
F^4 |c c|^2, so overall accounting is a plain weighted sum.

Every tally classifies an outcome's factor by one rule
(:func:`_factor_classes`): NaN is singular and adds nothing; a factor
within 1e-9 of +-1 is a pure sign, delivered clean by the known Z
correction; any other nonzero factor is restorable by the swap or the
displacement route; a zero factor delivers nothing.  One more rule
(:func:`_methods`) gives each outcome its method and success: a pure sign is
clean unless skipped, any other nonsingular factor takes the policy's route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .displaced import (
    MatrixElementTable,
    _float_or_array,
    _per_entry,
    matrix_element_rows,
    matrix_element_table,
    overall_factor,
)
from .fock import MeasurementRangeError, QubitState, _unit_pair
from .protocol import (
    SingularFactorError,
    _direct_mass,
    _factor_row,
    _nonnegative,
    amp_factor_grid,
)

#: every tally treats a factor within this of +-1 as a pure sign
_SIGN_TOL = 1e-9
#: displacement-route search: target counts, residual counts tracked after a
#: failed attempt, and the largest admissible displacement amplitude
_TARGET_MAX = 8
_RESIDUAL_MAX = 12
_GAMMA_MAX = 8.0
_POLICIES = ("best", "swap", "displacement", "skip")


@dataclass(frozen=True)
class AMQubit:
    """A qubit whose second amplitude carries a known real factor.

    ``a0, a1`` are the amplitudes of the state one wants back; the physical
    state is proportional to (a0, a1 * factor).
    """

    a0: complex
    a1: complex
    factor: float

    def __post_init__(self):
        a0, a1 = _unit_pair(self.a0, self.a1)
        if not math.isfinite(self.factor):
            raise ValueError("amplitude factor must be finite")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)


@dataclass(frozen=True)
class DemodResult:
    """Outcome of one demodulation attempt.

    ``success_probability`` is the composition-normalized value (see module
    docstring); ``sign`` tells whether (a0, +a1) or (a0, -a1) came back;
    ``residuals`` lists (count, weight, new AM qubit) for the displacement
    route's failed branches, enabling chained attempts.
    """

    restored: QubitState | None
    success_probability: float
    gamma: float | None
    sign: int = 0
    residuals: tuple = ()


def q_swap(a_factor) -> float:
    """Swap success A^2 / (1 + A^2): near one for strong factors, tiny for
    weak ones.  Where A^2 overflows, its limit 1 / (1 + 1/A^2) = 1."""
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = np.asarray(a_factor, dtype=float) ** 2
        out = np.where(np.isinf(a2), 1.0, a2 / (1.0 + a2))
    return _float_or_array(out)


def _displacement_step(a, n: int):
    """One displacement attempt aimed at count ``n``, at the positive factor
    magnitude(s) ``a`` (a float or an array).

    The coefficient ratio is gamma / (n - gamma^2), so the factor is removed
    when gamma^2 -+ a gamma - n = 0.  The positive roots, on a new last
    axis, are the smaller 2n / (sqrt(a^2 + 4n) + a) (written so that it does
    not cancel for strong factors) and the larger (sqrt(a^2 + 4n) + a) / 2;
    a root is usable when nonzero and at most _GAMMA_MAX.  The smaller root
    leaves the ratio +1/a, the larger -1/a.

    Returns ``(gamma, usable, c1n2, ratio, c1p2)``: c(1, n)^2 at each root,
    and over residual counts p <= _RESIDUAL_MAX (one more last axis) the
    ratio c(0, p) / c(1, p) and c(1, p)^2.  All but gamma are zero at
    unusable roots, and the residual arrays also at p = n and where
    c(1, p) = 0.  The weights leave out F(gamma)^2: each caller applies it.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        root = np.sqrt(a * a + 4.0 * n)
    # where a^2 overflows, sqrt(a^2 + 4n) rounds to a; halving each term
    # before adding gives (root + a) / 2 bitwise, and n / half is
    # 2n / (root + a) bitwise, with no overflow up to the largest float
    half = 0.5 * np.where(np.isinf(root), a, root) + 0.5 * a
    gamma = np.stack((n / half, half), axis=-1)
    usable = (gamma != 0.0) & (gamma <= _GAMMA_MAX)
    # rows at 0 stand in for unusable roots, whose rows overflow for strong
    # factors; the masks below drop them
    at = np.where(usable, gamma, 0.0)
    c0, c1 = matrix_element_rows(1, max(n, _RESIDUAL_MAX), at)
    c1n2 = np.where(usable, c1[..., n] ** 2, 0.0)
    c0, c1 = c0[..., :_RESIDUAL_MAX + 1], c1[..., :_RESIDUAL_MAX + 1]
    kept = usable[..., None] & (np.arange(_RESIDUAL_MAX + 1) != n) & (c1 != 0.0)
    ratio = np.divide(c0, c1, out=np.zeros_like(c0), where=kept)
    return gamma, usable, c1n2, ratio, np.where(kept, c1 ** 2, 0.0)


def demod_displacement(am: AMQubit, n: int) -> DemodResult:
    """Displacement-route demodulation aimed at auxiliary count ``n``.

    Aims with the roots of :func:`_displacement_step`, the step the value
    tables are built from: the usable root with the largest success weight,
    the larger root on a tie.  Branches with a vanishing weight (the
    restorable component is gone) are not listed as residuals: they can
    never contribute.  Nor are branches whose new factor is not a finite
    float: that happens only for |A| past ~1.3e154, at p = 0, whose weight
    ~n^2 / A^2 is then subnormal.
    """
    if am.factor == 0.0:
        raise ValueError("amplitude factor must be nonzero")
    if n < 0:
        raise ValueError("count must be nonnegative")
    gamma, usable, c1n2, ratio, c1p2 = _displacement_step(abs(am.factor), n)
    found = np.flatnonzero(usable).tolist()
    if not found:
        return DemodResult(None, 0.0, None)
    lo, hi = gamma.tolist()
    i = found[0]
    if len(found) == 2:
        # at a root c(1, n)^2 = A^2 c(0, n)^2, so rank by F^2 c(0, n)^2, whose
        # log is -g^2 + 2n ln g: the weights differ by only ~|A|^3 / (3 sqrt(n))
        # relative, so compare their log gap in a form that does not cancel
        gap = hi - lo
        i = 1 if 2 * n * math.log1p(gap / lo) >= gap * (hi + lo) else 0
    g = (lo, hi)[i]
    f2 = overall_factor(g) ** 2
    # the smaller root (i = 0) leaves the ratio +1/|A|, the larger -1/|A|
    sign = (1 if am.factor > 0 else -1) * (1 if i == 0 else -1)
    with np.errstate(over="ignore"):
        factors = am.factor * ratio[i]
    residuals = tuple(
        (p, f2 * c1p2[i, p], AMQubit(am.a0, am.a1, factors[p]))
        for p in np.flatnonzero((c1p2[i] != 0.0) & np.isfinite(factors)).tolist())
    return DemodResult(
        restored=QubitState(am.a0, sign * am.a1),
        success_probability=f2 * c1n2[i],
        gamma=g,
        sign=sign,
        residuals=residuals,
    )


def demod_swap(am: AMQubit) -> DemodResult:
    """One-shot swap demodulation with a prearranged partner state.

    Both heralding patterns restore the qubit (one needs a known Z, folded
    in here); the procedure cannot be repeated on failure.
    """
    if am.factor == 0.0:
        raise ValueError("amplitude factor must be nonzero")
    return DemodResult(
        restored=QubitState(am.a0, am.a1),
        success_probability=q_swap(am.factor),
        gamma=None,
        sign=1,
    )


# -- chained-displacement value tables ----------------------------------------

_GRID_LO, _GRID_HI, _GRID_N = -6.0, 6.0, 601
_A_LO = 10.0 ** _GRID_LO


@lru_cache(maxsize=1)
def _transition() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The displacement transition on the log10|A| grid, shared by every
    value table: one :func:`_displacement_step` per target count
    n <= _TARGET_MAX, written in place along a leading target axis.

    Returns ``(log_grid, success, points, weights)``: the success weight
    F^2 c(1, n)^2 per (target, factor, root); the log10 of each residual
    factor A' = A |c(0, p) / c(1, p)| per (target, root, count p, factor);
    and its weight F^2 c(1, p)^2 per (target, factor, root, count p).  A
    residual below the grid reads the table's first value, so its weight
    also carries the (A' / A_lo)^2 that :func:`_chain_value` applies there.

    The two layouts differ on purpose.  ``points`` runs along the grid,
    so consecutive points read by np.interp mostly share a bracket, and
    its guess from the previous point skips the binary search; each point
    has one bracket, so the values do not depend on the order.
    ``weights`` keeps the counts last, so the sum over residuals adds
    contiguous rows of 13 terms, in the one pairwise order that makes the
    tables bitwise those of a per-table loop.  All arrays are read-only.
    """
    log_grid = np.linspace(_GRID_LO, _GRID_HI, _GRID_N)
    a_grid = 10.0 ** log_grid
    targets, counts = _TARGET_MAX + 1, _RESIDUAL_MAX + 1
    success = np.empty((targets, _GRID_N, 2))
    points = np.empty((targets, 2, counts, _GRID_N))
    weights = np.empty((targets, _GRID_N, 2, counts))
    a_next = np.empty((2, counts, _GRID_N))
    for n in range(targets):
        gamma, _, c1n2, ratio, c1p2 = _displacement_step(a_grid, n)
        f2 = np.exp(-0.5 * gamma * gamma) ** 2
        np.multiply(f2, c1n2, out=success[n])
        np.multiply(f2[..., None], c1p2, out=weights[n])
        np.multiply(a_grid, np.abs(ratio).transpose(1, 2, 0), out=a_next)
        # only the residuals that exist (the skipped ones have weight 0),
        # by flat index into this target's weights, laid out as a_t
        a_t = a_next.transpose(2, 0, 1)
        i = np.flatnonzero((a_t < _A_LO) & (a_t > 0.0))
        weights[n].reshape(-1)[i] *= (a_t.ravel()[i] / _A_LO) ** 2
        # the floor puts skipped residuals (ratio 0, weight 0) at a finite
        # point; log10 runs on contiguous arrays, since numpy may take a
        # vectorized loop there and another one on strided arrays
        np.maximum(a_next, 1e-300, out=a_next)
        np.log10(a_next, out=points[n])
    out = (log_grid, success, points, weights)
    for array in out:
        array.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _chain_table(depth: int, include_swap: bool) -> tuple[np.ndarray, np.ndarray]:
    """Value of the best demodulation strategy as a function of log10|A|.

    Value iteration over the remaining displacement budget; the swap (when
    allowed) may be taken instead of any displacement since it burns the
    one-shot resource terminally.  Success probabilities depend on |A|
    only, so a log grid with linear interpolation is adequate for policy
    evaluation (the per-call demodulators stay exact).

    Depth 0 is the floor: the swap or nothing.  Depth d is one sweep of the
    cached depth d - 1 table through the shared :func:`_transition`, which
    does not depend on the value: interpolate the shallower value at every
    residual factor, sum over residuals, and maximize over roots, targets
    and the floor.  The shallower depths are fetched in ascending order, so
    each missing one is built on the one just cached and no call nests
    deeper than that, at any depth; every table stays cached (601 floats).

    The sweep runs one target at a time into a running maximum over
    targets and roots, started at the floor.  A target's slice of points
    and weights is 125 KB, small enough for the allocator to reuse the
    same memory target after target, where a sweep of all nine at once
    allocates 1.1 MB arrays that a fresh process must fault in page by
    page.  The values are read along the grid, as the points lie, and
    viewed back with the counts last; their product with the weights is
    written C-contiguous, since a strided product would be summed in a
    different pairwise order.  The maximum is exact in any order, so the
    tables are bitwise those of one sweep over all targets.

    An all-zero shallower table (the floor without the swap) is not read:
    every residual then adds exactly zero, and the sweep is the floor's
    maximum with the success weights alone.

    The returned arrays are shared by every cache hit and are read-only.
    A negative depth raises ValueError.
    """
    if depth < 0:
        raise ValueError(f"chain depth must be nonnegative, got {depth}")
    log_grid, success, points, weights = _transition()
    if depth == 0:
        a_grid = 10.0 ** log_grid
        value = q_swap(a_grid) if include_swap else np.zeros_like(a_grid)
    else:
        _, floor = _chain_table(0, include_swap)
        shallower = floor
        for d in range(1, depth):
            _, shallower = _chain_table(d, include_swap)
        if not shallower.any():
            value = np.maximum(floor, success.max(axis=(0, -1)))
        else:
            value = floor.copy()
            for n in range(len(points)):
                read = np.interp(points[n], log_grid, shallower).transpose(2, 0, 1)
                total = success[n] + np.sum(np.multiply(weights[n], read, order="C"), axis=-1)
                for root in total.T:
                    np.maximum(value, root, out=value)
    value.flags.writeable = False
    return log_grid, value


def _chain_value(a_factor, include_swap: bool, depth: int) -> np.ndarray:
    """Value-table entry at |a_factor| (scalar or array).  Below the grid
    every value falls like A^2, as each step's success weights do, so it
    is value[0] (A / A_lo)^2 there; zero factors get zero."""
    log_grid, value = _chain_table(depth, include_swap)
    a = np.abs(np.asarray(a_factor, dtype=float))
    with np.errstate(divide="ignore"):
        read = np.interp(np.log10(a), log_grid, value)
    return read * (np.minimum(a, _A_LO) / _A_LO) ** 2


def q_displacement_chain(a_factor, depth: int = 3):
    """Success of up to ``depth`` chained displacement attempts (no swap)."""
    return _float_or_array(_chain_value(a_factor, False, depth))


def q_best(a_factor, depth: int = 3):
    """Best of the swap and the chained displacement (swap allowed once,
    at any point of the chain)."""
    interpolated = _chain_value(a_factor, True, depth)
    # the immediate swap is always available exactly; the table only bounds
    # it to interpolation accuracy
    return _float_or_array(np.maximum(interpolated, q_swap(a_factor)))


# -- overall accounting --------------------------------------------------------

def _factor_classes(factor):
    """The masks ``(singular, clean, restorable)`` of ``factor``, by the one
    rule every tally reads (see the module docstring).  The pure-sign
    tolerance is no tighter since a root solved for A = -1 lands only near
    it: the (1, 2) operating point leaves A + 1 = -1.4e-12."""
    singular = np.isnan(factor)
    clean = np.abs(np.abs(factor) - 1.0) <= _SIGN_TOL
    return singular, clean, ~singular & ~clean & (factor != 0.0)


def _methods(factor, policy: str, depth: int):
    """The method and success ``q`` of every outcome of ``factor`` under
    ``policy``: "singular" and q = 0 at a singular factor, "clean" and q = 1
    at a pure sign unless the policy is "skip", else the policy's route with
    ``depth`` chained displacements ("best" labelled by the route that
    attains it), its success computed on those entries alone."""
    singular, clean, _ = _factor_classes(factor)
    clean &= policy != "skip"
    route = ~singular & ~clean
    method = np.full(factor.shape, policy, dtype="<U12")
    method[singular], method[clean] = "singular", "clean"
    q = np.where(clean, 1.0, 0.0)
    f = factor[route]
    if policy == "swap":
        q[route] = q_swap(f)
    elif policy == "displacement" and f.size:
        q[route] = q_displacement_chain(f, depth)
    elif policy == "best" and f.size:
        q[route] = q_best(f, depth)
        method[route] = np.where(q_swap(f) >= q[route], "swap", "displacement")
    return method, q


def overall_success_report(l: int, k: int, alpha: float, policy="best",
                           chain_depth: int = 3, n_cut: int = 20):
    """Direct mass plus demodulated additions, itemized per outcome.

    ``policy`` names the method for the amplitude-modulated outcomes, one
    of "best", "swap", "displacement" and "skip" (anything else raises
    ValueError before any table is built); :func:`_methods` assigns each
    outcome its method and success.  Returns ``(total, rows)`` where each
    row is (n, m, factor, method, q, weight, contribution); singular
    outcomes appear with method "singular" and zero contribution.
    """
    if policy not in _POLICIES:
        raise ValueError(f"unknown demodulation method {policy!r}")
    _nonnegative(l, k)
    table = matrix_element_table(max(l, k), n_cut, alpha)
    n, m = np.nonzero(~np.eye(n_cut + 1, dtype=bool))
    factor = amp_factor_grid(l, k, table)[n, m]
    weight = ((overall_factor(alpha) ** 4 * table.c[l] ** 2)[:, None]
              * table.c[k] ** 2)[n, m]
    method, q = _methods(factor, policy, chain_depth)
    contribution = weight * q
    rows = list(zip(n.tolist(), m.tolist(), factor.tolist(), method.tolist(),
                    q.tolist(), weight.tolist(), contribution.tolist()))
    total = _direct_mass(l, k, table) + float(contribution.sum())
    return total, rows


def overall_success(l: int, k: int, alpha: float, policy="best",
                    chain_depth: int = 3, n_cut: int = 20) -> float:
    total, _ = overall_success_report(l, k, alpha, policy, chain_depth, n_cut)
    return total


def _f_column(table: MatrixElementTable, p: int):
    """F^p per amplitude of ``table``, on a last axis over its counts."""
    return np.asarray(_per_entry(pow, table.f, p))[..., None]


def _row_sums(values: np.ndarray, mask: np.ndarray):
    """np.sum of the entries ``mask`` selects on the last axis, row by row:
    zeroing the rest of each row instead would pair the terms differently."""
    rows = zip(values.reshape(-1, values.shape[-1]), mask.reshape(-1, mask.shape[-1]))
    return _float_or_array(np.reshape([np.sum(v[m]) for v, m in rows], mask.shape[:-1]))


def single_rail_demod_additions(l: int, k: int, alpha, n_cut: int = 20) -> dict:
    """Demodulated additions for the single-rail variant as curve data:
    the swap route, a single displacement attempt, and the chained
    displacement (depth 3), plus whatever mass is already factor-free.
    Each is a float for a float ``alpha``, else one value per amplitude."""
    _nonnegative(l, k)
    return _single_rail_additions(l, k, matrix_element_table(max(l, k), n_cut, alpha))


def _single_rail_additions(l: int, k: int, table: MatrixElementTable) -> dict:
    weight = _f_column(table, 2) * table.c[l] ** 2
    factor = _factor_row(l, k, table)
    _, clean, demod = _factor_classes(factor)
    w, f = weight[demod], factor[demod]
    routes = np.zeros((3,) + factor.shape)
    routes[:, demod] = w * q_swap(f), w * q_displacement_chain(f, 1), w * q_displacement_chain(f)
    swap, first, chain = (_row_sums(route, demod) for route in routes)
    return {"clean": _row_sums(weight, clean), "swap": swap,
            "displacement_first": first, "displacement_chain": chain}


# -- protocols with pre-modulated inputs ---------------------------------------

class _Outcomes(NamedTuple):
    """Outcome arrays of a pre-modulated protocol, per alpha of a table:
    ``a_ref`` per alpha, the rest with an outcome axis last.

    None of them depends on the input qubit: its weight ``base`` enters
    only through the contributions weight * base * g, and its amplitudes
    only through the count probabilities f (|a0|^2 p0 + |a1|^2 p1).  ``g``
    is zero at singular outcomes, whose weight vanishes with them.
    ``counts`` are the leading record columns.
    """

    a_ref: float | np.ndarray
    counts: tuple
    f: np.ndarray
    p0: np.ndarray
    p1: np.ndarray
    phi: np.ndarray
    weight: np.ndarray
    method: np.ndarray
    g: np.ndarray


def _nonzero_reference(a_ref, alpha):
    """The (0, 1) reference factor per alpha.  Raises SingularFactorError
    at the first alpha where it is undefined (c(1, 1) = 0) or vanishes
    (alpha = 0): nothing is left to pre-modulate against."""
    bad = np.flatnonzero(~(np.abs(a_ref) > 0.0))
    if bad.size:
        raise SingularFactorError(f"the reference amplitude factor is {np.ravel(a_ref)[bad[0]]} "
                                  f"at alpha={np.ravel(alpha)[bad[0]]}")
    return _float_or_array(a_ref)


def _dual_rows(table: MatrixElementTable) -> np.ndarray:
    """The rows c(0, .) and c(1, .) of ``table``.  Raises
    MeasurementRangeError on a table cut at count 0: the pre-modulated
    dual-rail protocol reads the (0, 1) factor."""
    if table.c.shape[-1] < 2:
        raise MeasurementRangeError(
            "the pre-modulated dual-rail protocol reads count 1, above the cutoff 0")
    return table.c


def _dual_outcomes(table: MatrixElementTable) -> _Outcomes:
    """Dual-rail counts (n, m) with n + m <= the table's cutoff: the
    relative factor phi left after pre-modulating against the (0, 1) factor
    is swapped away."""
    c0, c1 = _dual_rows(table)
    grid = amp_factor_grid(0, 1, table)
    a_ref = _nonzero_reference(grid[..., 0, 1], table.alpha)
    f4 = _f_column(table, 4)
    counts = np.arange(c0.shape[-1])
    n, m = np.nonzero(counts[:, None] + counts < len(counts))
    # phi of ~1e200 overflows to inf where alpha^2 is tiny; q_swap takes it
    with np.errstate(over="ignore"):
        phi = grid[..., n, m] / np.asarray(a_ref)[..., None]
    return _Outcomes(
        a_ref, (n, m), f4, (c0[..., n] * c1[..., m]) ** 2, (c1[..., n] * c0[..., m]) ** 2,
        phi, f4 * c0[..., n] ** 2 * c1[..., m] ** 2, *_methods(phi, "swap", 0))


def _single_outcomes(table: MatrixElementTable) -> _Outcomes:
    """Single-rail counts n up to the table's cutoff: the vacuum count is
    factor-free and every other relative factor phi is demodulated by up to
    three chained displacements."""
    c0, c1 = table.c
    row = _factor_row(0, 1, table)
    a_ref = _nonzero_reference(row[..., 0], table.alpha)  # equals -alpha
    f2 = _f_column(table, 2)
    # phi overflows to inf where alpha is tiny; its outcome weighs 0 there
    with np.errstate(over="ignore"):
        phi = row / np.asarray(a_ref)[..., None]
    return _Outcomes(a_ref, (np.arange(c0.shape[-1]),), f2, c0 ** 2, c1 ** 2, phi,
                     f2 * c0 ** 2, *_methods(phi, "displacement", 3))


_OUTCOMES = {"dual": _dual_outcomes, "single": _single_outcomes}


def _input_weight(w0, w1, a_ref):
    """|a0|^2 + |a1|^2 a_ref^2, the weight of a normalized pre-modulated
    input with |a0|^2 = w0 and |a1|^2 = w1: floats, or arrays broadcast
    against the axes of ``a_ref``."""
    return w0 + w1 * _per_entry(pow, a_ref, 2)


def _initially_am(rail: str, a0: complex, a1: complex, alpha: float, n_cut: int):
    o = _OUTCOMES[rail](matrix_element_table(1, n_cut, alpha))
    w0, w1 = (abs(a) ** 2 for a in _unit_pair(a0, a1))
    prob = o.f * (w0 * o.p0 + w1 * o.p1)
    contribution = o.weight * _input_weight(w0, w1, o.a_ref) * o.g
    rows = list(zip(*(c.tolist() for c in o.counts), prob.tolist(), o.phi.tolist(),
                    o.method.tolist(), contribution.tolist()))
    return rows, float(contribution.sum())


def initially_am_dual(a0: complex, a1: complex, alpha: float, n_cut: int = 20):
    """Teleport a dual-rail qubit that was pre-modulated so the dominant
    count pattern (0, 1) delivers its unmodulated original.

    ``a0, a1`` are the amplitudes of the state actually handed to the
    sender; the original recovered on success is normalize(a0, a1 * A)
    with A the (0, 1) amplitude factor.  Every other outcome leaves a
    relative factor that is swapped away (one-shot).  Returns
    ``(records, total)`` with rows (n, m, probability, relative_factor,
    method, contribution).
    """
    return _initially_am("dual", a0, a1, alpha, n_cut)


def _check_a1_abs(*a1_abs) -> None:
    """Refuse an original |a1| outside [0, 1], or NaN: no normalized input
    (sqrt(1 - |a1|^2), |a1|) has it."""
    for x in a1_abs:
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"|a1| must lie in [0, 1], got {x}")


def initially_am_dual_total_reference(a1_original_abs: float, alpha: float,
                                      n_cut: int = 20,
                                      fourth_term: str = "first_principles") -> float:
    """Closed-form total of the pre-modulated dual-rail protocol,
    parametrized by the original (pre-modulation) |a1|, which must lie in
    [0, 1] (ValueError otherwise).

    Since c(1, n) = c(0, n) (n - alpha^2) / alpha, counts (n, m) carry the
    factor A(n, m) = (n - alpha^2) / (m - alpha^2) (none where m = alpha^2);
    the prepared reference A(0, 1) vanishes at alpha = 0 and diverges at
    alpha^2 = 1, where SingularFactorError is raised.

    ``fourth_term`` selects the exponent convention on the generic
    off-diagonal line: "first_principles" composes the prepared inverse
    factor with the outcome factor; "as_printed" keeps the inverted
    exponent appearing in the published closed form (the two disagree, so
    the verification suite reports both).
    """
    if fourth_term not in ("first_principles", "as_printed"):
        raise ValueError(f"unknown fourth_term variant {fourth_term!r}")
    _check_a1_abs(a1_original_abs)
    x = alpha * alpha
    if x == 0.0 or x == 1.0:
        raise SingularFactorError(f"the reference factor is singular at alpha={alpha}")
    c0, c1 = _dual_rows(matrix_element_table(1, n_cut, alpha))
    f4 = overall_factor(alpha) ** 4
    a01 = -x / (1.0 - x)
    a10 = 1.0 / a01
    n_am2 = 1.0 / (1.0 + (a01 ** -2 - 1.0) * a1_original_abs ** 2)
    total = c0[0] ** 2 * c1[1] ** 2
    total += c0[1] ** 2 * c1[0] ** 2 * q_swap(a10 ** 2)
    total += q_swap(a10) * float(np.sum(c0 ** 2 * c1 ** 2))
    # the generic line: n != m and 1 < n + m <= n_cut ((0, 1), (1, 0) are above)
    n, m = np.indices((n_cut + 1, n_cut + 1))
    on = (n != m) & (n + m > 1) & (n + m <= n_cut) & (m != x)
    a_nm = (n[on] - x) / (m[on] - x)
    phi = a10 * a_nm if fourth_term == "first_principles" else a_nm / a10
    total += float(np.sum(c0[n[on]] ** 2 * c1[m[on]] ** 2 * q_swap(phi)))
    return f4 * n_am2 * total


def initially_am_single(a0: complex, a1: complex, alpha: float, n_cut: int = 20):
    """Single-rail analogue of :func:`initially_am_dual`: the vacuum count
    is factor-free and every other count is demodulated by up to three
    chained displacements.  Returns ``(records, total)``."""
    return _initially_am("single", a0, a1, alpha, n_cut)


def initially_am_totals(rail: str, a1_abs, alpha, n_cut: int = 20):
    """Totals of the pre-modulated ``rail`` ("dual" or "single") protocol
    for every |a1| in ``a1_abs``, handed over as (sqrt(1 - |a1|^2), |a1|),
    at a float ``alpha`` or at every amplitude of an array.  An |a1|
    outside [0, 1], or NaN, raises ValueError.

    Returns ``(totals, clean_sums)``, each shaped like ``alpha`` with an
    |a1| axis last: exactly the total of :func:`initially_am_dual` /
    :func:`initially_am_single` and the sum of its "clean" contributions,
    from one evaluation of the outcomes.
    """
    if rail not in _OUTCOMES:
        raise ValueError(f"rail must be 'dual' or 'single', got {rail!r}")
    return _am_totals(rail, a1_abs, matrix_element_table(1, n_cut, alpha))


def _am_totals(rail: str, a1_abs, table: MatrixElementTable):
    _check_a1_abs(*a1_abs)
    o = _OUTCOMES[rail](table)
    # each input's |a0|^2 and |a1|^2 on a leading |a1| axis, as one input
    # squares them
    pairs = [_unit_pair(math.sqrt(1.0 - x * x), x) for x in a1_abs]
    w0, w1 = (np.array([abs(pair[i]) ** 2 for pair in pairs], dtype=float)
              .reshape((-1,) + (1,) * np.ndim(o.a_ref)) for i in (0, 1))
    base = _input_weight(w0, w1, o.a_ref)[..., None]
    # the outcome axis made contiguous, as it is at one alpha: numpy pairs
    # the terms of a strided sum differently
    contribution = np.ascontiguousarray(o.weight * base * o.g)
    # summed column by column from zero, as a Python sum of the clean columns
    clean = np.cumsum(np.where(o.method == "clean", contribution, 0.0), axis=-1)[..., -1]
    return (np.moveaxis(contribution.sum(axis=-1), 0, -1), np.moveaxis(clean, 0, -1))
