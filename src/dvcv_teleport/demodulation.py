"""Removing the known amplitude factor from a delivered qubit.

Two probabilistic routes exist.  Displacing an auxiliary mode and counting
photons removes the factor whenever the displacement amplitude solves

    A * c(0, n, gamma) / c(1, n, gamma) = +-1,

a quadratic in gamma since the coefficient ratio is gamma / (n - gamma^2);
failed counts leave fresh amplitude-modulated states, so the procedure can
be chained.  Swapping with a prearranged partner through a balanced
splitter works once, with success A^2 / (1 + A^2).

Reported success probabilities follow the composition convention in which
the conditional-state normalizer cancels against the outcome weight
F^4 |c c|^2, so overall accounting is a plain weighted sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .displaced import matrix_element_rows, matrix_element_table, overall_factor
from .fock import QubitState
from .protocol import (
    DUAL_RAIL_BASIS,
    SingularFactorError,
    amp_factor_dual,
    amp_factor_grid,
    amp_factor_single,
    direct_success_probability,
)

_CLEAN_TOL = 1e-12
_ROOT_TOL = 1e-10
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
    basis: tuple[str, str] = DUAL_RAIL_BASIS

    def __post_init__(self):
        n = math.sqrt(abs(self.a0) ** 2 + abs(self.a1) ** 2)
        if n == 0.0:
            raise ValueError("qubit has zero norm")
        if not math.isfinite(self.factor):
            raise ValueError("amplitude factor must be finite")
        object.__setattr__(self, "a0", complex(self.a0) / n)
        object.__setattr__(self, "a1", complex(self.a1) / n)
        object.__setattr__(self, "basis", tuple(self.basis))

    def physical_amplitudes(self) -> np.ndarray:
        """Normalized (a0, a1 * factor)."""
        v = np.array([self.a0, self.a1 * self.factor], dtype=complex)
        return v / np.linalg.norm(v)

    def norm_weight(self) -> float:
        """(|a0|^2 + |a1 * factor|^2)^(-1/2)."""
        return float(np.linalg.norm(np.array([self.a0, self.a1 * self.factor]))) ** -1.0


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
    method: str
    gamma: float | None
    residual_factor: float
    sign: int = 0
    residuals: tuple = ()


def q_swap(a_factor) -> float:
    """Swap success A^2 / (1 + A^2): near one for strong factors, tiny for
    weak ones."""
    a2 = np.asarray(a_factor, dtype=float) ** 2
    out = a2 / (1.0 + a2)
    return float(out) if out.ndim == 0 else out


def solve_gamma(a_factor: float, n: int, gamma_max: float = _GAMMA_MAX) -> list[float]:
    """All real displacement amplitudes in [-gamma_max, gamma_max] that
    remove the factor ``a_factor`` on auxiliary count ``n``.

    The coefficient ratio is gamma / (n - gamma^2), so each sign choice is
    the quadratic gamma^2 +- A gamma - n = 0; negative discriminants (never
    for n >= 1) and the spurious root gamma = 0 are discarded.
    """
    if a_factor == 0.0:
        raise ValueError("amplitude factor must be nonzero")
    if n < 0:
        raise ValueError("count must be nonnegative")
    disc = a_factor * a_factor + 4.0 * n
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    candidates = {
        0.5 * (-a_factor + root), 0.5 * (-a_factor - root),
        0.5 * (a_factor + root), 0.5 * (a_factor - root),
    }
    out = []
    for g in candidates:
        if g == 0.0 or abs(g) > gamma_max:
            continue
        denom = n - g * g
        if denom == 0.0:
            continue
        if abs(abs(a_factor * g / denom) - 1.0) <= _ROOT_TOL:
            out.append(g)
    return sorted(out)


def _step_q(gamma: float, n: int) -> float:
    """Success weight of one displacement attempt aimed at count n."""
    c1n = matrix_element_rows(1, n, gamma)[1, n]
    return overall_factor(gamma) ** 2 * c1n ** 2


def demod_displacement(am: AMQubit, n: int, gamma: float | None = None,
                       residual_max: int = _RESIDUAL_MAX,
                       gamma_max: float = _GAMMA_MAX) -> DemodResult:
    """Displacement-route demodulation aimed at auxiliary count ``n``.

    Among the admissible displacement amplitudes the one with the largest
    success weight is used (or pass ``gamma`` explicitly).  Branches with a
    vanishing weight (the restorable component is gone) are not listed as
    residuals: they can never contribute.
    """
    if gamma is None:
        roots = solve_gamma(am.factor, n, gamma_max)
        if not roots:
            return DemodResult(None, 0.0, "displacement", None, am.factor)
        gamma = max(roots, key=lambda g: (_step_q(g, n), g))
    rows = matrix_element_rows(1, max(n, residual_max), gamma)
    f2 = overall_factor(gamma) ** 2
    ratio = gamma / (n - gamma * gamma)
    sign = 1 if am.factor * ratio > 0 else -1
    restored = QubitState(am.a0, sign * am.a1, am.basis)
    residuals = []
    for p in range(residual_max + 1):
        if p == n or rows[1, p] == 0.0:
            continue
        weight = f2 * rows[1, p] ** 2
        new_factor = am.factor * rows[0, p] / rows[1, p]
        residuals.append((p, weight, AMQubit(am.a0, am.a1, new_factor, am.basis)))
    return DemodResult(
        restored=restored,
        success_probability=f2 * rows[1, n] ** 2,
        method="displacement",
        gamma=gamma,
        residual_factor=1.0,
        sign=sign,
        residuals=tuple(residuals),
    )


def demod_swap(am: AMQubit) -> DemodResult:
    """One-shot swap demodulation with a prearranged partner state.

    Both heralding patterns restore the qubit (one needs a known Z, folded
    in here); the procedure cannot be repeated on failure.
    """
    if am.factor == 0.0:
        raise ValueError("amplitude factor must be nonzero")
    return DemodResult(
        restored=QubitState(am.a0, am.a1, am.basis),
        success_probability=q_swap(am.factor),
        method="swap",
        gamma=None,
        residual_factor=1.0,
        sign=1,
    )


# -- chained-displacement value tables ----------------------------------------

_GRID_LO, _GRID_HI, _GRID_N = -6.0, 6.0, 601


@lru_cache(maxsize=32)
def _chain_table(depth: int, include_swap: bool) -> tuple[np.ndarray, np.ndarray]:
    """Value of the best demodulation strategy as a function of log10|A|.

    Value iteration over the remaining displacement budget; the swap (when
    allowed) may be taken instead of any displacement since it burns the
    one-shot resource terminally.  Success probabilities depend on |A|
    only, so a log grid with linear interpolation is adequate for policy
    evaluation (the per-call demodulators stay exact).

    The transition does not depend on the value, so it is built once, one
    slice per target count n <= _TARGET_MAX.  At each grid point A the
    roots gamma = (sqrt(A^2 + 4n) -+ A) / 2 (dropped when zero or beyond
    _GAMMA_MAX) succeed with weight F^2 c(1, n)^2 and leave, on each other
    count p <= _RESIDUAL_MAX with c(1, p) != 0, weight F^2 c(1, p)^2 on
    the factor A |c(0, p) / c(1, p)|.  A sweep interpolates the value at those
    factors, sums over residuals and maximizes over roots, targets and
    the swap.  The returned arrays are shared by every cache hit and are
    read-only.
    """
    log_grid = np.linspace(_GRID_LO, _GRID_HI, _GRID_N)
    a_grid = 10.0 ** log_grid
    value = q_swap(a_grid) if include_swap else np.zeros_like(a_grid)
    residual = np.arange(_RESIDUAL_MAX + 1)
    slices = []
    for n in range(_TARGET_MAX + 1):
        root = np.sqrt(a_grid * a_grid + 4.0 * n)
        gamma = 0.5 * np.stack((root - a_grid, root + a_grid), axis=-1)
        usable = (gamma != 0.0) & (gamma <= _GAMMA_MAX)
        c0, c1 = np.moveaxis(matrix_element_rows(1, _RESIDUAL_MAX, gamma), 1, -1)
        f2 = np.exp(-0.5 * gamma * gamma) ** 2
        success = np.where(usable, f2 * c1[..., n] ** 2, 0.0)
        kept = usable[..., None] & (residual != n) & (c1 != 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            a_next = a_grid[:, None, None] * np.abs(c0 / c1)
        # skipped entries get weight 0 at a finite point: the NaN of a 0/0
        # ratio would survive the zero weight
        points = np.where(kept, np.log10(np.maximum(a_next, 1e-300)), _GRID_LO)
        weights = np.where(kept, f2[..., None] * c1 ** 2, 0.0)
        slices.append((success, points, weights))
    floor = value
    for _ in range(depth):
        best = floor
        for success, points, weights in slices:
            cont = np.interp(points, log_grid, value)
            total = success + np.sum(weights * cont, axis=-1)
            best = np.maximum(best, total.max(axis=-1))
        value = best
    log_grid.flags.writeable = False
    value.flags.writeable = False
    return log_grid, value


def _chain_value(a_factor, include_swap: bool, depth: int) -> np.ndarray:
    """Value-table entry at |a_factor| (scalar or array); zero factors get zero."""
    log_grid, value = _chain_table(depth, include_swap)
    a = np.abs(np.asarray(a_factor, dtype=float))
    with np.errstate(divide="ignore"):
        return np.where(a == 0.0, 0.0, np.interp(np.log10(a), log_grid, value))


def q_displacement_chain(a_factor, depth: int = 3):
    """Success of up to ``depth`` chained displacement attempts (no swap)."""
    out = _chain_value(a_factor, False, depth)
    return float(out) if out.ndim == 0 else out


def q_best(a_factor, depth: int = 3):
    """Best of the swap and the chained displacement (swap allowed once,
    at any point of the chain)."""
    interpolated = _chain_value(a_factor, True, depth)
    # the immediate swap is always available exactly; the table only bounds
    # it to interpolation accuracy
    out = np.maximum(interpolated, q_swap(a_factor))
    return float(out) if out.ndim == 0 else out


# -- overall accounting --------------------------------------------------------

def overall_success_report(l: int, k: int, alpha: float, policy="best",
                           chain_depth: int = 3, n_cut: int = 20,
                           clean_tolerance: float = 1e-9):
    """Direct mass plus demodulated additions, itemized per outcome.

    ``policy`` assigns a method to each amplitude-modulated outcome:
    one of "best", "swap", "displacement", "skip", or a callable
    (n, m, factor) -> method.  A factor within ``clean_tolerance`` of +-1
    is a pure sign, undone by the known Z correction: unless the outcome
    is skipped it counts as a clean delivery (q = 1, method "clean") with
    no probabilistic step.  Returns ``(total, rows)`` where each row is
    (n, m, factor, method, q, weight, contribution); singular outcomes
    appear with method "singular" and zero contribution.
    """
    table = matrix_element_table(max(l, k), n_cut, alpha)
    n, m = np.nonzero(~np.eye(n_cut + 1, dtype=bool))
    factor = amp_factor_grid(l, k, table)[n, m]
    weight = ((overall_factor(alpha) ** 4 * table.c[l] ** 2)[:, None]
              * table.c[k] ** 2)[n, m]
    ok = ~np.isnan(factor)
    method = np.full(factor.shape, "singular", dtype=object)
    method[ok] = ([policy(*o) for o in zip(n[ok].tolist(), m[ok].tolist(),
                                           factor[ok].tolist())]
                  if callable(policy) else policy)
    clean = ok & (method != "skip") & (np.abs(np.abs(factor) - 1.0) <= clean_tolerance)
    unknown = [x for x in method[ok & ~clean].tolist() if x not in _POLICIES]
    if unknown:
        raise ValueError(f"unknown demodulation method {unknown[0]!r}")
    method[clean] = "clean"
    q = np.where(clean, 1.0, 0.0)
    swap, disp, best = (method == "swap"), (method == "displacement"), (method == "best")
    q[swap] = q_swap(factor[swap])
    if disp.any():
        q[disp] = q_displacement_chain(factor[disp], chain_depth)
    if best.any():
        q_s, q_c = q_swap(factor[best]), q_best(factor[best], chain_depth)
        q[best] = np.where(q_s >= q_c, q_s, q_c)
        method[best] = np.where(q_s >= q_c, "swap", "displacement")
    contribution = weight * q
    rows = list(zip(n.tolist(), m.tolist(), factor.tolist(), method.tolist(),
                    q.tolist(), weight.tolist(), contribution.tolist()))
    total = direct_success_probability(l, k, alpha, n_cut) + float(contribution.sum())
    return total, rows


def overall_success(l: int, k: int, alpha: float, policy="best",
                    chain_depth: int = 3, n_cut: int = 20,
                    clean_tolerance: float = 1e-9) -> float:
    total, _ = overall_success_report(l, k, alpha, policy, chain_depth, n_cut,
                                      clean_tolerance)
    return total


def single_rail_demod_additions(l: int, k: int, alpha: float, n_cut: int = 20,
                                chain_depth: int = 3) -> dict:
    """Demodulated additions for the single-rail variant as curve data:
    the swap route, a single displacement attempt, and the chained
    displacement, plus whatever mass is already factor-free."""
    table = matrix_element_table(max(l, k), n_cut, alpha)
    weight = overall_factor(alpha) ** 2 * table.c[l] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = table.c[k] / table.c[l]
    defined = table.c[l] != 0.0
    clean = defined & (np.abs(np.abs(factor) - 1.0) <= _CLEAN_TOL)
    demod = defined & ~clean & (factor != 0.0)
    w, f = weight[demod], factor[demod]
    return {"clean": float(weight[clean].sum()),
            "swap": float(np.sum(w * q_swap(f))),
            "displacement_first": float(np.sum(w * q_displacement_chain(f, 1))),
            "displacement_chain": float(np.sum(w * q_displacement_chain(f, chain_depth)))}


# -- protocols with pre-modulated inputs ---------------------------------------

def _premodulated(a0: complex, a1: complex, a_ref: float):
    """Normalized (a0, a1) of a pre-modulated input and its weight
    |a0|^2 + |a1 * a_ref|^2; a vanishing reference factor (alpha = 0)
    leaves nothing to pre-modulate against."""
    if a_ref == 0.0:
        raise SingularFactorError("the reference amplitude factor vanishes")
    nrm = math.sqrt(abs(a0) ** 2 + abs(a1) ** 2)
    a0, a1 = complex(a0) / nrm, complex(a1) / nrm
    return a0, a1, abs(a0) ** 2 + abs(a1) ** 2 * a_ref ** 2


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
    a_ref = amp_factor_dual(0, 1, 0, 1, alpha)
    a0, a1, base = _premodulated(a0, a1, a_ref)
    table = matrix_element_table(1, n_cut, alpha)
    c0, c1 = table.c
    f4 = overall_factor(alpha) ** 4
    counts = np.arange(n_cut + 1)
    n, m = np.nonzero(counts[:, None] + counts <= n_cut)
    weight = f4 * c0[n] ** 2 * c1[m] ** 2
    prob = f4 * (abs(a0) ** 2 * (c0[n] * c1[m]) ** 2
                 + abs(a1) ** 2 * (c1[n] * c0[m]) ** 2)
    phi = amp_factor_grid(0, 1, table)[n, m] / a_ref
    singular = np.isnan(phi)
    clean = np.abs(np.abs(phi) - 1.0) <= _CLEAN_TOL
    g = np.where(clean, 1.0, q_swap(phi))
    contribution = np.where(singular, 0.0, weight * base * g)
    method = np.where(singular, "singular", np.where(clean, "clean", "swap"))
    rows = list(zip(n.tolist(), m.tolist(), prob.tolist(), phi.tolist(),
                    method.tolist(), contribution.tolist()))
    return rows, float(contribution.sum())


def initially_am_dual_total_reference(a1_original_abs: float, alpha: float,
                                      n_cut: int = 20,
                                      fourth_term: str = "first_principles") -> float:
    """Closed-form total of the pre-modulated dual-rail protocol,
    parametrized by the original (pre-modulation) |a1|.

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
    x = alpha * alpha
    if x == 0.0 or x == 1.0:
        raise SingularFactorError(f"the reference factor is singular at alpha={alpha}")
    c0, c1 = matrix_element_table(1, n_cut, alpha).c
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


def initially_am_single(a0: complex, a1: complex, alpha: float, n_cut: int = 20,
                        chain_depth: int = 3):
    """Single-rail analogue of :func:`initially_am_dual`: the vacuum count
    is factor-free and every other count is demodulated by chained
    displacements.  Returns ``(records, total)``."""
    a_ref = amp_factor_single(0, 1, 0, alpha)  # equals -alpha
    a0, a1, base = _premodulated(a0, a1, a_ref)
    table = matrix_element_table(1, n_cut, alpha)
    c0, c1 = table.c
    f2 = overall_factor(alpha) ** 2
    weight = f2 * c0 ** 2
    prob = f2 * (abs(a0) ** 2 * c0 ** 2 + abs(a1) ** 2 * c1 ** 2)
    phi = c1 / c0 / a_ref
    clean = np.abs(np.abs(phi) - 1.0) <= _CLEAN_TOL
    demod = ~clean & (phi != 0.0)
    g = np.where(clean, 1.0, 0.0)
    g[demod] = q_displacement_chain(phi[demod], chain_depth)
    contribution = weight * base * g
    method = np.where(clean, "clean", np.where(demod, "displacement", "skip"))
    rows = list(zip(range(n_cut + 1), prob.tolist(), phi.tolist(),
                    method.tolist(), contribution.tolist()))
    return rows, float(contribution.sum())
