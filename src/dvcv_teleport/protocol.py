"""Teleportation of a two-component Fock superposition through the hybrid
channel.

Two routes are provided.  The analytic route evaluates the closed-form
conditional states and outcome probabilities of the ideal (vanishing
reflectance) limit.  The brute-force route builds the actual optical
circuit at finite reflectance on truncated grids and serves as the
convergence oracle for the analytic one: the four-term expansion of the
input product state factorizes over the mode pairs carrying each beam
splitter, so no full six-mode tensor is ever materialized.

The teleported qubit is its amplitudes and its counts,
``UnknownQubit(a0, a1, l=0, k=1)`` with l - k odd; each pipeline fixes
the rail by its name.  ``dual_rail_records`` and the circuit teleport
a0|lk> + a1|kl>, ``single_rail_pipeline`` a0|l> + a1|k>.  The receiver's
states are ``QubitState(c0, c1)`` on its (|01>, |10>) modes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .displaced import (
    MatrixElementTable,
    _float_or_array,
    _per_entry,
    coherent_state,
    default_cutoff,
    matrix_element_table,
    overall_factor,
)
from .fock import QubitState, _unit_pair, _unit_pairs
from .optics import _HTBS_R_MAX, BeamSplitterParams, check_split_size, split_amplitudes

_PARITIES = ("even", "odd")

#: carrier levels below the first one with |c_n|^2 above this hold no
#: amplitude at double precision (|c_n| < eps); the circuit skips them
_CARRIER_FLOOR = np.finfo(float).eps ** 2

#: logical gates on the dual-rail basis (|01>, |10>) == (|0>_L, |1>_L), and
#: the two powers Z^0, Z^1 a correction word can hold
Z_GATE = np.array([[1.0, 0.0], [0.0, -1.0]])
H_GATE = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
Z_POWERS = np.stack([np.linalg.matrix_power(Z_GATE, p) for p in (0, 1)])


class SingularFactorError(ValueError):
    """A vanishing decomposition coefficient makes the amplitude factor
    undefined; the outcome is non-demodulatable."""


@dataclass(frozen=True)
class UnknownQubit:
    """The state to teleport: a0|lk> + a1|kl> on the dual-rail pipelines,
    a0|l> + a1|k> on the single-rail one.  The conditional sign structure
    of the protocol needs l - k odd; the rail is the pipeline's."""

    a0: complex
    a1: complex
    l: int = 0
    k: int = 1

    def __post_init__(self):
        if self.l < 0 or self.k < 0 or self.l == self.k:
            raise ValueError("need distinct nonnegative photon numbers l != k")
        if (self.l - self.k) % 2 == 0:
            raise ValueError("l - k must be odd for the conditional-sign teleportation")
        a0, a1 = _unit_pair(self.a0, self.a1)
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "l", int(self.l))
        object.__setattr__(self, "k", int(self.k))


@dataclass(frozen=True)
class Outcome:
    """One measurement record: the parity found on the coherent mode plus
    the photon counts in the auxiliary mode(s); ``m`` is absent for the
    single-rail variant."""

    parity: str
    n: int
    m: int | None = None

    def __post_init__(self):
        if self.parity not in _PARITIES:
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        if self.n < 0 or (self.m is not None and self.m < 0):
            raise ValueError("photon counts must be nonnegative")

    @classmethod
    def _checked(cls, parity: str, n: int, m: int | None) -> Outcome:
        """An outcome whose parity and counts the caller took from its own
        grids, so they are not checked again: the fields go straight into
        the frozen instance's ``__dict__``."""
        outcome = object.__new__(cls)
        fields = outcome.__dict__
        fields["parity"], fields["n"], fields["m"] = parity, n, m
        return outcome


@dataclass(frozen=True)
class TeleportRecord:
    """Receiver-side result for one outcome: the conditional state, its
    probability, the known amplitude factor picked up by a1, and the
    correction word undoing the conditional signs."""

    outcome: Outcome
    bob_state: QubitState
    probability: float
    amp_factor: float
    z_power: int
    corrected_state: QubitState

    @classmethod
    def _of(cls, outcome, bob_state, probability, amp_factor, z_power,
            corrected_state) -> TeleportRecord:
        """The record of these fields, written straight into the frozen
        instance's ``__dict__``: six dict writes cost less than the six
        ``object.__setattr__`` calls of the generated ``__init__``."""
        record = object.__new__(cls)
        fields = record.__dict__
        fields["outcome"], fields["bob_state"], fields["probability"] = (
            outcome, bob_state, probability)
        fields["amp_factor"], fields["z_power"], fields["corrected_state"] = (
            amp_factor, z_power, corrected_state)
        return record


@dataclass(frozen=True)
class BruteForceRecord:
    """Receiver-side result for one outcome of the finite-reflectance
    circuit.  The conditional state is mixed at finite r, so it is kept
    whole: ``rho`` is its 2x2 density matrix on the dual-rail basis,
    ``corrected_rho`` that matrix after the correction word, and
    ``purity`` tr(rho^2), which tends to one as r -> 0."""

    outcome: Outcome
    probability: float
    rho: np.ndarray
    corrected_rho: np.ndarray
    purity: float


# -- amplitude factors -------------------------------------------------------

def _nonnegative(*counts: int) -> None:
    """Refuse a negative row or count before it sizes or indexes a table,
    where numpy would read it from the table's far end."""
    if min(counts) < 0:
        raise ValueError("rows and photon counts must be nonnegative")


def amp_factor_grid(l: int, k: int, table: MatrixElementTable) -> np.ndarray:
    """:func:`amp_factor_dual` for every count pair (n, m) of ``table`` at
    once, on its last two axes.  Singular outcomes hold NaN; equal counts
    hold exactly one; a ratio past the largest float (at tiny alpha) is
    +-inf."""
    cl, ck = table.c[l], table.c[k]
    num = ck[..., :, None] * cl[..., None, :]
    den = cl[..., :, None] * ck[..., None, :]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        grid = np.where(den == 0.0, np.nan, num / den)
    diagonal = np.arange(grid.shape[-1])
    grid[..., diagonal, diagonal] = 1.0
    return grid


def _factor_row(l: int, k: int, table: MatrixElementTable) -> np.ndarray:
    """Single-rail factor c(k,n)/c(l,n) for every count n of ``table`` at
    once, as :func:`single_rail_pipeline` reads it; NaN where c(l, n)
    vanishes, inf where the ratio overflows (for (0, 1) it is
    (n - alpha^2) / alpha, past the largest float at subnormal alpha)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(table.c[l] == 0.0, np.nan, table.c[k] / table.c[l])


def _factor_at(factors: np.ndarray, index, l: int, k: int, alpha: float) -> float:
    """Entry ``index`` at ``alpha`` of an :func:`amp_factor_grid`, counts
    (n, m), or of a :func:`_factor_row`, count n; raises
    SingularFactorError where it is undefined."""
    if not math.isnan(factors[index]):
        return float(factors[index])
    if isinstance(index, tuple):
        n, m = index
        raise SingularFactorError(f"c({l},{n};{alpha}) * c({k},{m};{alpha}) vanishes; "
                                  f"outcome ({n},{m}) is non-demodulatable")
    raise SingularFactorError(f"c({l},{index};{alpha}) vanishes; "
                              f"outcome {index} is non-demodulatable")


def amp_factor_dual(l: int, k: int, n: int, m: int, alpha: float) -> float:
    """Known multiplier acquired by a1 when the counts (n, m) are registered:
    c(k,n)c(l,m) / (c(l,n)c(k,m)), exactly one on equal counts."""
    _nonnegative(l, k, n, m)
    table = matrix_element_table(max(l, k), max(n, m), alpha)
    return _factor_at(amp_factor_grid(l, k, table), (n, m), l, k, alpha)


# -- conditional states and corrections --------------------------------------

def z_power_for(parity, n, l: int):
    """Exponent of the Z gate in the correction word, elementwise over
    arrays of parities and counts; only its parity matters since Z
    squares to the identity."""
    return (n - l + (parity != "even")) % 2


def _correction(z):
    """The correction word H Z^z, one 2x2 matrix per entry of ``z``.  Z^z
    is diagonal +-1, so (H Z^z) v is bitwise H (Z^z v)."""
    return np.matmul(H_GATE, Z_POWERS[z])


# -- outcome probabilities ----------------------------------------------------

def outcome_probability_grid(qubit: UnknownQubit, table: MatrixElementTable) -> np.ndarray:
    """Probability of registering counts (n, m), either parity, for every
    count pair of ``table`` (rows up to max(l, k)) at once, on its last two
    axes after any alpha axes.

    Evaluated in the unreduced product form
    F^4 (|a0 c(l,n) c(k,m)|^2 + |a1 c(k,n) c(l,m)|^2), which stays finite
    on outcomes whose amplitude factor is singular.
    """
    cl, ck = table.c[qubit.l], table.c[qubit.k]
    f2 = np.reshape(_per_entry(pow, table.f, 2), np.shape(table.f) + (1, 1))
    return f2 * f2 * (abs(qubit.a0) ** 2 * (cl[..., :, None] * ck[..., None, :]) ** 2
                      + abs(qubit.a1) ** 2 * (ck[..., :, None] * cl[..., None, :]) ** 2)


def _direct_mass(l: int, k: int, table: MatrixElementTable):
    """:func:`direct_success_probability` over the counts of ``table``."""
    return _float_or_array(_per_entry(pow, table.f, 4)
                           * np.sum(table.c[l] ** 2 * table.c[k] ** 2, axis=-1))


def _pair_mass(f: float, x: float, y: float) -> float:
    """F^4 (x^2 + y^2), the mass of the two outcomes of amplitudes x, y."""
    return f ** 4 * (x ** 2 + y ** 2)


def _pair_sum(l: int, k: int, n: int, m: int, table: MatrixElementTable):
    """:func:`pair_sum_probability` from ``table``, in Python floats."""
    cn, cm = table.c[..., n], table.c[..., m]
    # equal counts are one outcome, not a pair
    swapped = 0.0 if n == m else cm[l] * cn[k]
    return _per_entry(_pair_mass, table.f, cn[l] * cm[k], swapped)


def _am_mass(l: int, k: int, table: MatrixElementTable):
    """:func:`am_probability` over the counts of ``table``."""
    cl2, ck2 = table.c[l] ** 2, table.c[k] ** 2
    every = np.sum(cl2[..., :, None] * ck2[..., None, :], axis=(-2, -1))
    return _float_or_array(_per_entry(pow, table.f, 4)
                           * (every - np.sum(cl2 * ck2, axis=-1)))


def direct_success_probability(l: int, k: int, alpha, n_cut: int = 20):
    """Mass of the equal-count outcomes, where the output carries no
    amplitude factor; independent of the teleported superposition.  A
    float ``alpha`` gives a float, an array one value per amplitude."""
    _nonnegative(l, k)
    return _direct_mass(l, k, matrix_element_table(max(l, k), n_cut, alpha))


def pair_sum_probability(l: int, k: int, n: int, m: int, alpha):
    """Probability of {(n, m), (m, n)} jointly, the one outcome (n, n) when
    n = m; drops every dependence on the teleported superposition.  Per
    amplitude for an array ``alpha``."""
    _nonnegative(l, k, n, m)
    return _pair_sum(l, k, n, m, matrix_element_table(max(l, k), max(n, m), alpha))


def am_probability(l: int, k: int, alpha, n_cut: int = 20):
    """Mass of unequal-count outcomes (amplitude-modulated deliveries);
    complements direct_success_probability to one.  Per amplitude for an
    array ``alpha``."""
    _nonnegative(l, k)
    return _am_mass(l, k, matrix_element_table(max(l, k), n_cut, alpha))


#: scipy's smallest admissible relative tolerance for brentq, and the
#: iteration caps of scipy's golden-section search and brentq
_BRENT_RTOL = 4 * sys.float_info.epsilon
_GOLDEN_MAXITER = 5000
_BRENT_MAXITER = 100


def _golden_min(func, xa, xb, xc, xtol):
    """Golden-section search for a minimum of ``func`` inside the bracket
    (xa, xb, xc); returns (x, func(x)).

    A line-for-line port of scipy 1.17.1's ``_minimize_scalar_golden``
    for a 3-point bracket, so it returns scipy's floats bit for bit: the
    same 0.61803399 ratio, the same stop |x3 - x0| <= xtol (|x1| + |x2|),
    and the same final pick.  Like scipy, it returns the better inner point
    without complaint when ``_GOLDEN_MAXITER`` runs out.
    """
    if xa > xc:
        xa, xc = xc, xa
    if not (xa < xb and xb < xc):
        raise ValueError("Bracketing values (xa, xb, xc) do not fulfill this "
                         "requirement: (xa < xb) and (xb < xc)")
    fa, fb, fc = func(xa), func(xb), func(xc)
    if not (fb < fa and fb < fc):
        raise ValueError("Bracketing values (xa, xb, xc) do not fulfill this "
                         "requirement: (f(xb) < f(xa)) and (f(xb) < f(xc))")
    gr = 0.61803399
    gc = 1.0 - gr
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + gc * (xc - xb)
    else:
        x1, x2 = xb - gc * (xb - xa), xb
    f1, f2 = func(x1), func(x2)
    for _ in range(_GOLDEN_MAXITER):
        if abs(x3 - x0) <= xtol * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1, x2 = x1, x2, gr * x2 + gc * x3
            f1, f2 = f2, func(x2)
        else:
            x3, x2, x1 = x2, x1, gr * x1 + gc * x0
            f2, f1 = f1, func(x1)
    return (x1, f1) if f1 < f2 else (x2, f2)


def _brent_root(f, a, b, xtol):
    """Root of ``f`` in [a, b], where f(a) and f(b) differ in sign.

    A port of scipy's C ``brentq`` (Brent 1973) at its default rtol and
    maxiter, so it returns scipy's root bit for bit: the same
    inverse-interpolation, extrapolation and bisection steps, and the same
    stop |(x_blk - x)/2| < delta with delta = (xtol + 4 eps |x|) / 2.
    """
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    def negative(y):
        return math.copysign(1.0, y) < 0

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if negative(fpre) == negative(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and negative(fpre) != negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations, "
                       f"value is {xcur}")


def maximize_direct_success(l: int, k: int):
    """Displacement maximizing the direct success mass, and that mass.

    A coarse scan of [0.05, 1.5] brackets the peak, and golden-section
    search refines it to a relative xtol of 1e-8.  Raises ValueError when
    the scan peaks at an end of [0.05, 1.5]: the maximum then lies outside
    the range and there is no bracket.
    """
    grid = np.linspace(0.05, 1.5, 61)
    i = int(np.argmax(direct_success_probability(l, k, grid)))
    if i in (0, len(grid) - 1):
        raise ValueError(f"the direct success of ({l},{k}) peaks at alpha = "
                         f"{grid[i]:g}: its maximum lies outside [0.05, 1.5]")
    x, fx = _golden_min(lambda a: -direct_success_probability(l, k, a),
                        grid[i - 1], grid[i], grid[i + 1], xtol=1e-8)
    return float(x), float(-fx)


def solve_amp_factor_alpha(l: int, k: int, n: int, m: int, target: float,
                           lo: float, hi: float) -> float:
    """Displacement amplitude at which the (n, m) factor crosses ``target``
    (the protocol's preferred operating points sit on such roots).

    Brent's bracketed root to xtol 1e-12; raises ValueError unless the
    factor minus ``target`` changes sign between ``lo`` and ``hi``.
    """
    return float(_brent_root(lambda a: amp_factor_dual(l, k, n, m, a) - target,
                             lo, hi, xtol=1e-12))


# -- analytic pipelines -------------------------------------------------------

def _branches(qubit: UnknownQubit, factor: np.ndarray):
    """The branch amplitudes (a0 + a1 A, a0 - a1 A) of every factor A.  Where
    |A| overflowed to inf they are its |A| -> inf limit over |A|, the pair
    (a1 sgn A, -a1 sgn A), or (a0, a0) when a1 = 0, which normalize as the
    branches of a huge finite A do."""
    big = np.isinf(factor)
    finite = np.where(big, 0.0, factor)
    plus, minus = qubit.a0 + qubit.a1 * finite, qubit.a0 - qubit.a1 * finite
    if qubit.a1 != 0 and big.any():
        plus[big] = qubit.a1 * np.sign(factor[big])
        minus[big] = -plus[big]
    return plus, minus


def _records(qubit: UnknownQubit, parity, n, m, factor, prob) -> list[TeleportRecord]:
    """Records of the outcomes given by arrays of parity, counts n and m (m
    None on a single rail), factor and probability, broadcast together.
    The branch sign (-1)^(n-l) (+-1 by parity) is (-1)^z for the Z power z
    of the correction word, so one z array gives both.  Each outcome must
    be one the qubit can produce: a0 = 0 and A = 0 make both branch
    amplitudes a0 +- a1 A vanish.

    The bob states are normalized in one :func:`fock._unit_pairs` pass, the
    correction word is applied to that normalized array, and the corrected
    states are normalized in a second pass, bitwise as QubitState would
    normalize each record's pair.  The records, their outcomes and states
    are then made by their classes' private constructors, which neither
    normalize nor check again."""
    parity, n, m, factor, prob = map(np.ravel, np.broadcast_arrays(parity, n, m, factor, prob))
    z = z_power_for(parity, n, qubit.l)
    plus, minus = _branches(qubit, factor)
    bob = np.stack(_unit_pairs(plus, np.where(z == 1, -1.0, 1.0) * minus), axis=-1)
    # every record's correction word H Z^z (_correction) in one product, bitwise
    # the word applied record by record
    word = np.matmul(_correction(z), bob[..., None])[..., 0]
    fixed = _unit_pairs(word[:, 0], word[:, 1])
    columns = zip(*(x.tolist() for x in (parity, n, m, prob, factor, z, bob[:, 0], bob[:, 1],
                                         *fixed)))
    return [TeleportRecord._of(Outcome._checked(p, n_, m_), QubitState._unit(b0, b1), p_, a,
                               zp, QubitState._unit(f0, f1))
            for p, n_, m_, p_, a, zp, b0, b1, f0, f1 in columns]


def dual_rail_records(qubit: UnknownQubit, alpha: float, n_cut: int = 8) -> list[TeleportRecord]:
    """Enumerate the conditional records of the ideal dual-rail protocol in
    lexicographic (parity, n, m) order, both counts up to ``n_cut``.

    The two parities of one (n, m) share its probability equally (the
    strong-amplitude limit of the channel); summed over everything the
    probabilities approach one as the cuts grow.  Omitted are outcomes
    with a singular amplitude factor (non-demodulatable) and outcomes the
    qubit cannot produce (a0 = 0 where the factor is 0, probability 0);
    outcome_probability_grid still gives their probability.
    """
    table = matrix_element_table(max(qubit.l, qubit.k), n_cut, alpha)
    factors = amp_factor_grid(qubit.l, qubit.k, table)
    probs = 0.5 * outcome_probability_grid(qubit, table)
    # a0 = 0 and A = 0 leave no conditional state: an outcome of probability 0
    n, m = np.nonzero(~np.isnan(factors) & ((factors != 0) | (qubit.a0 != 0)))
    return _records(qubit, np.array(_PARITIES)[:, None], n, m, factors[n, m], probs[n, m])


def single_rail_pipeline(qubit: UnknownQubit, alpha: float, n: int) -> TeleportRecord:
    """Conditional record of the single-rail variant for count ``n``: the
    even branch.

    ``probability`` covers both parities (they split it equally); the
    corrected state is identical for either branch.  Raises ValueError when
    the qubit cannot produce the count.
    """
    l, k = qubit.l, qubit.k
    table = matrix_element_table(max(l, k), n, alpha)
    a_fac = _factor_at(_factor_row(l, k, table), n, l, k, alpha)
    if qubit.a0 == 0 and a_fac == 0:
        raise ValueError(f"outcome {n} cannot occur for this qubit: a0 = 0 and "
                         "the amplitude factor is 0, so both branches vanish")
    prob = overall_factor(alpha) ** 2 * (abs(qubit.a0) ** 2 * table.c[l, n] ** 2
                                         + abs(qubit.a1) ** 2 * table.c[k, n] ** 2)
    return _records(qubit, "even", n, None, a_fac, prob)[0]


# -- brute-force finite-reflectance circuit -----------------------------------

def _circuit_gram(qubit: UnknownQubit, beta: float, r: float, n_cut: int,
                  tail_tolerance: float) -> np.ndarray:
    """The circuit of :func:`brute_force_pipeline` up to the receiver: its
    unnormalized 2x2 density matrix gram[p, n, m] on parity p and counts
    (n, m).  Both splitters have the same t, r, grid and carrier window,
    so one pass of :func:`split_amplitudes` serves both, on block columns
    up to max(l, k), the only levels the qubit modes occupy.  Each coherent
    row enters as the window of levels that hold amplitude at double
    precision, so a carrier of amplitude beta costs O(beta) blocks, not
    O(beta^2); the mass left below a window counts as leak."""
    if not 0.0 < r <= _HTBS_R_MAX:
        raise ValueError(f"brute-force regime requires 0 < r <= {_HTBS_R_MAX}")
    t = math.sqrt(1.0 - r * r)
    l, k = qubit.l, qubit.k
    params = BeamSplitterParams(t, r)
    d3 = max(l, k) + default_cutoff(beta * r / t) + 2
    d1 = default_cutoff(beta) + d3
    if not 0 <= n_cut < d3:
        raise ValueError(f"n_cut must lie in [0, {d3}), the auxiliary cutoffs; got {n_cut}")
    # channel branches: carrier -beta accompanies logical |01>, +beta |10>;
    # the ancilla is driven at -beta.  Superposition term i puts s3[i]
    # photons on mode 3 and s4[i] on mode 4.  One batch takes the four
    # (branch, term) inputs of mode 3 and its carrier, then the two terms of
    # mode 4 and its ancilla, the qubit mode listed first so the carrier
    # displaces it with the conditional sign.
    s3, s4 = [l, k], [k, l]
    c0, plus, trimmed = _carrier_window(beta, d1, tail_tolerance)
    minus = plus.real * (-1.0) ** np.arange(c0, d1)  # bitwise the window at -beta
    # refuse before the inputs are made, at the size of all d3 block
    # columns under one splitter's four inputs
    check_split_size(d3, len(plus), 4)
    w = np.zeros((d3, len(plus), 6, 1), dtype=complex)  # (qubit mode, coherent, input)
    for y, row in enumerate((minus, plus)):
        w[s3, :, [2 * y, 2 * y + 1], 0] = row
    w[s4, :, [4, 5], 0] = minus
    # what the window skipped counts against the tolerance with the leak
    w = split_amplitudes(w, params, tail_tolerance - trimmed, c0)[:n_cut + 1, :, :, 0]
    u = w[:, :, :4].reshape(n_cut + 1, -1, 2, 2)  # (mode 3, carrier, branch, term)
    v = w[:, :, 4:]  # (mode 4, ancilla, term)
    even = np.arange(c0, d1) % 2 == 0
    parity_mask = np.array([even, ~even], dtype=float)
    coefs = np.array([qubit.a0, qubit.a1])
    # entry [x, y] overlaps what accompanies branch y with what accompanies
    # branch x, projected on parity p
    carrier = np.einsum("ncyt,pc,ncxs->pnytxs", u.conj(), parity_mask, u)
    ancilla = np.einsum("mct,mcs->mts", v.conj(), v)
    return np.einsum("t,s,pnytxs,mts->pnmxy", coefs.conj(), coefs, carrier, ancilla)


def brute_force_pipeline(qubit: UnknownQubit, beta: float, r: float,
                         n_cut: int = 2,
                         tail_tolerance: float = 1e-10) -> list[BruteForceRecord]:
    """Simulate the full circuit at finite reflectance.

    The channel's coherent part and the first qubit mode meet on one
    splitter, the ancilla drive and the second qubit mode on another; the
    coherent mode is parity-measured and the two auxiliary modes are
    counted, each up to ``n_cut``.  The receiver's conditional state is
    mixed at finite r, so each record keeps its exact 2x2 density matrix
    on the dual-rail modes, before and after the correction word; as
    r -> 0 at fixed alpha = beta*r/t they converge to the analytic records.
    """
    gram = _circuit_gram(qubit, beta, r, n_cut, tail_tolerance)
    # every outcome at once, in (parity, n, m) order; a NaN stays visible
    prob = 0.5 * np.trace(gram, axis1=-2, axis2=-1).real
    parity, n, m = np.nonzero(~(prob <= 0.0))
    prob = prob[parity, n, m]
    rho = gram[parity, n, m] / (2.0 * prob)[:, None, None]
    gate = _correction(z_power_for(np.take(_PARITIES, parity), n, qubit.l))
    rho_c = gate @ rho @ gate.conj().transpose(0, 2, 1)
    # the trace of the stacked product, bitwise as each record's own
    purity = np.trace(rho @ rho, axis1=-2, axis2=-1).real
    return [BruteForceRecord(Outcome(_PARITIES[p], n_, m_), p_, rh, rh_c, pur)
            for p, n_, m_, p_, rh, rh_c, pur
            in zip(parity.tolist(), n.tolist(), m.tolist(), prob.tolist(), rho, rho_c,
                   purity.tolist())]


def _carrier_window(amp: float, dim: int, tail_tolerance: float):
    """The coherent row of ``dim`` levels from its first level above
    ``_CARRIER_FLOOR``: ``(first level, row from there, mass before it)``.

    A coherent row is unimodal, so the window ends at the cutoff; at
    amplitude 50 it holds 888 of 2,831 levels.  It starts below the mean
    count amp^2, so it stays the longer mode of its splitter, the one
    ``split_amplitudes`` offsets.
    """
    row = coherent_state(amp, n_max=dim - 1, tail_tolerance=tail_tolerance)
    first = int(np.argmax(abs(row) ** 2 > _CARRIER_FLOOR))
    return first, row[first:], float(np.vdot(row[:first], row[:first]).real)


def circuit_vs_limit(qubit: UnknownQubit, alpha: float, r: float,
                     tail_tolerance: float = 1e-10) -> tuple[float, list[tuple]]:
    """Run the circuit with counts up to 2 at reflectance ``r`` and channel
    amplitude beta = alpha*t/r, and compare it with the limit at ``alpha``.

    Returns ``(beta, rows)`` with one row ``(record, p_limit, rel_err,
    infidelity)`` per record: ``p_limit`` is the limit's probability of the
    record's counts, ``rel_err`` the relative error of the circuit's
    probability of those counts (both parities), and ``infidelity``
    1 - <target| rho_corrected |target> against the limit's corrected
    state (a0, a1 * A) for those counts.
    """
    beta = alpha * math.sqrt(1.0 - r * r) / r
    records = brute_force_pipeline(qubit, beta, r, tail_tolerance=tail_tolerance)
    by_counts: dict[tuple[int, int], float] = {}
    for rec in records:
        key = rec.outcome.n, rec.outcome.m
        by_counts[key] = by_counts.get(key, 0.0) + rec.probability
    l, k = qubit.l, qubit.k
    table = matrix_element_table(max(l, k), 2, alpha)
    limits = outcome_probability_grid(qubit, table).tolist()
    factors = amp_factor_grid(l, k, table)
    rows = []
    for rec in records:
        n, m = rec.outcome.n, rec.outcome.m
        p_limit = limits[n][m]
        rel = abs(by_counts[n, m] - p_limit) / p_limit if p_limit > 0 else math.inf
        tgt = QubitState(qubit.a0, qubit.a1 * _factor_at(factors, (n, m), l, k, alpha)).vec()
        rows.append((rec, p_limit, rel,
                     1.0 - float(np.real(np.vdot(tgt, rec.corrected_rho @ tgt)))))
    return beta, rows
