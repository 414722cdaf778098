"""Truncated multi-mode Fock-space states, and the receiver's qubit.

Two layers meet here.  ``QubitState``, ``fidelity``, the cutoff rule and
the errors serve the model, which is the array path of ``displaced``,
``protocol`` and ``demodulation``.  ``FockState`` and the operations on
it, here and in ``optics``, are the oracle layer: they check the model
(``verify --suite properties``, ``negativity``, the swap-composition
test), and the model reaches them only through ``coherent_state(...).amps``.

A state is its mode labels and a dense complex amplitude tensor over a
per-mode photon-number grid.  Its cutoffs are its array's shape (mode i
stops at photon number ``amps.shape[i] - 1``); nothing else records them.
Every operation is a pure function returning a fresh state; the amplitude
arrays are frozen (read-only) after construction, so values can be shared
freely between threads.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

NORM_EPS = 1e-12
#: probability a mode may hold at its cutoff before :meth:`FockState.check_tail`
#: refuses it, unless the check is given another bound
TAIL_TOL = 1e-10
_NORMAL_MIN = sys.float_info.min
#: largest default photon-number cutoff (amplitude ~997); ``negativity`` of
#: a state at this cutoff peaks near 0.3 GB, and every amplitude the checks
#: and benchmarks use stays below 64,100 levels.  It bounds single states
#: only: the circuit's splitters are bounded by ``optics.MAX_SPLIT_CELLS``
MAX_CUTOFF = 1_000_000

ModeLabel = Hashable


class ModeCollisionError(ValueError):
    """Two states being combined share a mode label."""


class MeasurementRangeError(ValueError):
    """Requested photon number lies above a mode's cutoff."""


class TailMassError(RuntimeError):
    """Probability mass at a truncation edge exceeds the admissible tail."""


class NonFiniteAmplitudeError(ArithmeticError):
    """A state holds a NaN or infinite amplitude (an overflow upstream)."""


def default_cutoff(amplitude: float) -> int:
    """Photon-number cutoff that keeps the tail of a coherent or displaced
    component of the given amplitude below ~1e-12.

    Raises TailMassError, before anything is allocated, when that cutoff is
    not finite or exceeds :data:`MAX_CUTOFF`.
    """
    x = abs(amplitude)
    cutoff = x * x + 6.0 * x + 12.0
    if not cutoff <= MAX_CUTOFF:
        raise TailMassError(
            f"amplitude {amplitude:.9g} needs a photon-number cutoff of "
            f"{cutoff:.7g}, above the largest supported ({MAX_CUTOFF:,})")
    return math.ceil(cutoff)


@dataclass(frozen=True)
class FockState:
    """A pure state on labelled bosonic modes.

    ``amps[n1, ..., nM]`` is the coefficient of ``|n1 ... nM>`` in the order
    given by ``modes``; a mode's cutoff is its axis length minus one.
    """

    modes: tuple[ModeLabel, ...]
    amps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if len(set(self.modes)) != len(self.modes):
            raise ModeCollisionError(f"duplicate mode labels in {self.modes}")
        amps = np.asarray(self.amps, dtype=complex)
        if len(self.modes) != amps.ndim:
            raise ValueError("one mode label required per amplitude axis")
        if any(d < 2 for d in amps.shape):
            raise ValueError("every per-mode cutoff must be >= 1")
        n2 = float(np.vdot(amps, amps).real)
        if not math.isfinite(n2):
            raise NonFiniteAmplitudeError("state has a non-finite amplitude")
        if n2 <= 0.0:
            raise ValueError("state has zero norm")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    # -- bookkeeping ----------------------------------------------------

    def axis(self, mode: ModeLabel) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise KeyError(f"mode {mode!r} not in {self.modes}") from None

    def n_max(self, mode: ModeLabel) -> int:
        return self.amps.shape[self.axis(mode)] - 1

    def norm(self) -> float:
        return float(np.sqrt(np.vdot(self.amps, self.amps).real))

    def normalize(self) -> "FockState":
        n = self.norm()
        if abs(n - 1.0) <= NORM_EPS:
            return self
        return FockState(self.modes, self.amps / n)

    def tail_mass(self, mode: ModeLabel) -> float:
        """Probability mass sitting at the mode's top (cutoff) level."""
        top = np.take(self.amps, -1, axis=self.axis(mode))
        return float(np.sum(np.abs(top) ** 2))

    def check_tail(self, tolerance: float = TAIL_TOL,
                   modes: Sequence[ModeLabel] | None = None) -> "FockState":
        """Raise unless the top-level mass of each given mode (every mode
        by default) is at most ``tolerance``, which must lie in [0, 1).

        Audits truncation error, so pass only modes whose content
        approximates an unbounded one; a mode whose exact support ends at
        the cutoff (a dual-rail photon, say) carries real mass there.
        """
        if not (0.0 <= tolerance < 1.0):
            raise ValueError("tail tolerance must lie in [0, 1)")
        for m in self.modes if modes is None else modes:
            mass = self.tail_mass(m)
            if mass > tolerance:
                raise TailMassError(
                    f"mode {m!r} holds {mass:.3e} probability at its cutoff "
                    f"(tolerance {tolerance:.1e})"
                )
        return self


def single_mode(mode: ModeLabel, coeffs: Sequence[complex]) -> FockState:
    """Wrap raw Fock coefficients of one mode into a state."""
    return FockState((mode,), np.asarray(coeffs, dtype=complex))


def number_state(mode: ModeLabel, n: int, n_max: int | None = None) -> FockState:
    """``|n>`` in a single mode (cutoff defaults to ``n``)."""
    if n_max is None:
        n_max = max(n, 1)
    if n > n_max:
        raise MeasurementRangeError(f"photon number {n} above cutoff {n_max}")
    coeffs = np.zeros(n_max + 1, dtype=complex)
    coeffs[n] = 1.0
    return single_mode(mode, coeffs)


def tensor(a: FockState, b: FockState) -> FockState:
    """Tensor product of states on disjoint mode sets."""
    shared = set(a.modes) & set(b.modes)
    if shared:
        raise ModeCollisionError(f"modes {sorted(map(repr, shared))} appear on both sides")
    return FockState(a.modes + b.modes, np.multiply.outer(a.amps, b.amps))


def project_number(state: FockState, mode: ModeLabel, n: int):
    """Project one mode onto ``|n>`` and drop it.

    Returns ``(reduced_state, probability)``.  The reduced state is
    renormalized; a zero-probability outcome returns ``(None, 0.0)`` so
    sweeps can skip impossible branches without touching NaNs.
    """
    ax = state.axis(mode)
    n_max = state.amps.shape[ax] - 1
    if n < 0 or n > n_max:
        raise MeasurementRangeError(f"photon number {n} outside [0, {n_max}] for mode {mode!r}")
    sliced = np.take(state.amps, n, axis=ax)
    prob = float(np.sum(np.abs(sliced) ** 2))
    if prob == 0.0:
        return None, 0.0
    if sliced.ndim == 0:
        return None, prob  # last mode measured away; only the weight remains
    rest_modes = state.modes[:ax] + state.modes[ax + 1:]
    return FockState(rest_modes, sliced / np.sqrt(prob)), prob


def _unit_pair(a0, a1) -> tuple[complex, complex]:
    """(a0, a1) as complex numbers divided by their norm.

    Refuses non-finite and zero pairs.  A pair whose squared norm
    overflows or falls below the normal range (where it would keep too
    few digits) is first divided by its largest component; every other
    pair gets sqrt(|a0|^2 + |a1|^2) as it stands.  A non-finite pair has
    a non-finite squared norm, so only pairs outside the normal range
    are tested for one.
    """
    a0, a1 = complex(a0), complex(a1)
    try:
        n2 = abs(a0) ** 2 + abs(a1) ** 2
    except OverflowError:
        n2 = math.inf
    if not _NORMAL_MIN <= n2 < math.inf:
        if not (cmath.isfinite(a0) and cmath.isfinite(a1)):
            raise ValueError("qubit amplitudes must be finite")
        s = max(abs(a0.real), abs(a0.imag), abs(a1.real), abs(a1.imag))
        if s == 0.0:
            raise ValueError("qubit has zero norm")
        a0, a1 = a0 / s, a1 / s
        n2 = abs(a0) ** 2 + abs(a1) ** 2
    n = math.sqrt(n2)
    return a0 / n, a1 / n


@dataclass(frozen=True)
class QubitState:
    """A normalized two-level state: c0 on the logical |0> (the receiver's
    |01>), c1 on the logical |1> (its |10>)."""

    c0: complex
    c1: complex

    def __post_init__(self):
        c0, c1 = _unit_pair(self.c0, self.c1)
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "c1", c1)

    def vec(self) -> np.ndarray:
        return np.array([self.c0, self.c1], dtype=complex)


def fidelity(a: QubitState, b: QubitState) -> float:
    """``|<a|b>|^2``; one exactly when the states agree up to global phase."""
    ov = np.vdot(a.vec(), b.vec())
    return min(1.0, float(abs(ov) ** 2))
