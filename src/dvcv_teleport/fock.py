"""The receiver's qubit, the truncation rules and the numeric errors.

Every state of the package is a plain complex array over a per-mode
photon-number grid: a single mode is a row (``displaced``), the resource
state an array over its three modes (``optics.channel_state``), and the
circuit's inputs a batch of such arrays (``protocol``).  The callers know
which axis is which mode, so no state carries labels.  What they share
lives here: ``QubitState`` and ``fidelity`` for the two-level receiver,
the cutoff rule, the tail tolerance, and the errors the guards raise.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

#: probability a displaced row may hold at its cutoff level before
#: ``displaced.displaced_number_state`` refuses it, unless given another bound
TAIL_TOL = 1e-10
_NORMAL_MIN = sys.float_info.min
#: largest default photon-number cutoff (amplitude ~997); ``negativity`` of
#: a state at this cutoff peaks near 0.3 GB, and every amplitude the checks
#: and benchmarks use stays below 64,100 levels.  It bounds single states
#: only: the circuit's splitters are bounded by ``optics.MAX_SPLIT_CELLS``
MAX_CUTOFF = 1_000_000


class MeasurementRangeError(ValueError):
    """Requested photon number lies above a mode's cutoff."""


class TailMassError(RuntimeError):
    """Probability mass at a truncation edge exceeds the admissible tail."""


class NonFiniteAmplitudeError(ArithmeticError):
    """A state holds a NaN or infinite amplitude (an overflow upstream)."""


def default_cutoff(amplitude: float) -> int:
    """Photon-number cutoff for a coherent or displaced component of the
    given amplitude, x^2 + 6x + 12 rounded up.

    The tail it leaves grows with the amplitude.  Measured as the Poisson
    mass past it for a coherent component, it is 2.9e-14 at amplitude 3,
    1.0e-12 at 5, 2.3e-11 at 10, 4.4e-10 at 50 and 8.4e-10 at 250.

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
