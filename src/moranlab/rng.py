"""Counter-based deterministic random generator.

A counter-based generator (output i is a pure function of seed and i) makes
sampling order-independent: any point can be re-drawn on its own without
replaying a stream. The mixing function is the standard
splitmix64 finalizer; fixed test vectors are frozen in the test suite so any
reimplementation can be checked against this one.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .errors import InvalidParameter

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# finalizer multipliers; measure.sample_point runs mix64 on every level's
# counter at once, one 128-bit lane per level of one big integer
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """splitmix64 finalizer: a 64-bit bijection with good avalanche."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def value_at(seed: int, index: int) -> int:
    """The index-th 64-bit output for this seed (index >= 0)."""
    if index < 0:
        raise InvalidParameter(f"index must be >= 0, got {index}")
    return mix64((seed + (index + 1) * _GOLDEN) & _MASK)


def derive_seed(seed: int, index: int) -> int:
    """Per-item seed of a batch: seed XOR item index."""
    return (seed ^ index) & _MASK


class CounterRng(Record):
    """Random access into the output sequence of one seed."""

    _fields = ("seed",)

    def at(self, index: int) -> int:
        return value_at(self.seed, index)

    def unit_at(self, index: int) -> float:
        """Output index mapped to [0, 1) with 53-bit precision."""
        return (self.at(index) >> 11) * 2.0**-53


def cumulative_thresholds(weights: tuple[Fraction, ...]) -> tuple[int, ...]:
    """Cumulative weight boundaries scaled to the 64-bit range.

    Threshold d is floor(2^64 * sum(weights[:d+1])); inversion picks the first
    threshold above a uniform draw, so each cell's probability is within
    2^-64 of its weight. The final threshold is forced to 2^64 so rounding
    can never leave a draw unassigned. The sums are integer numerators over
    the one denominator lcm of the weights' denominators.
    """
    if not weights:
        raise InvalidParameter("at least one weight is required")
    ws = []
    for w in weights:
        if not isinstance(w, Fraction):
            w = Fraction(w)
        if w.numerator <= 0:
            raise InvalidParameter(f"weights must be positive, got {w}")
        ws.append(w)
    den = math.lcm(*(w.denominator for w in ws))
    total = 0
    out = []
    for w in ws:
        total += w.numerator * (den // w.denominator)
        out.append((total << 64) // den)
    if total != den:
        raise InvalidParameter(f"weights must sum to 1, got {Fraction(total, den)}")
    out[-1] = 1 << 64
    return tuple(out)
