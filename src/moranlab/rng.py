"""Counter-based deterministic random generator.

A counter-based generator (output i is a pure function of seed and i) makes
sampling order-independent: any point can be re-drawn on its own without
replaying a stream. The mixing function is the standard
splitmix64 finalizer; fixed test vectors are frozen in the test suite so any
reimplementation can be checked against this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameter

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """splitmix64 finalizer: a 64-bit bijection with good avalanche."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def value_at(seed: int, index: int) -> int:
    """The index-th 64-bit output for this seed (index >= 0)."""
    if index < 0:
        raise InvalidParameter(f"index must be >= 0, got {index}")
    return mix64((seed + (index + 1) * _GOLDEN) & _MASK)


def derive_seed(seed: int, index: int) -> int:
    """Per-item seed of a batch: seed XOR item index."""
    return (seed ^ index) & _MASK


@dataclass(frozen=True)
class CounterRng:
    """Random access into the output sequence of one seed."""

    seed: int

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
    can never leave a draw unassigned.
    """
    if not weights:
        raise InvalidParameter("at least one weight is required")
    total = Fraction(0)
    out = []
    for w in weights:
        w = Fraction(w)
        if w <= 0:
            raise InvalidParameter(f"weights must be positive, got {w}")
        total += w
        out.append((total.numerator << 64) // total.denominator)
    if total != 1:
        raise InvalidParameter(f"weights must sum to 1, got {total}")
    out[-1] = 1 << 64
    return tuple(out)


def pick(u: int, thresholds: tuple[int, ...]) -> int:
    """Index of the first threshold exceeding the 64-bit draw u."""
    for d, t in enumerate(thresholds):
        if u < t:
            return d
    raise InvalidParameter(f"draw {u} outside the 64-bit range")
