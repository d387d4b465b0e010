"""Counter-based deterministic random generator.

A counter-based generator (output i is a pure function of seed and i) makes
sampling order-independent: any point can be re-drawn on its own without
replaying a stream. The mixing function is the standard
splitmix64 finalizer; fixed test vectors are frozen in the test suite so any
reimplementation can be checked against this one.
"""

from __future__ import annotations

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

