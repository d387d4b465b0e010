"""Counter-based generator: frozen vectors, inversion, and reproducibility."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from moranlab import InvalidParameter, MoranSystem, PrimeSchedule, derive_seed, value_at
from oracles import reference_cumulative_thresholds, reference_pick as pick

from moranlab.rng import mix64

ONE_LEVEL = PrimeSchedule(d=1, q=(7,), ell=(1,))


def thresholds(*weights):
    """The sampler's thresholds of a one-level system with these weights."""
    return MoranSystem(ONE_LEVEL, (tuple(range(len(weights))),), (weights,))._thresholds[0]

# Reference outputs of the splitmix64 finalizer fed with seed + (i+1)*golden.
# Frozen from an independent reimplementation of the published finalizer
# (constants 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB, shifts 30/27/31).
_SEED_0 = (16294208416658607535, 7960286522194355700, 487617019471545679)
_SEED_1234567 = (
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
)


def test_frozen_vectors():
    assert tuple(value_at(0, i) for i in range(3)) == _SEED_0
    assert tuple(value_at(1234567, i) for i in range(5)) == _SEED_1234567


def test_negative_index_rejected():
    with pytest.raises(InvalidParameter):
        value_at(0, -1)


def test_derive_seed_is_xor():
    assert derive_seed(0b1100, 0b1010) == 0b0110
    assert derive_seed(2**64 - 1, 1) == 2**64 - 2


def test_thresholds_partition_the_range():
    t = thresholds(Fraction(1, 2), Fraction(1, 2))
    assert t == (1 << 63, 1 << 64)
    t = thresholds(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert t[-1] == 1 << 64
    assert t[0] == (1 << 64) // 3
    assert t == reference_cumulative_thresholds((Fraction(1, 3),) * 3)
    assert thresholds(Fraction(1)) == (1 << 64,)
    with pytest.raises(InvalidParameter):
        thresholds(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(InvalidParameter):
        thresholds()


# pick is the reference inversion of oracles.py: measure.sample_point maps
# bisect_right over every level's thresholds and draws at once


def test_pick_inverts_thresholds():
    t = thresholds(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    assert pick(0, t) == 0
    assert pick(t[0] - 1, t) == 0
    assert pick(t[0], t) == 1
    assert pick(t[1], t) == 2
    assert pick((1 << 64) - 1, t) == 2


def test_pick_frequencies_near_weights():
    # 20k draws from a 1/4:3/4 split stay within 3 sigma of expectation
    t = thresholds(Fraction(1, 4), Fraction(3, 4))
    n = 20_000
    ones = sum(pick(value_at(5, i), t) for i in range(n))
    expected = n * 3 / 4
    sigma = (n * 3 / 16) ** 0.5
    assert abs(ones - expected) < 3 * sigma


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_mix64_is_in_range_and_deterministic(z):
    v = mix64(z)
    assert 0 <= v < 2**64
    assert v == mix64(z)
