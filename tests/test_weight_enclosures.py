"""Each level's rounded weight data against exact values.

`fourier._build_level` keeps a level's {0,1} factor exactly, as the pair
(w0, w1), and rounds its gain 2 w0 w1 outward once; a convolved level's pair
is K times the weights of its digits 0 and 1 (s >= 2) or 0 and K (s = 1).
`_half_mask` encloses |M(1/2)| = sqrt(1 - 4 w0 w1) on a {0,1} level. These
tests compare the floats with the exact `Fraction`s and with a 40-digit
mpmath root, not with the code's own arithmetic, so the containment must be
strict: an enclosure rounded to nearest instead of outward fails it.
"""

from fractions import Fraction

import mpmath
import pytest

from moranlab import MoranSystem, binary_system, build_convolved, build_schedule
from moranlab.fourier import _half_mask

SCHEDULE = build_schedule(d=2, count=4)
OMEGAS = [Fraction(1, 10), Fraction(1, 3), Fraction(2, 7)]


def _non_binary_systems() -> dict[str, MoranSystem]:
    depth = SCHEDULE.depth
    # {0, 1, 2} with 1/2 in the middle: {0,1} weighted (2/5, 3/5) plus {0, 1}
    ternary = MoranSystem(
        SCHEDULE, ((0, 1, 2),) * depth, ((Fraction(1, 5), Fraction(1, 2), Fraction(3, 10)),) * depth
    )
    dim_one = build_convolved(binary_system(SCHEDULE, Fraction(1, 3)), "dim-one")
    return {"ternary": ternary, "dim-one": dim_one}


@pytest.mark.parametrize("omega", OMEGAS, ids=str)
def test_binary_gain_strictly_encloses_two_w0_w1(omega):
    sysm = binary_system(SCHEDULE, omega)
    assert len(sysm._levels) == SCHEDULE.depth
    for level, w in zip(sysm._levels, sysm.weights):
        assert level.pair == w and level.count == 1
        lo, hi = level.gain
        assert Fraction(lo) < 2 * w[0] * w[1] < Fraction(hi)


@pytest.mark.parametrize("name", ["ternary", "dim-one"])
def test_non_binary_weights_strictly_enclose_their_fractions(name):
    sysm = _non_binary_systems()[name]
    assert len(sysm._levels) == SCHEDULE.depth
    for level, w in zip(sysm._levels, sysm.weights):
        K = level.count
        assert K > 1
        ends = (w[0], w[1]) if level.step > 1 else (w[0], w[-1])
        assert level.pair == (K * ends[0], K * ends[1]) and sum(level.pair) == 1
        lo, hi = level.gain
        assert Fraction(lo) < 2 * level.pair[0] * level.pair[1] < Fraction(hi)


@pytest.mark.parametrize("omega", OMEGAS, ids=str)
def test_half_mask_brackets_the_40_digit_root(omega):
    w = (omega, 1 - omega)
    m2 = 1 - 4 * w[0] * w[1]
    lo, hi = _half_mask(w)
    with mpmath.workdps(40):
        root = mpmath.sqrt(mpmath.mpf(m2.numerator) / m2.denominator)
        assert mpmath.mpf(lo) < root < mpmath.mpf(hi)
