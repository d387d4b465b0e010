"""One {0,1} level mask against an independent 40-digit oracle.

`_binary_mask(gain, r / P)` must enclose |M(t)| = sqrt(1 - g (1 - cos 2 pi t))
at the exact rational t = r / P for both ends g of its gain enclosure, so
for every gain inside it. The float argument is the correctly rounded r / P
and the cosine is a libm value; the trigonometric pad must cover both
errors. The products over many levels hide one under-padded level under
the outward rounding of the others, so this check runs level by level and
compares enclosures, not bytes.
"""

import random
from fractions import Fraction

import mpmath
import pytest

from moranlab import build_schedule
from moranlab.fourier import _binary_mask, _fraction_interval

from oracles import reference_binary_mask

OMEGAS = (Fraction(1, 2), Fraction(1, 10))
ANCHORS = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


def _moduli() -> list[int]:
    """Odd moduli up to 2^61: small primes and products, the benchmark
    schedule's prefix products below 2^61, 2^31 - 1, 2^61 - 1, 2^61 - 3 and
    seeded odd draws."""
    rnd = random.Random(61)
    out = {7, 77, 1001, 7 * 11 * 13 * 17 * 19, 2**31 - 1, 2**61 - 1, 2**61 - 3}
    out |= {P for P in build_schedule(d=2, count=14).prefix_products() if P < 2**61}
    out |= {2 * rnd.randrange(2**k, 2**(k + 1)) + 1 for k in (10, 30, 50, 59) for _ in range(3)}
    return sorted(out)


def _near_anchor_residues(P: int) -> set[int]:
    """r in [1, P) with r / P within a few ulps of 0, 1/4, 1/2, 3/4 and 1:
    the residues next to a P and those a few 2^-53 steps from it."""
    out = set()
    for a in ANCHORS:
        centre = round(a * P)
        out |= {centre + k for k in range(-3, 4)}
        out |= {round((a + j * Fraction(1, 2**53)) * P) for j in range(-4, 5)}
    return {r for r in out if 0 < r < P}


# residues at which the composition with a zero pad misses the oracle
# (omega 1/2), found by a random search over odd moduli below 2^61
ZERO_PAD_MISSES = (
    (1287430454628577525, 1498023222284211559),
    (1437522902632183354, 1882246125639384375),
    (1737756877914834975, 1998330927125015911),
    (1694127044551778524, 2147192209131940921),
    (1295964921975393263, 1680757910935592923),
    (1622813016878427606, 1954437493278024315),
    (1022637507201969191, 1246842179756828203),
    (685353579471893510, 892154447016812179),
    (1230294019921748639, 1910247487043588293),
    (936374808266920231, 1116456340011761937),
    (639588200484662687, 852313045924200687),
    (1272774989038864621, 1549133984318838609),
)


def _oracle(gain: float, r: int, P: int) -> mpmath.mpf:
    # |M(r / P)| for the exact gain value of a double, at 40 digits; a gain
    # end above 1/2 (the upper end at omega = 1/2) can take |M|^2 below 0
    # near t = 1/2, where the mask is 0
    with mpmath.workdps(40):
        t = mpmath.mpf(r) / P
        m2 = 1 - mpmath.mpf(gain) * (1 - mpmath.cos(2 * mpmath.pi * t))
        return mpmath.sqrt(max(m2, 0))


def _encloses(enclosure: tuple[float, float], gain: tuple[float, float], r: int, P: int) -> bool:
    lo, hi = enclosure
    with mpmath.workdps(40):
        values = [_oracle(g, r, P) for g in gain]
        return mpmath.mpf(lo) <= min(values) and max(values) <= mpmath.mpf(hi)


def _gain(omega: Fraction) -> tuple[float, float]:
    return _fraction_interval(2 * omega * (1 - omega))


@pytest.mark.parametrize("omega", OMEGAS, ids=str)
def test_binary_mask_encloses_the_oracle_near_anchors(omega):
    gain = _gain(omega)
    for P in _moduli():
        for r in sorted(_near_anchor_residues(P)):
            assert _encloses(_binary_mask(gain, r / P), gain, r, P), (r, P)


@pytest.mark.parametrize("omega", OMEGAS, ids=str)
def test_binary_mask_encloses_the_oracle_at_random_residues(omega):
    rnd = random.Random(str(omega))
    gain = _gain(omega)
    for _ in range(1500):
        P = 2 * rnd.randrange(1, 2**60) + 1
        r = rnd.randrange(1, P) if rnd.random() < 0.5 else P // 4 + rnd.randrange(-2**20, 2**20)
        assert _encloses(_binary_mask(gain, r / P), gain, r, P), (r, P)


@pytest.mark.parametrize("r, P", ZERO_PAD_MISSES)
def test_binary_mask_encloses_the_oracle_where_a_zero_pad_misses(r, P):
    gain = _gain(Fraction(1, 2))
    assert _encloses(_binary_mask(gain, r / P), gain, r, P)


def test_the_pinned_residues_need_the_pad():
    # without the pad the same composition misses the oracle at every pinned
    # residue, so the test above checks the pad itself
    gain = _gain(Fraction(1, 2))
    for r, P in ZERO_PAD_MISSES:
        assert P % 2 == 1
        assert not _encloses(reference_binary_mask(gain, r / P, pad=0.0), gain, r, P), (r, P)
