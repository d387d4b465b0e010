"""Certified transform moduli and the middle-third digit decay bound."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranlab import (
    CertifiedModulus,
    InvalidParameter,
    MoranSystem,
    OutOfRange,
    PrimeSchedule,
    TailNotCertifiable,
    binary_system,
    build_schedule,
    digit_decay_bound,
    mu_hat_modulus,
    to_digits,
)
from moranlab.fourier import _TRIG_PAD, mask_interval

from oracles import mp_mu_hat, naive_mu_hat


def test_mask_special_values(small_system):
    assert mask_interval(1, Fraction(0), small_system) == (1.0, 1.0)
    # |M(1/2)| = |w0 - w1| = 0, within the one ulp of the outward sqrt
    assert mask_interval(1, Fraction(1, 2), small_system) == (0.0, 5e-324)
    # |M|^2 = 1 - (1/2)(1 - cos(2pi/3)) = 1/4
    lo, hi = mask_interval(1, Fraction(1, 3), small_system)
    assert lo <= 0.5 <= hi and hi - lo < 1e-12


def test_mask_periodicity(small_system):
    for t in (Fraction(1, 7), Fraction(3, 11), Fraction(12, 13)):
        a = mask_interval(2, t, small_system)
        b = mask_interval(2, t + 3, small_system)
        assert a == b


def test_mu_hat_at_zero(small_system):
    cert = mu_hat_modulus(0, small_system, eps=1e-9)
    assert (cert.lo, cert.hi) == (1.0, 1.0)
    assert cert.tail_bound_log == 0.0


def test_mu_hat_first_factor_collapses(small_system):
    # xi = 7 reduces to 0 at level one, so that factor is exactly 1;
    # the certified interval must straddle a doubled-depth evaluation
    cert = mu_hat_modulus(7, small_system, eps=1e-6)
    deeper = naive_mu_hat(7, small_system, depth=min(2 * cert.truncation_level, small_system.depth))
    assert cert.lo - 1e-12 <= deeper <= cert.hi + 1e-12


def test_mu_hat_interval_soundness(medium_system):
    rng = random.Random(20260816)
    N3 = medium_system.schedule.N[3]
    for _ in range(200):
        xi = rng.randint(1, N3)
        wide = mu_hat_modulus(xi, medium_system, eps=1e-6)
        tight = mu_hat_modulus(xi, medium_system, eps=1e-12)
        mid = (tight.lo + tight.hi) / 2
        assert wide.lo <= mid <= wide.hi
        assert wide.hi - wide.lo <= 1e-6
        assert tight.hi - tight.lo <= 1e-12
        assert 0.0 <= wide.lo <= wide.hi <= 1.0


def test_mu_hat_symmetry(medium_system):
    rng = random.Random(7)
    for _ in range(50):
        xi = rng.randint(1, 10**6)
        plus = mu_hat_modulus(xi, medium_system, eps=1e-9)
        minus = mu_hat_modulus(-xi, medium_system, eps=1e-9)
        assert (plus.lo, plus.hi) == (minus.lo, minus.hi)


def test_mu_hat_matches_naive_product(medium_system):
    # the enclosure and a plain complex product must be consistent:
    # naive (finite) dominates the true value, and scaling naive by the
    # certified tail factor cannot overshoot the upper end
    rng = random.Random(99)
    for _ in range(40):
        xi = rng.randint(1, 10**7)
        cert = mu_hat_modulus(xi, medium_system, eps=1e-9)
        naive = naive_mu_hat(xi, medium_system)
        assert naive >= cert.lo - 1e-7
        assert naive * math.exp(cert.tail_bound_log) <= cert.hi + 1e-7


def test_mu_hat_tail_not_certifiable(toy_schedule):
    sysm = binary_system(toy_schedule, Fraction(1, 2))
    with pytest.raises(TailNotCertifiable):
        mu_hat_modulus(10**9, sysm, eps=1e-12)


def test_mu_hat_rejects_bad_eps(small_system):
    with pytest.raises(InvalidParameter):
        mu_hat_modulus(1, small_system, eps=0.0)
    with pytest.raises(InvalidParameter):
        mu_hat_modulus(1, small_system, eps=2.0)


def test_digit_decay_trivial_cases(small_system):
    assert digit_decay_bound(0, small_system) == (0, 1.0)
    # digit 1 sits below the window [2, 4] of the base-7 position
    assert digit_decay_bound(1, small_system) == (0, 1.0)


def test_digit_decay_three_window_positions():
    # one middle-third digit in each of the bases 7, 11, 13
    sch = PrimeSchedule(d=1, q=(7, 11, 13), ell=(1, 2, 2))
    sysm = binary_system(sch, Fraction(1, 2))
    xi = 2 + 3 * 7 + 0 * 77 + 4 * 847  # digits (2, 3, 0, 4) in bases 7, 11, 11, 13
    w, bound = digit_decay_bound(xi, sysm)
    assert w == 3
    assert bound == pytest.approx((math.sqrt(3) / 2) ** 3, abs=1e-12)
    # at omega = 1/2 both the sharp and the paper's gamma are sqrt(3/4)
    assert sysm._window_gamma == math.sqrt(0.75)


def test_decay_bound_dominates_certified_lo(medium_schedule, medium_system):
    rng = random.Random(314159)
    for _ in range(200):
        xi = rng.randint(0, medium_schedule.N[4])
        cert = mu_hat_modulus(xi, medium_system, eps=1e-9) if xi else None
        w, bound = digit_decay_bound(xi, medium_system)
        if cert is not None:
            assert cert.lo <= bound + 1e-9


def test_forced_middle_digits_push_hi_down(medium_schedule, medium_system):
    # xi whose first five digits all sit at floor(q/3)
    bases = medium_schedule.bases(5)
    xi = 0
    weight = 1
    for q in bases:
        xi += (q // 3) * weight
        weight *= q
    w, bound = digit_decay_bound(xi, medium_system)
    assert w == 5
    cert = mu_hat_modulus(xi, medium_system, eps=1e-9)
    assert cert.hi <= bound + (cert.hi - cert.lo) + 1e-12


# weights of digit 0 across (0, 1), out to 10^-6 from either end
OMEGAS = st.one_of(
    st.integers(1, 999).map(lambda k: Fraction(k, 1000)),
    st.sampled_from([Fraction(1, 10**6), 1 - Fraction(1, 10**6), Fraction(1, 10)]),
)


@st.composite
def window_digit_frequencies(draw):
    """(system, xi): one omega or one per level, and xi whose first few
    digits each sit in the middle-third window of their base or anywhere."""
    sch = build_schedule(d=2, count=7)
    if draw(st.booleans()):
        sysm = binary_system(sch, draw(OMEGAS))
    else:
        omegas = draw(st.lists(OMEGAS, min_size=sch.depth, max_size=sch.depth))
        sysm = MoranSystem(sch, ((0, 1),) * sch.depth, tuple((o, 1 - o) for o in omegas))
    xi, weight = 0, 1
    for q in sch.bases(draw(st.integers(1, 10))):
        third = q // 3
        xi += draw(st.one_of(st.integers(third, 2 * third), st.integers(0, q - 1))) * weight
        weight *= q
    return sysm, xi


@settings(max_examples=150, deadline=None)
@given(window_digit_frequencies())
def test_decay_bound_holds_for_every_omega(case):
    # gamma must come from the system's own weights: with sqrt(3/4) from the
    # weights (1/2, 1/2), omega = 1/10 puts lo above gamma^w
    sysm, xi = case
    w, bound = digit_decay_bound(xi, sysm)
    cert = mu_hat_modulus(xi, sysm, eps=1e-9)
    assert cert.lo <= bound
    assert mp_mu_hat(xi, sysm, dps=40) <= mpmath.mpf(bound)


def test_fractional_part_sandwich(medium_schedule):
    # digit d at position L_s + k pins frac(N / (N_s q^{k+1})) inside [d/q, (d+1)/q]
    rng = random.Random(271828)
    sch = medium_schedule
    for _ in range(300):
        N = rng.randint(0, sch.N[-1] - 1)
        s = rng.randint(0, len(sch.q) - 1)
        k = rng.randint(0, sch.ell[s] - 1)
        q = sch.q[s]
        digit = to_digits(N, sch, length=sch.depth).digits[sch.L[s] + k]
        frac = Fraction(N, sch.N[s] * q ** (k + 1)) % 1
        assert Fraction(digit, q) <= frac <= Fraction(digit + 1, q)


def test_window_decay_for_wider_digit_sets(toy_schedule):
    # {0,1,2} digits weighted (1/4, 1/2, 1/4) are {0,1} + {0,1}, so gamma is
    # the {0,1} factor's sqrt(1 - w0 w1) = sqrt(3/4) at w0 = w1 = 1/2; uniform
    # {0,1,2} digits and {0, 6} digits are no such sum, and are refused
    sch = PrimeSchedule(d=1, q=(7, 11), ell=(1, 2))
    third, quarter, half = Fraction(1, 3), Fraction(1, 4), Fraction(1, 2)
    summed = MoranSystem(
        schedule=sch,
        digit_sets=((0, 1, 2),) * 3,
        weights=((quarter, half, quarter),) * 3,
    )
    w, bound = digit_decay_bound(2 + 4 * 7, summed)
    assert w == 2 and bound == pytest.approx(0.75)
    assert mp_mu_hat(2 + 4 * 7, summed, dps=40) <= mpmath.mpf(bound)

    wide = MoranSystem(
        schedule=sch,
        digit_sets=((0, 1, 2),) * 3,
        weights=((third, third, third),) * 3,
    )
    spread = MoranSystem(
        schedule=sch,
        digit_sets=((0, 6), (0, 1), (0, 1)),
        weights=((half, half),) * 3,
    )
    for sysm in (wide, spread):
        with pytest.raises(InvalidParameter):
            digit_decay_bound(2, sysm)


def _trig_sweep() -> list[float]:
    # t = a +- 2^-k and +-256 ulps around the quarter points, plus seeded
    # random doubles, all in [0, 1) where the transform evaluates cos and sin
    points = set()
    for a in (0.0, 0.25, 0.5, 0.75, 1.0):
        points.update(a + sign * 2.0**-k for k in range(60) for sign in (-1, 1))
        below = above = a
        for _ in range(256):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            points.update((below, above))
    rng = random.Random(2**48)
    points.update(rng.random() for _ in range(4000))
    return sorted(t for t in points if 0.0 <= t < 1.0)


def test_libm_trig_stays_within_half_the_pad():
    # every certificate pads math.cos / math.sin of 2.0 * math.pi * t by
    # _TRIG_PAD; the error budget derived beside it is a quarter of the pad
    worst = 0.0
    with mpmath.workdps(40):
        two_pi = 2 * mpmath.pi
        for t in _trig_sweep():
            arg = 2.0 * math.pi * t
            exact = two_pi * mpmath.mpf(t)
            worst = max(
                worst,
                abs(mpmath.mpf(math.cos(arg)) - mpmath.cos(exact)),
                abs(mpmath.mpf(math.sin(arg)) - mpmath.sin(exact)),
            )
    assert worst <= _TRIG_PAD / 2, float(worst)


@pytest.mark.parametrize(
    "call, error, code",
    [
        pytest.param(lambda sysm: CertifiedModulus(0.5, 0.25, 1, 0.0), InvalidParameter, 2,
                     id="certified-modulus-enclosure"),
        pytest.param(lambda sysm: CertifiedModulus(0.25, 0.5, 1, 0.5), InvalidParameter, 2,
                     id="certified-modulus-positive-log"),
        pytest.param(lambda sysm: mask_interval(0, Fraction(1, 3), sysm), OutOfRange, 3,
                     id="mask-level-0"),
        pytest.param(lambda sysm: mask_interval(sysm.depth + 1, Fraction(1, 3), sysm),
                     OutOfRange, 3, id="mask-level-past-the-depth"),
    ],
)
def test_caller_errors(small_system, call, error, code):
    with pytest.raises(error) as info:
        call(small_system)
    assert type(info.value) is error and info.value.exit_code == code
