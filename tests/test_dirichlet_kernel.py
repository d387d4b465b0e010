"""The convolved level kind against independent 40-digit references.

A level whose digits are D + E, with D = {0,1} weighted (w0, w1) and E
uniform on {0, s, ..., s(K-1)}, has the mask

    |w0 + w1 e^(-2 pi i t)| * |sin(pi K s t)| / (K |sin(pi s t)|).

`fourier._build_level` recognises the kind from the exact digit polynomial,
and `fourier._dirichlet` encloses the second factor from exactly reduced
sine arguments. These tests compare enclosures with mpmath: the digit sum of
`oracles.mp_level_mask`, and the closed form `oracles.mp_convolved_mask`,
whose zeros are exact. They run at random arguments and at arguments next to
the factor's zeros and its removable singularity, and never compare bytes.
"""

import math
import random
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranlab import (
    GaugeFunction,
    InvalidParameter,
    MoranSystem,
    PrimeSchedule,
    TailNotCertifiable,
    binary_system,
    build_convolved,
    build_schedule,
    digit_decay_bound,
    mu_hat_modulus,
    normality_report,
    sample_point,
    uniqueness_avoidance,
)
from moranlab.fourier import (
    _SIN_PAD,
    _binary_mask,
    _build_level,
    _dirichlet,
    _level_mask,
    _tail_log_bound,
    mask_interval,
)

from oracles import convolution, mp_convolved_mask, mp_dirichlet, mp_level_mask, mp_mu_hat

PHI = GaugeFunction(kind="r_times_log_power", param=1.0)
VARIANTS = ("dim-one", "gauge", "extreme")
OMEGAS = (Fraction(1, 2), Fraction(1, 3))


@lru_cache(maxsize=None)
def _schedule(name: str) -> PrimeSchedule:
    return {"medium": build_schedule(d=2, count=7), "deep": build_schedule(d=2, count=14)}[name]


@lru_cache(maxsize=None)
def _convolved(schedule: str, variant: str, omega: Fraction):
    base = binary_system(_schedule(schedule), omega)
    return build_convolved(base, variant, None if variant == "dim-one" else PHI)


CONVOLVED = [(v, o) for v in VARIANTS for o in OMEGAS]


def _levels(sysm):
    """(n, level) for the first level of each distinct level object."""
    seen = {}
    for n, level in enumerate(sysm._levels, start=1):
        seen.setdefault(id(level), (n, level))
    return list(seen.values())


# --------------------------------------------------------------------------
# recognition


@pytest.mark.parametrize("variant, omega", CONVOLVED)
def test_recognised_factors_are_the_construction_sets(variant, omega):
    # the base weights and the even or full sets E_n of build_convolved
    csys = _convolved("medium", variant, omega)
    for n, level in enumerate(csys._levels, start=1):
        E = csys.nu_sets[n - 1]
        assert level.pair == (omega, 1 - omega)
        assert level.count == len(E) >= 2
        assert level.step == E[1] - E[0]
        assert E == tuple(range(0, level.step * level.count, level.step))


def test_binary_levels_have_no_dirichlet_factor():
    sysm = binary_system(_schedule("medium"), Fraction(2, 7))
    for level, w in zip(sysm._levels, sysm.weights):
        assert level.pair is w and (level.step, level.count) == (1, 1)


@st.composite
def convolutions(draw):
    """A {0,1} pair plus a uniform progression, as (pair, step, count)."""
    w0 = Fraction(draw(st.integers(1, 99)), 100)
    return (w0, 1 - w0), draw(st.integers(1, 6)), draw(st.integers(2, 7))


@settings(max_examples=200, deadline=None)
@given(convolutions())
def test_every_convolution_is_recognised(case):
    pair, step, count = case
    level = _build_level(*convolution(pair, step, count))
    assert (level.pair, level.step, level.count) == case


@settings(max_examples=300, deadline=None)
@given(convolutions(), st.data())
def test_a_recognised_level_is_the_convolution_of_its_factors(case, data):
    # move weight 1/1000 between two digits: the level is either refused or
    # again exactly the convolution of the factors it is recognised by
    digits, w = convolution(*case)
    i, j = data.draw(st.lists(st.integers(0, len(w) - 1), min_size=2, max_size=2, unique=True))
    moved = list(w)
    delta = min(Fraction(1, 1000), w[i] / 2)
    moved[i] -= delta
    moved[j] += delta
    try:
        level = _build_level(digits, tuple(moved))
    except InvalidParameter as exc:
        assert exc.exit_code == 2
    else:
        assert convolution(level.pair, level.step, level.count) == (digits, tuple(moved))


THIRD, HALF = Fraction(1, 3), Fraction(1, 2)
OTHER_LEVELS = [
    ((0, 1, 2), (THIRD,) * 3),
    ((0, 6), (HALF, HALF)),
    ((0, 2), (Fraction(1, 4), Fraction(3, 4))),
    ((1, 2), (HALF, HALF)),
    ((0,), (Fraction(1),)),
    ((0, 1, 3), (THIRD,) * 3),
    ((0, 1, 2, 3), (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10))),
    ((0, 1, 3, 4), (Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8))),
]


@pytest.mark.parametrize("digits, w", OTHER_LEVELS, ids=str)
def test_other_levels_are_refused(digits, w):
    with pytest.raises(InvalidParameter) as info:
        _build_level(digits, w)
    assert info.value.exit_code == 2


def test_a_refused_system_still_samples():
    # uniform {0,1,2} digits are no convolution of {0,1}: the transform
    # refuses them for every frequency, sampling and its verdicts do not
    sch = PrimeSchedule(d=1, q=(7, 11), ell=(1, 2))
    sysm = MoranSystem(sch, ((0, 1, 2),) * 3, ((THIRD,) * 3,) * 3)
    for call in (
        lambda: mu_hat_modulus(0, sysm, 1e-9),
        lambda: mu_hat_modulus(30, sysm, 1e-9),
        lambda: digit_decay_bound(0, sysm),
        lambda: digit_decay_bound(30, sysm),
        lambda: mask_interval(1, Fraction(1, 3), sysm),
    ):
        with pytest.raises(InvalidParameter) as info:
            call()
        assert type(info.value) is InvalidParameter and info.value.exit_code == 2
    point = sample_point(sysm, seed=5, depth=3)
    assert all(d in (0, 1, 2) for d in point.digits)
    assert [report.base for report in normality_report(point.value, (2, 3))] == [2, 3]
    assert uniqueness_avoidance(point.value, sysm, 2).j_max == 2


# --------------------------------------------------------------------------
# the Dirichlet factor


def _odd_moduli() -> list[int]:
    rnd = random.Random(47)
    out = {7, 77, 1001, 2**61 - 1, 10**80 + 129}
    out |= set(_schedule("deep").prefix_products()[::9])
    out |= {2 * rnd.randrange(2**k, 2**(k + 1)) + 1 for k in (20, 60, 200, 1000) for _ in range(3)}
    return sorted(out)


def _dirichlet_cases() -> list[tuple[int, int, int]]:
    """(v, K, P): random v, v next to 0 and P (the removable singularity),
    and v next to the zeros j P / K, also a few 2^-53 steps in t off them."""
    rnd = random.Random(2**47)
    cases = []
    for P in _odd_moduli():
        for K in (2, 3, 7, 172, 1289):
            vs = {rnd.randrange(1, P) for _ in range(6)}
            vs |= {1, 2, 5, P - 1, P - 3, P // 2, P // 2 + 1}
            for j in (1, K // 2, K - 1):
                centre = j * P // K
                vs |= {centre + k for k in range(-3, 4)}
                vs |= {round((Fraction(j, K) + m * Fraction(1, 2**53)) * P) for m in (-4, 4)}
            cases += [(v % P, K, P) for v in sorted(vs)]
    return cases


DIRICHLET_CASES = _dirichlet_cases()


def test_dirichlet_brackets_the_closed_form():
    assert len(DIRICHLET_CASES) > 1000
    with mpmath.workdps(40):
        for v, K, P in DIRICHLET_CASES:
            lo, hi = _dirichlet(v, K, P)
            true = mp_dirichlet(v, K, P)
            assert mpmath.mpf(lo) <= true <= mpmath.mpf(hi), (v, K, P)
            assert 0.0 <= lo <= hi <= 1.0
            assert hi - lo <= 2.0**-44 * float(true) + 2.0**-52, (v, K, P)


def _quotient(v: int, K: int, P: int) -> float:
    # the factor's float quotient of two libm sines, on folded arguments
    v = min(v, P - v)
    u = K * v % P
    u = min(u, P - u)
    return math.sin(math.pi * (u / P)) / (K * math.sin(math.pi * (v / P)))


def _quotient_cases():
    # the cases past the kernel's two integer branches
    for v, K, P in DIRICHLET_CASES:
        w = min(v, P - v)
        u = K * w % P
        if (K * w) << 32 >= P and min(u, P - u) << 900 >= P:
            yield v, K, P


def test_dirichlet_quotient_stays_within_a_quarter_of_the_pad():
    # the pad's error budget, checked where the quotient is used
    worst = mpmath.mpf(0)
    with mpmath.workdps(40):
        for v, K, P in _quotient_cases():
            true = mp_dirichlet(v, K, P)
            worst = max(worst, abs(mpmath.mpf(_quotient(v, K, P)) / true - 1))
    assert worst <= _SIN_PAD / 4, float(worst)


def test_dirichlet_rounds_the_padded_quotient_outward():
    # lo <= q (1 - pad) and q (1 + pad) <= hi as real numbers (hi clamps at 1)
    with mpmath.workdps(60):
        pad = mpmath.mpf(_SIN_PAD)
        for v, K, P in _quotient_cases():
            lo, hi = _dirichlet(v, K, P)
            q = mpmath.mpf(_quotient(v, K, P))
            assert mpmath.mpf(lo) <= q * (1 - pad), (v, K, P)
            assert hi == 1.0 or q * (1 + pad) <= mpmath.mpf(hi), (v, K, P)


def test_dirichlet_at_its_removable_singularity_and_zeros():
    # v = 0: the factor is 1; K v = 0 mod P: it is 0
    for P in (7, 847, 10**80 + 129):
        lo, hi = _dirichlet(0, 5, P)
        assert lo <= 1.0 == hi
    for K, P in ((7, 7 * 11), (3, 3 * 10**40 + 3)):
        lo, hi = _dirichlet(P // K, K, P)
        assert lo == 0.0 <= hi <= 2.0**-800


# --------------------------------------------------------------------------
# whole levels


def _level_cases(sysm):
    """(n, level, r, P): residues at random, next to 0, P / 2 and P (the
    singularities of step 1 and 2) and next to the zeros j P / (K s)."""
    rnd = random.Random(repr(sysm.weights[0]))
    prefix = sysm.schedule.prefix_products()
    for n, level in _levels(sysm):
        for P in (prefix[n - 1], prefix[-1]):
            period = level.step * level.count
            rs = {rnd.randrange(1, P) for _ in range(8)}
            rs |= {1, 2, P - 1, P // 2, P // 2 + 1}
            for j in (1, period // 2, period - 1):
                centre = j * P // period
                rs |= {centre + k for k in range(-2, 3)}
                rs |= {round((Fraction(j, period) + m * Fraction(1, 2**53)) * P) for m in (-3, 3)}
            for r in sorted(rs):
                if 0 < r < P:
                    yield n, level, r, P


@pytest.mark.parametrize("variant, omega", CONVOLVED)
def test_level_mask_brackets_the_digit_sum(variant, omega):
    sysm = _convolved("medium", variant, omega)
    with mpmath.workdps(40):
        for n, level, r, P in _level_cases(sysm):
            lo, hi = _level_mask(level, r, P)
            true = mp_level_mask(sysm.digit_sets[n - 1], sysm.weights[n - 1], r, P)
            assert mpmath.mpf(lo) <= true <= mpmath.mpf(hi), (n, r, P)
            # the Dirichlet factor widens the {0,1} factor's enclosure by
            # little: that one is wide only next to its own zero
            b_lo, b_hi = _binary_mask(level.gain, r / P)
            assert hi - lo <= b_hi - b_lo + 2.0**-43, (n, r, P)


@pytest.mark.parametrize("variant, omega", CONVOLVED)
def test_closed_form_equals_the_digit_sum(variant, omega):
    # the factorisation the kernel relies on, at 40 digits
    sysm = _convolved("medium", variant, omega)
    with mpmath.workdps(40):
        for n, level, r, P in list(_level_cases(sysm))[::7]:
            closed = mp_convolved_mask(level.pair, level.step, level.count, r, P)
            digit_sum = mp_level_mask(sysm.digit_sets[n - 1], sysm.weights[n - 1], r, P)
            assert abs(closed - digit_sum) <= mpmath.mpf(10) ** -35


@pytest.mark.parametrize("variant, omega", CONVOLVED)
def test_mask_interval_at_exact_zeros_and_near_the_singularity(variant, omega):
    # at t = j / (K s) the closed form is an exact 0, and at t = 1 / P for a
    # huge P it is within 10^-100 of 1: both ends are sharp there
    sysm = _convolved("medium", variant, omega)
    with mpmath.workdps(40):
        for n, level in _levels(sysm):
            period = level.step * level.count
            for j in range(1, period):
                if j % level.count == 0:
                    continue  # s t is an integer: the removable singularity
                t = Fraction(j, period)
                lo, hi = mask_interval(n, t, sysm)
                true = mp_convolved_mask(level.pair, level.step, level.count, t.numerator, t.denominator)
                assert true == 0 and lo == 0.0 <= hi <= 2.0**-800, (n, t)
            for P in (10**200 + 1, 3**500):
                lo, hi = mask_interval(n, Fraction(1, P), sysm)
                true = mp_convolved_mask(level.pair, level.step, level.count, 1, P)
                assert mpmath.mpf(lo) <= true <= mpmath.mpf(hi) == 1, (n, P)


@pytest.mark.parametrize("variant, omega", CONVOLVED)
def test_mask_interval_at_one_half_is_the_exact_half_mask_times_the_factor(variant, omega):
    # at t = 1/2 the mask is the exact rational |sum_d w_d (-1)^d|, and the
    # {0,1} factor has no trigonometric error to pad: the padded cosine would
    # bracket it by a width of 4.6e-8 about 0 where w0 = w1
    sysm = _convolved("medium", variant, omega)
    binary = binary_system(_schedule("medium"), omega)
    for n, level in _levels(sysm):
        digits, weights = sysm.digit_sets[n - 1], sysm.weights[n - 1]
        exact = abs(sum(w * (-1) ** d for d, w in zip(digits, weights)))
        for t in (Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2)):
            lo, hi = mask_interval(n, t, sysm)
            assert Fraction(lo) <= exact <= Fraction(hi), (n, t)
            assert hi - lo <= 2.0**-50, (n, t)
        if exact == 0:
            half = Fraction(1, 2)
            assert mask_interval(n, half, sysm)[1] <= 2 * mask_interval(n, half, binary)[1]


# --------------------------------------------------------------------------
# the transform


def _frequencies(sysm, count: int) -> list[int]:
    """Random frequencies, the prefix products P_N of criterion 13 and
    residues next to the zeros and the singularity of level N."""
    rnd = random.Random(count)
    prefix = sysm.schedule.prefix_products()
    xis = [rnd.randrange(1, min(10**k, prefix[-9])) for k in (3, 12, 30, 60) for _ in range(2)]
    for N in (5, 20, 60):
        if N < sysm.depth - 8:
            P = prefix[N - 1]
            level = sysm._levels[N - 1]
            period = level.step * level.count
            xis += [P, P - 1, P // 2, P // 2 + 1, P // period + 1, 2 * P // period - 1]
    return xis[:count]


@pytest.mark.parametrize("schedule", ["medium", "deep"])
@pytest.mark.parametrize("variant, omega", CONVOLVED)
def test_mu_hat_brackets_the_40_digit_product(schedule, variant, omega):
    sysm = _convolved(schedule, variant, omega)
    count = 22 if schedule == "medium" else 8
    for xi in _frequencies(sysm, count):
        true = mp_mu_hat(xi, sysm, dps=40)
        for eps in (1e-6, 1e-12):
            cert = mu_hat_modulus(xi, sysm, eps)
            assert mpmath.mpf(cert.lo) <= true <= mpmath.mpf(cert.hi), (xi, eps)
            assert cert.hi - cert.lo <= eps, (xi, eps)


def _tail_fits(xi: int, sysm, eps: float) -> bool:
    # whether some level past xi < P_n has a tail bound within eps / 2
    return any(
        xi < P and _tail_log_bound(xi / P, sysm.is_binary) <= eps / 2
        for P in sysm.schedule.prefix_products()
    )


@pytest.mark.parametrize("variant", VARIANTS)
def test_tail_not_certifiable_exactly_where_no_tail_bound_fits(variant):
    sysm = _convolved("medium", variant, Fraction(1, 2))
    top = sysm.schedule.prefix_products()[-1]
    for xi in (top // 10**9, top // 10**6, top // 1000, top - 1, top, 5 * top):
        for eps in (1e-3, 1e-9, 1e-15):
            if _tail_fits(xi, sysm, eps):
                assert mu_hat_modulus(xi, sysm, eps).truncation_level >= 1
            else:
                with pytest.raises(TailNotCertifiable):
                    mu_hat_modulus(xi, sysm, eps)
