"""Orders, splitting exponents, and the derived (b, h) constants."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from moranlab import (
    BaseContext,
    EvenPrime,
    Factorization,
    InvalidParameter,
    NotCoprime,
    OutOfRange,
    PrimeSchedule,
    ScheduleTooShort,
    TooLarge,
    alpha_constant,
    build_context,
    build_schedule,
    derived_stirling_constants,
    euler_phi,
    integer_J,
    k_of,
    multiplicative_order,
    order_by_crt,
    ord_ratio_check,
    prime_power_order,
    round_threshold,
)
from moranlab.numtheory import (
    ALPHA_SIXTH,
    ROUND_THRESHOLD,
    _trial_factor,
    _valuation,
    reduced_modulus,
)

from oracles import brute_order, round_threshold_holds, round_threshold_search


def test_multiplicative_order_examples():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(10, 7) == 6
    with pytest.raises(NotCoprime):
        multiplicative_order(7, 14)


def test_prime_power_order_examples():
    assert prime_power_order(2, 7, 1) == 3
    assert prime_power_order(2, 7, 2) == 21  # k(2,7)=1, so order grows by 7
    # k(3,11)=2: order mod 11^3 is ord_11(3) * 11^(3-2)
    assert prime_power_order(3, 11, 3) == multiplicative_order(3, 11) * 11
    assert prime_power_order(3, 11, 3) == brute_order(3, 11**3)
    with pytest.raises(EvenPrime):
        prime_power_order(3, 2, 1)
    with pytest.raises(NotCoprime):
        prime_power_order(7, 7, 2)
    with pytest.raises(InvalidParameter, match="not prime"):
        prime_power_order(2, 9, 0)  # the prime is checked before the exponent
    with pytest.raises(InvalidParameter, match="exponent"):
        prime_power_order(2, 7, 0)
    with pytest.raises(InvalidParameter):
        prime_power_order(1, 7, 1)


def test_order_by_crt_examples():
    assert order_by_crt(2, Factorization.of(77)) == 30
    assert order_by_crt(2, Factorization.of(7)) == 3
    assert order_by_crt(2, Factorization.of(847)) == 330
    with pytest.raises(NotCoprime):
        order_by_crt(2, Factorization.of(14))


@pytest.mark.parametrize("odd_part", [(), ((13, 1),), ((13, 5),)])
def test_two_power_orders_far_past_brute_range(odd_part):
    # the 2-part descends from 2^e; checked against the descent over the
    # whole modulus for every e <= 64, and by brute force where it is cheap
    rng = random.Random(2**64 + 13)
    bases = [3, 5, 7, 2**32 + 1, 2**64 - 1]
    bases += [rng.randrange(3, 2**80, 2) for _ in range(5)]
    bases = [a for a in bases if a % 13]
    for e in range(1, 65):
        f = Factorization(((2, e),) + odd_part)
        for a in bases:
            order = order_by_crt(a, f)
            assert order == multiplicative_order(a, f.n), (a, e)
            if e <= 14 and f.n < 2**18:
                assert order == brute_order(a, f.n), (a, e)


def test_k_of_examples():
    assert k_of(2, 7) == 1  # 2^3 - 1 = 7
    assert k_of(3, 11) == 2  # 3^5 - 1 = 242 = 2 * 11^2
    assert k_of(2, 11) == 1  # 2^10 - 1 = 1023 = 3 * 11 * 31
    with pytest.raises(EvenPrime):
        k_of(3, 2)
    with pytest.raises(NotCoprime):
        k_of(7, 7)
    with pytest.raises(InvalidParameter):
        k_of(2, 9)
    with pytest.raises(InvalidParameter):
        k_of(1, 7)


def test_k_of_respects_power_bound():
    # q^k <= b^(q-1) since q^k divides b^ord - 1 <= b^(q-1) - 1
    for b in (2, 3, 10, 14):
        for q in (7, 11, 13, 17):
            if b % q:
                assert q ** k_of(b, q) <= b ** (q - 1)


ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 97, 101, 1093, 3511]


@settings(max_examples=300)
@given(
    st.integers(min_value=2, max_value=10**4),
    st.sampled_from(ODD_PRIMES),
    st.integers(min_value=1, max_value=4),
)
@example(2, 1093, 2)  # Wieferich: k_of(2, 1093) = 2
@example(3, 11, 3)  # k_of(3, 11) = 2
@example(10, 3, 3)  # 10 - 1 = 3^2
def test_prime_power_order_lifting_identity(a, p, j):
    # ord_{p^j}(a) = d if k >= j else d p^(j-k), d = ord_p(a), k = k_of(a, p)
    assume(a % p)
    d = multiplicative_order(a, p)
    k = k_of(a, p)
    expected = d if k >= j else d * p ** (j - k)
    assert prime_power_order(a, p, j) == expected == multiplicative_order(a, p**j)


def test_euler_phi_prime_powers():
    for p in (7, 11, 13):
        for k in (1, 2, 3):
            assert euler_phi(p**k) == (p - 1) * p ** (k - 1)
    assert euler_phi(77) == 60
    assert euler_phi(847) == 660


def test_factorization_round_trip():
    f = Factorization.of(2**3 * 7 * 11**2)
    assert f.n == 2**3 * 7 * 11**2
    assert dict(f) == {2: 3, 7: 1, 11: 2}


def test_alpha_constant_brackets():
    assert ALPHA_SIXTH == Fraction(8192, 8325)
    # 0.9973 < alpha < 0.998, certified through exact sixth powers
    assert Fraction(9973, 10000) ** 6 < ALPHA_SIXTH < Fraction(998, 1000) ** 6
    assert alpha_constant() == pytest.approx(0.9973194378783357, abs=1e-15)


def test_stirling_constants():
    c1, c_tilde = derived_stirling_constants()
    assert c1 == Fraction(7, 500)
    assert c_tilde == Fraction(7, 250)


def test_round_threshold_exact_minimality():
    # the literal against a fresh Newton-plus-stepping search
    R = round_threshold()
    assert R == ROUND_THRESHOLD == round_threshold_search() == 19797

    holds = round_threshold_holds
    # fails at the monotonicity guard x = 2002 and just below R, holds from R on
    assert not holds(2002)
    assert not holds(R - 1)
    assert holds(R) and holds(R + 1) and holds(2 * R)


def test_build_context_toy(toy_schedule):
    ctx = build_context(2, 1, toy_schedule)
    assert ctx.r0_prime == 1
    assert ctx.n0 == 1
    assert ctx.Q == 1
    assert ctx.k == (0, 1)
    assert ctx.j == (1, 1)
    assert ctx.r0 == 1
    assert ctx.gamma == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
    assert ctx.r1 == ctx.r0 + 19797


def test_build_context_saturating_gcd():
    # b = 14 shares the prime 7 with the schedule: Q picks it up
    sch = PrimeSchedule(d=1, q=(7, 11), ell=(1, 2))
    ctx = build_context(14, 1, sch)
    assert ctx.Q == 7
    assert ctx.n0 == 1
    # with ell_1 = 2 the 7-adic valuation needs two steps to saturate
    sch2 = PrimeSchedule(d=1, q=(7, 11), ell=(2, 2))
    ctx2 = build_context(14, 1, sch2)
    assert ctx2.n0 == 2
    assert ctx2.Q == 49


def test_build_context_r0_prime_from_factors():
    # 10 = 2*5 and 6 = 2*3, so the first prime >= 5 qualifies
    sch = PrimeSchedule(d=1, q=(7, 11, 13), ell=(1, 2, 2))
    ctx = build_context(10, 6, sch)
    assert ctx.r0_prime == 1


def test_build_context_rejects():
    sch = PrimeSchedule(d=1, q=(7, 11), ell=(1, 2))
    with pytest.raises(InvalidParameter):
        build_context(1, 1, sch)
    with pytest.raises(InvalidParameter):
        build_context(2, 0, sch)
    with pytest.raises(InvalidParameter):
        build_context(2, 1, sch, weights=(Fraction(0), Fraction(1, 2)))
    # largest prime of b exceeds every schedule prime
    with pytest.raises(ScheduleTooShort):
        build_context(13, 1, PrimeSchedule(d=1, q=(7, 11), ell=(1, 2)))
    # flat tail where j_2 = ell_2 - k_2 = 0 leaves no free suffix
    with pytest.raises(ScheduleTooShort):
        build_context(2, 1, PrimeSchedule(d=1, q=(7, 11), ell=(1, 1)))


def test_ord_ratio_check_toy(toy_schedule):
    ctx = build_context(2, 1, toy_schedule)
    lhs, rhs = ord_ratio_check(ctx, 1)
    assert lhs == rhs == 330
    with pytest.raises(OutOfRange):
        ord_ratio_check(ctx, 0)
    with pytest.raises(OutOfRange):
        ord_ratio_check(ctx, 2)


def test_integer_J_toy(toy_schedule):
    ctx = build_context(2, 1, toy_schedule)
    assert integer_J(ctx, 2) == 30
    assert integer_J(ctx, 1) == 3  # ord_7(2), no suffix factors yet
    with pytest.raises(OutOfRange):
        integer_J(ctx, 0)


def test_context_json_fields(toy_schedule):
    import json

    ctx = build_context(2, 1, toy_schedule)
    obj = json.loads(ctx.to_json())
    assert obj["Q"] == "1"
    assert obj["k"] == [0, 1]
    assert obj["C_tilde"] == "7/250"


def test_esti_kr_bound_on_context():
    sch = build_schedule(d=2, count=7)
    ctx = build_context(2, 1, sch)
    c = sch.growth_constant
    for r in range(1, len(sch.q) + 1):
        assert ctx.j[r - 1] == sch.ell[r - 1] - ctx.k[r - 1]
        if r <= ctx.r0_prime:
            assert ctx.k[r - 1] == 0
        if r >= 2:
            assert ctx.k[r - 1] <= c * math.log(2) * r**2 / math.log(r)


def test_gcd_result_invariant():
    # gcd(h*b^n, N_s * q_{s+1}^j) stays equal to Q past the saturation point
    rng = random.Random(2026)
    cases = [
        (2, 1, PrimeSchedule(d=1, q=(7, 11), ell=(1, 2))),
        (14, 1, PrimeSchedule(d=1, q=(7, 11), ell=(2, 2))),
        (10, 6, PrimeSchedule(d=1, q=(7, 11, 13), ell=(1, 2, 2))),
        (21, 2, PrimeSchedule(d=1, q=(7, 11), ell=(1, 2))),
    ]
    for b, h, sch in cases:
        ctx = build_context(b, h, sch)
        for _ in range(50):
            n = rng.randint(ctx.n0, ctx.n0 + 20)
            s = rng.randint(ctx.r0_prime, len(sch.q) - 1)
            j = rng.randint(0, sch.ell[s])
            modulus = sch.N[s] * sch.q[s] ** j
            assert math.gcd(abs(h) * b**n, modulus) == ctx.Q
            assert math.gcd(b, modulus // ctx.Q) == 1


@given(
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=1, max_value=8),
)
def test_order_divides_larger_modulus(a, n, mult):
    m = n * mult
    if math.gcd(a, m) != 1:
        return
    assert multiplicative_order(a, m) % multiplicative_order(a, n) == 0


@settings(max_examples=200)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=2, max_value=400))
def test_order_matches_brute_force_and_divides_phi(a, n):
    if math.gcd(a, n) != 1:
        return
    order = multiplicative_order(a, n)
    assert order == brute_order(a, n)
    assert pow(a, euler_phi(n), n) == 1
    assert euler_phi(n) % order == 0


@pytest.mark.parametrize(
    "call, error, code",
    [
        pytest.param(lambda sch: Factorization(((3, 1), (2, 1))), InvalidParameter, 2,
                     id="factorization-primes-not-increasing"),
        pytest.param(lambda sch: Factorization(((9, 1),)), InvalidParameter, 2,
                     id="factorization-not-prime"),
        pytest.param(lambda sch: Factorization(((3, 0),)), InvalidParameter, 2,
                     id="factorization-exponent-zero"),
        pytest.param(lambda sch: Factorization.of(1), InvalidParameter, 2,
                     id="factorization-of-1"),
        pytest.param(lambda sch: euler_phi(0), InvalidParameter, 2, id="euler-phi-0"),
        pytest.param(lambda sch: multiplicative_order(1, 7), InvalidParameter, 2,
                     id="order-base-below-2"),
        pytest.param(lambda sch: multiplicative_order(3, 1), InvalidParameter, 2,
                     id="order-modulus-below-2"),
        pytest.param(lambda sch: order_by_crt(1, Factorization.of(7)), InvalidParameter, 2,
                     id="crt-base-below-2"),
        pytest.param(lambda sch: _valuation(0, 7), InvalidParameter, 2, id="valuation-of-0"),
        pytest.param(lambda sch: reduced_modulus(build_context(2, 1, sch), 0, 0),
                     OutOfRange, 3, id="reduced-modulus-s-below-r0-prime"),
        pytest.param(lambda sch: reduced_modulus(build_context(2, 1, sch), 1, -1),
                     OutOfRange, 3, id="reduced-modulus-j-negative"),
        pytest.param(lambda sch: reduced_modulus(build_context(2, 1, sch), 2, 1),
                     OutOfRange, 3, id="reduced-modulus-beyond-the-schedule"),
        pytest.param(lambda sch: reduced_modulus(build_context(2, 1, sch), 1, 3),
                     OutOfRange, 3, id="reduced-modulus-j-above-ell"),
        pytest.param(lambda sch: build_context(2, 11, PrimeSchedule(d=1, q=sch.q, ell=(1, 1))),
                     ScheduleTooShort, 3, id="context-r0-is-the-last-block"),
        # every input that trips the guard first divides by all candidates
        # up to 10^7, under a second on a 2-core VM
        pytest.param(lambda sch: _trial_factor(10000019**2), TooLarge, 5,
                     id="trial-factor-guard"),
    ],
)
def test_caller_errors(toy_schedule, call, error, code):
    with pytest.raises(error) as info:
        call(toy_schedule)
    assert type(info.value) is error and info.value.exit_code == code
