"""Schedule construction and exact mixed-radix digit arithmetic."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranlab import (
    InvalidParameter,
    MixedRadixDigits,
    NoPrimeInWindow,
    OutOfRange,
    PrimeSchedule,
    ScheduleTooShort,
    binary_system,
    build_schedule,
    is_prime,
    sample_point,
    to_digits,
)

from oracles import sieve_is_prime


def test_flat_schedule_first_three_primes():
    sch = build_schedule(d=1, count=3)
    assert sch.q == (7, 11, 13)
    assert sch.ell == (1, 1, 1)
    assert sch.N == (1, 7, 77, 1001)
    assert sch.depth == 3


def test_schedule_rejects_bad_parameters():
    with pytest.raises(InvalidParameter):
        build_schedule(d=1, count=0)
    with pytest.raises(InvalidParameter):
        build_schedule(d=0, count=3)
    with pytest.raises(InvalidParameter):
        PrimeSchedule(d=1, q=(5,), ell=(1,))  # first prime below 7
    with pytest.raises(InvalidParameter):
        PrimeSchedule(d=1, q=(7, 7), ell=(1, 1))
    with pytest.raises(InvalidParameter):
        PrimeSchedule(d=1, q=(7, 9), ell=(1, 1))  # 9 not prime
    with pytest.raises(InvalidParameter):
        PrimeSchedule(d=1, q=(7, 11), ell=(1, 0))


@pytest.mark.parametrize("q", [(7.0, 11), (7.5, 11), (7, 11.0)])
def test_schedule_rejects_non_integer_primes(q):
    # 7.0 used to pass is_prime and reach the bases; 7.5 raised a TypeError from pow()
    with pytest.raises(InvalidParameter, match="primes must be integers"):
        PrimeSchedule(d=1, q=q, ell=(1, 2))


def test_cube_window_smallest_prime_per_window():
    sch = build_schedule(d=1, count=2, variant="cube-window", offset=2)
    # windows [27, 64] and [64, 125]; sieve says the smallest primes are 29, 67
    flags = sieve_is_prime(125)
    expect = []
    for lo, hi in ((27, 64), (64, 125)):
        expect.append(next(p for p in range(lo, hi + 1) if flags[p]))
    assert sch.q == tuple(expect) == (29, 67)
    assert sch.variant == "cube-window(offset=2)"


def test_is_prime_agrees_with_sieve():
    flags = sieve_is_prime(20000)
    assert [n for n in range(20001) if is_prime(n)] == [n for n in range(20001) if flags[n]]


def test_is_prime_at_the_strong_pseudoprime_bounds():
    # psi_12 is a strong pseudoprime to every prime base 2..37; base 41 exposes it
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    assert is_prime(399165290221) and is_prime(798330580441)
    assert not is_prime(psi_12)
    # psi_13 is the first number the bases 2..41 cannot decide
    psi_13 = 3317044064679887385961981
    assert is_prime(2**61 - 1) and not is_prime(psi_13 - 2)
    for n in (psi_13, psi_13 + 2, 2**89 - 1):
        with pytest.raises(OutOfRange) as exc:
            is_prime(n)
        assert exc.value.exit_code == 3


def test_cube_window_requires_offset():
    with pytest.raises(InvalidParameter):
        build_schedule(d=1, count=2, variant="cube-window")
    with pytest.raises(InvalidParameter):
        build_schedule(d=1, count=2, variant="cube-window", offset=0)


def test_cube_window_growth_within_cubic_envelope():
    sch = build_schedule(d=2, count=12, variant="cube-window", offset=3)
    for n, p in enumerate(sch.q, start=1):
        assert (n + 3) ** 3 <= p <= (n + 4) ** 3


def test_default_multiplicities_follow_growth_exponent():
    assert build_schedule(d=1, count=4).ell == (1, 1, 1, 1)
    assert build_schedule(d=2, count=4).ell == (1, 2, 3, 4)
    assert build_schedule(d=3, count=4).ell == (1, 4, 9, 16)


def test_base_at_toy_schedule(toy_schedule):
    assert toy_schedule.base_at(1) == 7
    assert toy_schedule.base_at(2) == 11
    assert toy_schedule.base_at(3) == 11
    with pytest.raises(OutOfRange):
        toy_schedule.base_at(4)
    with pytest.raises(OutOfRange):
        toy_schedule.base_at(0)


def test_prefix_products_toy(toy_schedule):
    assert [toy_schedule.prefix_product(n) for n in range(4)] == [1, 7, 77, 847]
    assert toy_schedule.N == (1, 7, 847)
    assert toy_schedule.L == (0, 1, 3)
    assert toy_schedule.prefix_products() == (7, 77, 847)
    for bad in (-1, 4):
        with pytest.raises(OutOfRange):
            toy_schedule.prefix_product(bad)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 8))
def test_prefix_product_is_product_of_bases(d, count):
    sch = build_schedule(d=d, count=count)
    for n in range(sch.depth + 1):
        assert sch.prefix_product(n) == math.prod(sch.bases(n))
        assert sch.prefix_products()[:n] == tuple(sch.prefix_product(k) for k in range(1, n + 1))


def test_prefix_table_stays_out_of_equality_and_hash():
    a = build_schedule(d=2, count=5)
    b = build_schedule(d=2, count=5)
    before = hash(a)
    a.prefix_product(3)
    assert "_prefix" in vars(a) and "_prefix" not in vars(b)
    assert a == b and hash(a) == hash(b) == before
    assert "_prefix" not in repr(a)
    # sampling takes its denominator from the table, which it builds; the
    # table still stays out of equality and hash
    sample_point(binary_system(b), seed=1, depth=b.depth)
    assert "_prefix" in vars(b)
    assert a == b and hash(a) == hash(b) == before


def test_to_digits_examples():
    sch = PrimeSchedule(d=1, q=(7, 11), ell=(2, 1))
    got = to_digits(100, sch, length=3)
    assert got.digits == (2, 0, 2)
    assert got.bases == (7, 7, 11)
    assert got.value() == 100

    toy = PrimeSchedule(d=1, q=(7, 11), ell=(1, 2))
    got = to_digits(846, toy, length=3)
    assert got.digits == (6, 10, 10)
    assert got.bases == (7, 11, 11)


def test_to_digits_edge_cases(toy_schedule):
    assert to_digits(0, toy_schedule).digits == ()
    assert to_digits(0, toy_schedule, length=2).digits == (0, 0)
    with pytest.raises(ScheduleTooShort):
        to_digits(847, toy_schedule)  # needs a fourth position
    with pytest.raises(ScheduleTooShort):
        to_digits(7, toy_schedule, length=1)
    with pytest.raises(InvalidParameter):
        to_digits(-1, toy_schedule)


def test_digits_congruent_examples():
    # agreeing on the first n digits is congruence mod P_n = M_1 ... M_n
    sch = PrimeSchedule(d=1, q=(7, 11), ell=(2, 1))
    assert (100 - 51) % sch.prefix_product(2) == 0  # 100 - 51 = 49 = 7*7
    assert to_digits(100, sch, 3).digits[:2] == to_digits(51, sch, 3).digits[:2]
    assert to_digits(100, sch, 3).digits[:2] != to_digits(52, sch, 3).digits[:2]


def test_digit_bounds_enforced():
    with pytest.raises(InvalidParameter):
        MixedRadixDigits(digits=(7,), bases=(7,))
    with pytest.raises(InvalidParameter):
        MixedRadixDigits(digits=(1, 2), bases=(7,))


def test_level_of_positions(small_schedule):
    # position n = L_s + (j+1), 0 <= j < ell_{s+1}, has base q_{s+1}
    sch = small_schedule
    positions = [
        (sch.L[s] + j + 1, p) for s, (p, m) in enumerate(zip(sch.q, sch.ell)) for j in range(m)
    ]
    assert [n for n, _ in positions] == list(range(1, sch.depth + 1))
    assert all(sch.base_at(n) == p for n, p in positions)


def test_json_round_trip(small_schedule):
    obj = json.loads(small_schedule.to_json())
    assert set(obj) == {"d", "variant", "q", "ell"}
    again = PrimeSchedule(obj["d"], tuple(obj["q"]), tuple(obj["ell"]), obj["variant"])
    assert again == small_schedule and again.variant == small_schedule.variant


@given(st.integers(min_value=0, max_value=7 * 11**2 * 13**3 - 1))
def test_digit_round_trip(N):
    sch = PrimeSchedule(d=1, q=(7, 11, 13), ell=(1, 2, 3))
    assert to_digits(N, sch, length=6).value() == N
    assert to_digits(N, sch).value() == N


@given(
    st.integers(min_value=0, max_value=846),
    st.integers(min_value=0, max_value=846),
    st.integers(min_value=0, max_value=3),
)
def test_congruence_matches_digit_prefix(a, b, n):
    toy = PrimeSchedule(d=1, q=(7, 11), ell=(1, 2))
    same_digits = to_digits(a, toy, length=3).digits[:n] == to_digits(b, toy, length=3).digits[:n]
    assert ((a - b) % toy.prefix_product(n) == 0) == same_digits


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=12))
def test_partial_products_recursion(d, count):
    sch = build_schedule(d=d, count=count)
    for r in range(1, count + 1):
        assert sch.N[r] == sch.N[r - 1] * sch.q[r - 1] ** sch.ell[r - 1]
        assert sch.L[r] == sch.L[r - 1] + sch.ell[r - 1]
    # prime growth stays quadratic for the stock variant, with constant q_1 = 7
    assert all(p <= 7 * r**2 for r, p in enumerate(sch.q, start=1))


@pytest.mark.parametrize(
    "call, error, code",
    [
        pytest.param(lambda sch: PrimeSchedule(d=0, q=(7,), ell=(1,)), InvalidParameter, 2,
                     id="schedule-d-zero"),
        # bool is an int subclass; True would be written to JSON as true
        pytest.param(lambda sch: PrimeSchedule(d=True, q=(7,), ell=(1,)), InvalidParameter, 2,
                     id="schedule-d-bool"),
        pytest.param(lambda sch: PrimeSchedule(d=1, q=(7,), ell=(True,)), InvalidParameter, 2,
                     id="schedule-ell-bool"),
        pytest.param(lambda sch: build_schedule(d=True, count=2), InvalidParameter, 2,
                     id="build-schedule-d-bool"),
        pytest.param(lambda sch: build_schedule(d=1, count=True), InvalidParameter, 2,
                     id="build-schedule-count-bool"),
        pytest.param(lambda sch: sch.bases(4), OutOfRange, 3, id="bases-past-the-depth"),
        pytest.param(lambda sch: to_digits(5, sch, length=4), ScheduleTooShort, 3,
                     id="to-digits-length-past-the-depth"),
        # a float N was written out as its own digit, a bool read as 0 or 1,
        # and a float length ended in a bare TypeError
        pytest.param(lambda sch: to_digits(3.5, sch), InvalidParameter, 2,
                     id="to-digits-float"),
        pytest.param(lambda sch: to_digits(True, sch), InvalidParameter, 2,
                     id="to-digits-bool"),
        pytest.param(lambda sch: to_digits(5, sch, 2.0), InvalidParameter, 2,
                     id="to-digits-float-length"),
        pytest.param(lambda sch: MixedRadixDigits(digits=(3.5,), bases=(7,)), InvalidParameter, 2,
                     id="digits-float"),
        pytest.param(lambda sch: MixedRadixDigits(digits=(True,), bases=(7,)), InvalidParameter,
                     2, id="digits-bool"),
    ],
)
def test_caller_errors(toy_schedule, call, error, code):
    with pytest.raises(error) as info:
        call(toy_schedule)
    assert type(info.value) is error and info.value.exit_code == code
