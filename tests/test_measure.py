"""Exact sampling, digit statistics, and interval avoidance."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranlab import (
    ConvolvedSystem,
    InvalidParameter,
    MoranSystem,
    NotInSupport,
    OutOfRange,
    PrimeSchedule,
    ScheduleTooShort,
    base_digits,
    binary_system,
    build_convolved,
    build_schedule,
    normality_report,
    sample_batch,
    sample_point,
    uniqueness_avoidance,
)
from moranlab.rng import cumulative_thresholds


def _degenerate_system(sch: PrimeSchedule, digit: int) -> MoranSystem:
    return MoranSystem(
        schedule=sch,
        digit_sets=((digit,),) * sch.depth,
        weights=((Fraction(1),),) * sch.depth,
    )


def test_sample_degenerate_zero(toy_schedule):
    sysm = _degenerate_system(toy_schedule, 0)
    pt = sample_point(sysm, seed=42, depth=3)
    assert pt.value == 0
    assert pt.digits == (0, 0, 0)


def test_sample_forced_digit_value(toy_schedule):
    # digits (1, 1) on bases 7, 11 give 1/7 + 1/77 = 12/77
    sysm = _degenerate_system(toy_schedule, 1)
    pt = sample_point(sysm, seed=0, depth=2)
    assert pt.value == Fraction(12, 77)


def test_sample_determinism_and_prefix(small_system):
    a = sample_point(small_system, seed=123, depth=10)
    b = sample_point(small_system, seed=123, depth=10)
    assert a == b
    shallow = sample_point(small_system, seed=123, depth=6)
    assert shallow.digits == a.digits[:6]
    with pytest.raises(ScheduleTooShort):
        sample_point(small_system, seed=1, depth=11)


def test_sample_value_formula(small_system):
    pt = sample_point(small_system, seed=9, depth=10)
    total = Fraction(0)
    P = 1
    for n, d in enumerate(pt.digits, start=1):
        P *= small_system.schedule.base_at(n)
        total += Fraction(d, P)
    assert pt.value == total
    assert 0 <= pt.value < 1
    assert P % pt.value.denominator == 0


def test_sample_batch_uses_derived_seeds(small_system):
    batch = sample_batch(small_system, seed=77, depth=8, count=5)
    for i, pt in enumerate(batch):
        assert pt == sample_point(small_system, 77 ^ i, 8)
    again = sample_batch(small_system, seed=77, depth=8, count=5)
    assert again == batch


def test_sample_weight_frequencies(small_schedule):
    # omega = 3/4 on digit 0: the digit-0 share of 4000 draws stays within 4 sigma
    sysm = binary_system(small_schedule, Fraction(3, 4))
    zeros = total = 0
    for pt in sample_batch(sysm, seed=5, depth=10, count=400):
        zeros += sum(1 for d in pt.digits if d == 0)
        total += len(pt.digits)
    sigma = (total * 3 / 16) ** 0.5
    assert abs(zeros - total * 3 / 4) < 4 * sigma


def test_base_digits_examples():
    digits, trusted = base_digits(Fraction(1, 2), 2, 5)
    assert digits == (1, 0, 0, 0, 0)
    assert trusted == 5  # terminating expansion: every digit exact
    digits, trusted = base_digits(Fraction(12, 77), 10, 4)
    assert digits == (1, 5, 5, 8)
    digits, trusted = base_digits(Fraction(1, 3), 3, 4)
    assert digits == (1, 0, 0, 0)
    assert trusted == 4


def test_base_digits_trust_window():
    # non-terminating: trust stops guard digits short of the denominator's capacity
    x = Fraction(1, 10**40 + 1)
    digits, trusted = base_digits(x, 10, 50)
    assert trusted == 40 - 8
    digits, trusted = base_digits(x, 10, 20, guard=4)
    assert trusted == 20  # capped by count only when capacity allows
    digits, trusted = base_digits(x, 10, 50, guard=0)
    assert trusted == 40  # guard 0 trusts the full capacity of the denominator
    with pytest.raises(InvalidParameter):
        base_digits(Fraction(3, 2), 10, 4)
    with pytest.raises(InvalidParameter):
        base_digits(Fraction(1, 3), 1, 4)


@pytest.mark.parametrize("x", [Fraction(1, 10**40 + 1), Fraction(1, 2)])
@pytest.mark.parametrize("guard", [-1, -40])
def test_negative_guard_is_rejected_up_front(x, guard):
    # a negative guard would trust digits past the log_b(den) the denominator carries
    with pytest.raises(InvalidParameter, match="guard"):
        base_digits(x, 10, 50, guard=guard)
    with pytest.raises(InvalidParameter, match="guard"):
        normality_report(x, [10], guard=guard)


def test_truncation_honesty(medium_system):
    # perturbing a sample by one ulp of the depth prefix never flips a
    # trusted digit (100 here; the full-size corpus runs in acceptance)
    sch = medium_system.schedule
    depth = sch.depth
    ulp = Fraction(1, sch.prefix_product(depth))
    for i in range(100):
        pt = sample_point(medium_system, seed=1000 ^ i, depth=depth)
        for b in (2, 10):
            d1, t1 = base_digits(pt.value, b, 64)
            d2, t2 = base_digits(pt.value + ulp, b, 64)
            assert d1[: min(t1, 64)] == d2[: min(t1, 64)]


def test_normality_report_guard_blanks_small_denominators():
    # 77 carries only ~6 bits of information: nothing survives the guard
    reports = normality_report(Fraction(12, 77), [2, 10])
    assert [r.base for r in reports] == [2, 10]
    for r in reports:
        assert r.periodic is True
        assert r.trusted_digit_count == 0
        assert sum(r.frequencies) == 0
        assert r.max_deviation == 1


def test_normality_zero_input():
    (report,) = normality_report(Fraction(0), [5], count=10)
    assert report.trusted_digit_count == 10
    assert report.frequencies[0] == 1
    assert report.max_deviation == Fraction(4, 5)


def test_normality_alternating_pattern():
    # 40-digit alternating binary pattern 0101...: balanced frequencies on an
    # even trusted window, flagged periodic like every rational
    x = Fraction(4**20 - 1, 3 * 4**20)
    digits, trusted = base_digits(x, 2, 40)
    assert digits == (0, 1) * 20
    assert trusted >= 32
    (report,) = normality_report(x, [2], count=32)
    assert report.frequencies == (Fraction(1, 2), Fraction(1, 2))
    assert report.max_deviation == 0
    assert report.periodic


def test_normality_deep_sample(medium_system):
    # a real sampled point: ~89 trusted binary digits at depth 28
    pt = sample_point(medium_system, seed=2026, depth=28)
    (report,) = normality_report(pt.value, [2])
    assert report.trusted_digit_count > 60
    assert report.max_deviation < Fraction(1, 4)
    assert sum(report.frequencies) == 1


def test_avoidance_example_12_77(toy_schedule):
    sysm = binary_system(toy_schedule, Fraction(1, 2))
    verdict = uniqueness_avoidance(Fraction(12, 77), sysm, j_max=2)
    assert verdict.passed
    assert verdict.verdict == "PASS"
    assert verdict.interval_lo == Fraction(2, 7)


def test_avoidance_rejects_non_support_points(toy_schedule):
    sysm = binary_system(toy_schedule, Fraction(1, 2))
    with pytest.raises(NotInSupport):
        uniqueness_avoidance(Fraction(6, 7), sysm, j_max=1)
    with pytest.raises(NotInSupport):
        uniqueness_avoidance(Fraction(1, 3), sysm, j_max=1)
    with pytest.raises(OutOfRange):
        uniqueness_avoidance(Fraction(12, 77), sysm, j_max=5)


@pytest.mark.parametrize("kind", ["plain", "dim-one"])
def test_avoidance_error_order(toy_schedule, kind):
    # x's range, then j_max, then membership: a bad j_max is reported before
    # an off-support x, whose digits the library derives itself
    sysm = binary_system(toy_schedule, Fraction(1, 2))
    target = sysm if kind == "plain" else build_convolved(sysm, "dim-one")
    too_many = toy_schedule.depth + 1
    with pytest.raises(InvalidParameter, match="x must lie in"):
        uniqueness_avoidance(Fraction(3, 2), target, j_max=0)
    for off_support in (Fraction(1, 3), Fraction(6, 7)):
        with pytest.raises(InvalidParameter, match="j_max must be >= 1"):
            uniqueness_avoidance(off_support, target, j_max=0)
        with pytest.raises(OutOfRange, match=f"j_max = {too_many} exceeds"):
            uniqueness_avoidance(off_support, target, j_max=too_many)
        with pytest.raises(NotInSupport):
            uniqueness_avoidance(off_support, target, j_max=1)


def test_avoidance_all_sampled_points(small_system):
    # the proof executed: every attractor point dodges (2L, 1) at every scale
    for pt in sample_batch(small_system, seed=314, depth=10, count=100):
        verdict = uniqueness_avoidance(pt.value, small_system, j_max=9)
        assert verdict.passed


def test_frequency_consistency(small_system):
    rng = random.Random(8)
    for _ in range(20):
        pt = sample_point(small_system, seed=rng.getrandbits(32), depth=10)
        for rep in normality_report(pt.value, [2, 3, 10]):
            if rep.trusted_digit_count > 0:
                assert sum(rep.frequencies) == 1


def test_threshold_table_per_level_and_out_of_equality_and_hash():
    sch = build_schedule(d=2, count=5)
    omegas = [Fraction(n, 2 * n + 1) for n in range(1, sch.depth + 1)]
    a = binary_system(sch, omegas)
    b = binary_system(sch, omegas)
    before = hash(a)
    sample_point(a, seed=7, depth=3)
    assert a._thresholds == tuple(cumulative_thresholds(w) for w in a.weights)
    assert "_thresholds" in vars(a) and "_thresholds" not in vars(b)
    assert a == b and hash(a) == hash(b) == before
    assert "_thresholds" not in repr(a)


def _reference_avoidance(x: Fraction, sysm, j_max: int) -> tuple[Fraction, list[Fraction]]:
    """lo and the fractional parts {k_j x}, j = 1..j_max, all as Fractions."""
    bases = sysm.schedule.bases()
    prefix = [1]
    for M in bases:
        prefix.append(prefix[-1] * M)
    if isinstance(sysm, ConvolvedSystem):
        lo = Fraction(1, 6) + max(
            Fraction(max(sysm.digit_sets[n - 1]), bases[n - 1]) for n in sysm.special_levels
        )
        dilations = [prefix[n - 1] for n in sysm.special_levels[:j_max]]
    else:
        lo = 2 * max(Fraction(max(d), M) for d, M in zip(sysm.digit_sets, bases))
        dilations = prefix[1 : j_max + 1]
    return lo, [(k * x) % 1 for k in dilations]


def _avoidance_cases():
    sch = build_schedule(d=2, count=5)
    plain = binary_system(sch, Fraction(1, 3))
    wide = MoranSystem(
        sch,
        ((0, 2),) * sch.depth,
        ((Fraction(1, 4), Fraction(3, 4)),) * sch.depth,
    )
    conv = build_convolved(binary_system(sch, Fraction(1, 2)), "dim-one")
    return (
        (plain, sch.depth - 1),
        (wide, sch.depth),
        (conv, len(conv.special_levels) - 1),
    )


AVOIDANCE_CASES = _avoidance_cases()


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(AVOIDANCE_CASES), seed=st.integers(0, 2**64 - 1))
def test_avoidance_matches_fraction_reference(case, seed):
    # plain {0,1}, a non-binary {0,2} system and a convolved system
    target, j_max = case
    x = sample_point(target, seed, target.depth).value
    verdict = uniqueness_avoidance(x, target, j_max)
    lo, fracs = _reference_avoidance(x, target, j_max)
    first = next((j for j, f in enumerate(fracs, start=1) if lo < f), None)
    assert verdict.interval_lo == lo
    assert verdict.first_violation_j == first
    assert verdict.passed == (first is None)
    # attractor points stay strictly below lo, so the open end is never met
    assert lo - max(fracs) > 0


@pytest.mark.parametrize(
    "call, error, code",
    [
        pytest.param(lambda sch: sample_batch(binary_system(sch), seed=1, depth=2, count=0),
                     InvalidParameter, 2, id="sample-batch-count-0"),
        pytest.param(lambda sch: uniqueness_avoidance(Fraction(1, 3), sch, 1),
                     InvalidParameter, 2, id="avoidance-unsupported-type"),
    ],
)
def test_caller_errors(toy_schedule, call, error, code):
    with pytest.raises(error) as info:
        call(toy_schedule)
    assert type(info.value) is error and info.value.exit_code == code
