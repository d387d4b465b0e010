"""The integer kernels of the sampling path against the loops they replaced.

`sample_point` runs the splitmix64 finalizer once on every level's
counter, each in its own 128-bit lane of one integer, and bisects the
thresholds; `MoranSystem._thresholds`, its weight check and `_convolve`
sum integer numerators over one common denominator;
`uniqueness_avoidance` rules a dilation out from one attractor
digit before it takes an exact remainder. Each must give exactly what the
reference in `oracles.py` gives: the same digits, thresholds, weights and
verdicts, and the same exception with the same message.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    rebuild,
    reference_avoidance,
    reference_convolve,
    reference_cumulative_thresholds,
    reference_sample_point,
    reference_system_error,
)

from moranlab import (
    ConvolvedSystem,
    InvalidParameter,
    MoranSystem,
    PrimeSchedule,
    binary_system,
    build_convolved,
    build_schedule,
    sample_point,
    uniqueness_avoidance,
)
from moranlab.dimension import _convolve
from moranlab.rng import value_at

SEEDS = (0, 1, 2**64 - 1)
TOY = PrimeSchedule(d=1, q=(7, 11), ell=(1, 2))
SMALL = build_schedule(d=2, count=4)
ONE_LEVEL = PrimeSchedule(d=1, q=(7,), ell=(1,))


def one_level(weights):
    """A one-level system on the digits 0 .. len(weights) - 1 with these weights."""
    return MoranSystem(ONE_LEVEL, (tuple(range(len(weights))),), (weights,))


def outcome(fn, *args):
    """The result of fn(*args), or the class and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


# --------------------------------------------------------------------------
# strategies


@st.composite
def weight_lists(draw, min_size=1, max_size=5):
    """Positive weights summing to 1 whose denominators usually differ."""
    raw = draw(
        st.lists(
            st.builds(Fraction, st.integers(1, 40), st.integers(1, 40)),
            min_size=min_size,
            max_size=max_size,
        )
    )
    total = sum(raw)
    return tuple(w / total for w in raw)


@st.composite
def plain_systems(draw, sch):
    dens = draw(st.lists(st.integers(2, 31), min_size=sch.depth, max_size=sch.depth))
    omegas = [Fraction(draw(st.integers(1, q - 1)), q) for q in dens]
    return MoranSystem(sch, ((0, 1),) * sch.depth, tuple((o, 1 - o) for o in omegas))


@st.composite
def wide_systems(draw, sch):
    """Digit sets other than {0, 1}, with weights of differing denominators."""
    digit_sets, weights = [], []
    for M in sch.bases():
        digits = tuple(sorted(draw(st.sets(st.integers(0, M - 1), min_size=1, max_size=4))))
        digit_sets.append(digits)
        weights.append(draw(weight_lists(len(digits), len(digits))))
    return MoranSystem(sch, tuple(digit_sets), tuple(weights))


def mixed_denominator_systems():
    toy_wide = MoranSystem(
        TOY,
        ((0, 3, 6), (1, 4), (2, 5, 9, 10)),
        (
            (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),
            (Fraction(2, 5), Fraction(3, 5)),
            (Fraction(1, 10), Fraction(1, 4), Fraction(3, 20), Fraction(1, 2)),
        ),
    )
    omegas = [Fraction(n, 2 * n + 1) for n in range(1, SMALL.depth + 1)]
    plain = MoranSystem(SMALL, ((0, 1),) * SMALL.depth, tuple((o, 1 - o) for o in omegas))
    conv = build_convolved(plain, "dim-one")
    return [toy_wide, plain, conv]


# --------------------------------------------------------------------------
# sample_point


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("sysm", mixed_denominator_systems(), ids=["wide", "plain", "dim-one"])
def test_sample_point_matches_value_at_and_pick(sysm, seed):
    for depth in sorted({1, sysm.depth // 2 or 1, sysm.depth}):
        want = reference_sample_point(sysm, seed, depth)
        got = sample_point(sysm, seed, depth)
        assert got == want
        assert got.value.denominator == want.value.denominator


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, 3 * 2**64 - 1, 2**128 - 1])
def test_sample_point_reduces_seeds_like_value_at(seed):
    sysm = mixed_denominator_systems()[0]
    assert sample_point(sysm, seed, sysm.depth) == reference_sample_point(sysm, seed, sysm.depth)


GOLDEN = 0x9E3779B97F4A7C15
# counters that pass 2^64 inside the depth, or land on 0 or 2^64 - 1 at a
# given level: seed + n * GOLDEN = 2^64 - 1 or 2^64 at n = 1, 3, 100
WRAPPING_SEEDS = sorted(
    {(2**64 - d - n * GOLDEN) % 2**64 for n in (1, 3, 100) for d in (0, 1)}
    | {2**64 - GOLDEN, 2**64 - 1, 2**128 - 1, -(2**64)}
)
DEEP = build_schedule(d=2, count=45)


@pytest.mark.parametrize("seed", WRAPPING_SEEDS)
def test_sample_point_lanes_match_value_at_across_the_wrap(seed):
    # every lane of the one-integer finalizer equals value_at at its level,
    # from depth 1 to the full 1,035 levels
    assert DEEP.depth == 1035
    sysm = binary_system(DEEP, Fraction(1, 3))
    for depth in (1, 2, 100, DEEP.depth):
        assert sample_point(sysm, seed, depth) == reference_sample_point(sysm, seed, depth)


@pytest.mark.parametrize("depth", [0, -1, 4, 50])
def test_sample_point_depth_errors_match(depth):
    sysm = mixed_denominator_systems()[0]
    assert outcome(sample_point, sysm, 1, depth) == outcome(reference_sample_point, sysm, 1, depth)


@pytest.mark.parametrize("seed", SEEDS)
def test_draw_on_a_threshold_takes_the_next_digit(seed):
    # weights whose first threshold is exactly the level-1 draw u: u < t
    # fails there, so the digit is the second one (a 2^-64 event at random)
    u = value_at(seed, 0)
    w = Fraction(u, 2**64)
    sysm = MoranSystem(TOY, ((0, 1), (0, 1), (0, 1)), ((w, 1 - w),) + ((Fraction(1, 2),) * 2,) * 2)
    assert sysm._thresholds[0][0] == u
    assert sysm._thresholds[0] == reference_cumulative_thresholds(sysm.weights[0])
    assert sample_point(sysm, seed, 1) == reference_sample_point(sysm, seed, 1)
    assert sample_point(sysm, seed, 1).digits == (1,)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**64 - 1))
def test_sample_point_matches_reference_on_random_systems(data, seed):
    sysm = data.draw(st.one_of(plain_systems(TOY), wide_systems(TOY), wide_systems(SMALL)))
    assert sample_point(sysm, seed, sysm.depth) == reference_sample_point(sysm, seed, sysm.depth)


# --------------------------------------------------------------------------
# the system's thresholds and the weight check


@settings(max_examples=200, deadline=None)
@given(weights=weight_lists())
def test_cumulative_thresholds_match_fraction_sums(weights):
    assert one_level(weights)._thresholds == (reference_cumulative_thresholds(weights),)


@pytest.mark.parametrize(
    "weights",
    [
        (),
        (Fraction(1, 2), Fraction(1, 3)),
        (Fraction(1, 2), Fraction(2, 3)),
        (Fraction(1, 2), Fraction(0), Fraction(1, 2)),
        (Fraction(3, 2), Fraction(-1, 2)),
        (Fraction(-1, 3), Fraction(4, 3)),
        (1,),
        (0.25, 0.75),
        (0.1, 0.9),
        ("1/3", "2/3"),
        ("1/3", "1/3"),
    ],
)
def test_cumulative_thresholds_errors_and_coercions_match(weights):
    # thresholds exist only on a system, whose constructor coerces nothing:
    # every case is rejected, with the message of the full per-level check,
    # before any threshold is built
    error = reference_system_error(ONE_LEVEL, (tuple(range(len(weights))),), (weights,))
    assert error is not None
    assert outcome(lambda: one_level(weights)._thresholds) == (InvalidParameter, error)


SMALL_FRACTIONS = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))


@settings(max_examples=100, deadline=None)
@given(raw=st.lists(st.lists(SMALL_FRACTIONS, min_size=2, max_size=2), min_size=3, max_size=3))
def test_weight_check_reports_the_fraction_sum(raw):
    # level n's weights are raw[n-1]; they sum to 1 only by chance
    weights = tuple(tuple(level) for level in raw)
    bad = next((n for n, level in enumerate(weights, start=1) if sum(level) != 1), None)
    if bad is None:
        MoranSystem(TOY, ((0, 1),) * 3, weights)
        return
    with pytest.raises(InvalidParameter) as ei:
        MoranSystem(TOY, ((0, 1),) * 3, weights)
    assert str(ei.value) == f"level {bad}: weights sum to {sum(weights[bad - 1])}, not 1"


# --------------------------------------------------------------------------
# _convolve


@settings(max_examples=200, deadline=None)
@given(
    base=st.sets(st.integers(0, 30), min_size=1, max_size=6),
    extra=st.sets(st.integers(0, 30), min_size=1, max_size=8),
    data=st.data(),
)
def test_convolve_matches_fraction_sums(base, extra, data):
    base = tuple(sorted(base))
    base_w = tuple(
        data.draw(st.builds(Fraction, st.integers(1, 50), st.integers(1, 50))) for _ in base
    )
    extra = tuple(sorted(extra))
    assert _convolve(base, base_w, extra) == reference_convolve(base, base_w, extra)


def test_convolve_errors_match():
    # a uniform weight on an empty set divides by zero in both
    args = ((0, 1), (Fraction(1, 3), Fraction(2, 3)), ())
    got, want = outcome(_convolve, *args), outcome(reference_convolve, *args)
    assert got[0] is want[0] is ZeroDivisionError


def test_build_convolved_weights_match_fraction_sums():
    for plain in (mixed_denominator_systems()[1], binary_system(TOY, Fraction(2, 7))):
        csys = build_convolved(plain, "dim-one")
        for n, E in enumerate(csys.nu_sets, start=1):
            want = reference_convolve(plain.digit_sets[n - 1], plain.weights[n - 1], E)
            assert (csys.digit_sets[n - 1], csys.weights[n - 1]) == want


# --------------------------------------------------------------------------
# uniqueness_avoidance


def avoidance_levels(target, j_max):
    if isinstance(target, ConvolvedSystem):
        return target.special_levels[:j_max]
    return tuple(range(2, j_max + 2))


@st.composite
def avoidance_cases(draw):
    """(target, x, lo, j_max): a system, a point, an injected lo and j_max."""
    kind = draw(st.sampled_from(["plain", "wide", "dim-one"]))
    sch = draw(st.sampled_from([TOY, SMALL]))
    if kind == "plain":
        target = draw(plain_systems(sch))
    elif kind == "wide":
        target = draw(wide_systems(sch))
    else:
        target = build_convolved(draw(plain_systems(sch)), "dim-one")
    pt = sample_point(target, draw(st.integers(0, 2**64 - 1)), target.depth)
    x = pt.value
    if draw(st.integers(0, 9)) == 0:
        # any point of the depth grid; most lie outside the attractor
        P = sch.prefix_product(sch.depth)
        x = Fraction(draw(st.integers(0, P - 1)), P)
    top = sch.depth if kind != "dim-one" else len(target.special_levels)
    j_max = draw(st.one_of(st.integers(1, top), st.sampled_from([0, top + 1])))
    n = draw(st.integers(1, sch.depth))
    edge = Fraction(pt.digits[n - 1] + 1, sch.base_at(n))
    nudge = Fraction(draw(st.sampled_from([-1, 0, 0, 1])), 10**9)
    lo = draw(
        st.one_of(
            st.fractions(Fraction(1, 10**4), 1 - Fraction(1, 10**4), max_denominator=10**4),
            st.just(edge + nudge),
            st.sampled_from([Fraction(0), Fraction(1), Fraction(3, 2), None]),
        )
    )
    if lo is not None:
        vars(target)["avoidance_lo"] = lo
    return target, x, lo, j_max


@settings(max_examples=400, deadline=None)
@given(case=avoidance_cases())
def test_avoidance_matches_dilation_loop(case):
    target, x, _, j_max = case
    assert outcome(uniqueness_avoidance, x, target, j_max) == outcome(
        reference_avoidance, x, target, j_max
    )


def test_avoidance_runs_certificate_fallback_and_fail():
    # a grid of lo over (0, 1) on plain, wide and dim-one points: each branch
    # of the kernel is taken, and every verdict equals the dilation loop's
    toy_wide = mixed_denominator_systems()[0]
    plain = mixed_denominator_systems()[1]
    conv = build_convolved(plain, "dim-one")
    certified = fallback = failed = 0
    for target, j_max in (
        (toy_wide, toy_wide.depth),
        (plain, plain.depth),
        (conv, len(conv.special_levels)),
    ):
        for seed in range(6):
            pt = sample_point(target, seed, target.depth)
            for k in range(1, 40):
                lo = Fraction(k, 40)
                fresh = rebuild(target)  # a twin without a cached lo
                vars(fresh)["avoidance_lo"] = lo
                verdict = uniqueness_avoidance(pt.value, fresh, j_max)
                assert verdict == reference_avoidance(pt.value, fresh, j_max)
                stop = verdict.first_violation_j or j_max
                for n in avoidance_levels(fresh, stop):
                    M = fresh.schedule.bases()[n - 1] if n <= fresh.depth else None
                    if M is not None and Fraction(pt.digits[n - 1] + 1, M) <= lo:
                        certified += 1
                    else:
                        fallback += 1
                failed += not verdict.passed
    assert certified and fallback and failed
