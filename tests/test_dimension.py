"""Gauge functions, sparse special-level sets, convolved digit systems, and
the exact ball-measure machinery built on them."""

from __future__ import annotations

import csv
import itertools
import math
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranlab import (
    ConvolvedSystem,
    CounterexampleFound,
    GaugeFunction,
    GaugeTooSmall,
    InvalidInterval,
    InvalidParameter,
    MoranSystem,
    NotInSupport,
    OutOfRange,
    PrimeSchedule,
    ScheduleTooShort,
    ball_measure,
    binary_system,
    build_convolved,
    build_schedule,
    h_of_r,
    h_rate_report,
    local_dim_series,
    mu_hat_modulus,
    sparse_index_set,
    uniqueness_avoidance,
)
from moranlab import dimension
from moranlab.dimension import (
    BallRow,
    _count_below,
    running_min_after,
    write_ball_csv,
    write_local_dim_csv,
)
from moranlab.measure import SamplePoint, _avoidance_levels, sample_batch, sample_point

from oracles import fraction_ball_measure, naive_mu_hat, rebuild, uniform_interval_mass

F = Fraction
_LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def toy_dimone(toy_schedule):
    return build_convolved(binary_system(toy_schedule, F(1, 2)), "dim-one")


@pytest.fixture(scope="module")
def med_dimone(medium_system):
    return build_convolved(medium_system, "dim-one")


@pytest.fixture(scope="module")
def med_gauge(medium_system):
    phi = GaugeFunction("r_times_log_power", 1.0)
    return build_convolved(medium_system, "gauge", phi=phi)


# --------------------------------------------------------------------------
# h(r)


def test_h_of_r_examples():
    # bases 7, 7, 11; prefix products 7, 49, 539
    sch = PrimeSchedule(d=1, q=(7, 11), ell=(2, 1))
    assert h_of_r(F(1, 100), sch) == 2
    assert h_of_r(F(1, 7), sch) == 1
    assert h_of_r(F(1, 49), sch) == 2
    assert h_of_r(F(1, 539), sch) == 3
    with pytest.raises(OutOfRange):
        h_of_r(F(1, 2), sch)
    with pytest.raises(OutOfRange):
        h_of_r(F(0), sch)
    with pytest.raises(OutOfRange):
        h_of_r(F(-1, 3), sch)
    with pytest.raises(ScheduleTooShort):
        h_of_r(F(1, 1078), sch)


def test_h_of_r_band_sandwich():
    sch = PrimeSchedule(d=1, q=(7, 11), ell=(2, 1))
    prefixes = [7, 49, 539]
    # non-unit numerators put 1/r between integers, off the band edges
    for a in (1, 2, 3, 5, 13):
        for den in range(7 * a, 539 * a + 1):
            r = F(a, den)
            h = h_of_r(r, sch)
            assert r <= F(1, prefixes[h - 1])
            if h < 3:
                assert F(1, prefixes[h]) < r
    assert h_of_r(F(1, 539), sch) == 3
    for below in (F(1, 540), F(1000, 539001)):
        with pytest.raises(ScheduleTooShort):
            h_of_r(below, sch)


# --------------------------------------------------------------------------
# gauge functions


def test_gauge_power_values():
    phi = GaugeFunction("power", 0.5)
    assert phi.log_value(F(1, 100)) == pytest.approx(0.5 * math.log(1 / 100), rel=1e-12)
    assert phi.value(F(1, 4)) == pytest.approx(0.5, rel=1e-12)
    assert GaugeFunction("power").param == 1.0
    assert GaugeFunction("power", 1.0).value(F(3, 7)) == pytest.approx(3 / 7, rel=1e-12)


def test_gauge_constructor_rejections():
    with pytest.raises(InvalidParameter):
        GaugeFunction("exp")
    with pytest.raises(InvalidParameter):
        GaugeFunction("power", 0.0)
    with pytest.raises(InvalidParameter):
        GaugeFunction("r_times_log_power", -1.0)
    for value in (math.inf, math.nan):
        with pytest.raises(InvalidParameter, match="gauge parameter must be positive and finite"):
            GaugeFunction("r_times_log_power", value)


def test_gauge_domain_errors():
    for kind in ("power", "r_times_log_power", "r_times_H"):
        phi = GaugeFunction(kind, 1.0)
        with pytest.raises(OutOfRange):
            phi.log_value(F(2))
        with pytest.raises(OutOfRange):
            phi.log_value(F(0))
    # log-power needs log(1/r) > 1, H needs log(1/r) > e
    with pytest.raises(OutOfRange):
        GaugeFunction("r_times_log_power", 1.0).log_value(F(1, 2))
    with pytest.raises(OutOfRange):
        GaugeFunction("r_times_H", 1.0).log_value(F(1, 10))
    assert GaugeFunction("r_times_H", 1.0).log_value(F(1, 16)) < 0


def test_vanishing_ratio_check():
    assert GaugeFunction("power", 0.5).vanishing_ratio_check()
    assert GaugeFunction("r_times_log_power", 1.0).vanishing_ratio_check()
    assert GaugeFunction("r_times_H", 1.0).vanishing_ratio_check()
    # phi(r) = r keeps r/phi constant, which must fail
    assert not GaugeFunction("power", 1.0).vanishing_ratio_check()


# --------------------------------------------------------------------------
# sparse index sets


def _log_log_gauge(r: F) -> float:
    # g(r) = log(1/r)
    return math.log(math.log(r.denominator) - math.log(r.numerator))


def test_sparse_index_set_log_gauge(medium_schedule):
    cert = sparse_index_set(_log_log_gauge, medium_schedule)
    assert cert.levels == (3, 5, 8, 14, 24)
    assert len(cert.rows) == medium_schedule.depth
    for m, count, lhs, raw, ok in cert.rows:
        assert count == sum(1 for lv in cert.levels if lv <= m + 1)
        assert lhs == pytest.approx(count * _LN2, abs=1e-12)
        assert ok
        assert lhs <= raw + 1e-9


def test_sparse_index_set_dense_for_huge_gauge(medium_schedule):
    # g(r) = 2^(1/r) clears every threshold immediately
    log_g = lambda r: _LN2 * r.denominator / r.numerator
    cert = sparse_index_set(log_g, medium_schedule)
    assert cert.levels == tuple(range(2, medium_schedule.depth + 1))


def test_sparse_index_set_gauge_too_small(medium_schedule):
    with pytest.raises(GaugeTooSmall):
        sparse_index_set(lambda r: math.log(1.9), medium_schedule)
    with pytest.raises(GaugeTooSmall):
        sparse_index_set(lambda r: 0.0, medium_schedule)
    # a single shallow band is not enough for the log gauge either
    with pytest.raises(GaugeTooSmall):
        sparse_index_set(_log_log_gauge, PrimeSchedule(d=2, q=(7,), ell=(1,)))


def test_sparse_index_set_depth_argument(medium_schedule):
    # the certificate runs to the schedule's depth: the first 5 levels of the
    # medium schedule keep the special levels up to 5 and one row per level
    short = PrimeSchedule(d=2, q=(7, 11, 13), ell=(1, 2, 2))
    assert short.bases() == medium_schedule.bases(5)
    cert = sparse_index_set(_log_log_gauge, short)
    assert cert.levels == (3, 5)
    assert len(cert.rows) == 5
    # a gauge undefined at the shallowest band top (log 7 < e) raises its own error
    with pytest.raises(OutOfRange):
        sparse_index_set(GaugeFunction("r_times_H", 1.0).log_value, short)


# --------------------------------------------------------------------------
# convolved construction


def test_dim_one_construction_toy(toy_dimone):
    assert toy_dimone.variant == "dim-one"
    assert toy_dimone.special_levels == (1, 2, 3)
    assert toy_dimone.nu_sets == ((0, 2), (0, 2, 4), (0, 2, 4))
    assert toy_dimone.digit_sets[0] == (0, 1, 2, 3)
    assert toy_dimone.weights[0] == (F(1, 4),) * 4
    assert toy_dimone.digit_sets[1] == (0, 1, 2, 3, 4, 5)
    assert toy_dimone.weights[1] == (F(1, 6),) * 6
    assert toy_dimone.depth == 3
    assert isinstance(toy_dimone, MoranSystem)
    assert not toy_dimone.is_binary


def test_gauge_construction_levels_and_sets(med_gauge):
    # special set certified against g(r) = log(1/r)
    assert med_gauge.special_levels == (3, 5, 8, 14, 24)
    # off the special set the even digits fill the level: E = {0..M-2}
    assert med_gauge.nu_sets[0] == tuple(range(6))
    assert med_gauge.digit_sets[0] == tuple(range(7))
    assert med_gauge.weights[0] == (F(1, 12),) + (F(1, 6),) * 5 + (F(1, 12),)
    assert med_gauge.nu_sets[1] == tuple(range(10))
    assert med_gauge.digit_sets[1] == tuple(range(11))
    assert med_gauge.weights[1] == (F(1, 20),) + (F(1, 10),) * 9 + (F(1, 20),)
    # on the special set the usual even construction applies
    assert med_gauge.nu_sets[2] == (0, 2, 4)
    assert med_gauge.digit_sets[2] == tuple(range(6))
    assert med_gauge.weights[2] == (F(1, 6),) * 6


def test_extreme_construction_off_special(medium_system):
    phi = GaugeFunction("r_times_log_power", 2.0)
    csys = build_convolved(medium_system, "extreme", phi=phi, H_param=1.0)
    assert csys.variant == "extreme"
    assert csys.special_levels
    assert all(2 <= lv <= csys.depth for lv in csys.special_levels)
    assert all(a < b for a, b in zip(csys.special_levels, csys.special_levels[1:]))
    # level 1 is never special; extreme fills it with E = {0, 2, ..., M-3}
    assert csys.nu_sets[0] == (0, 2, 4)
    assert csys.digit_sets[0] == tuple(range(6))
    assert csys.weights[0] == (F(1, 6),) * 6


def test_build_convolved_rejections(toy_schedule, medium_system):
    widened = MoranSystem(
        schedule=toy_schedule,
        digit_sets=((0, 1, 2),) * 3,
        weights=((F(1, 3),) * 3,) * 3,
    )
    with pytest.raises(InvalidParameter):
        build_convolved(widened, "dim-one")
    with pytest.raises(InvalidParameter):
        build_convolved(medium_system, "gauge")
    with pytest.raises(InvalidParameter):
        build_convolved(medium_system, "staircase")
    with pytest.raises(InvalidParameter):
        build_convolved(
            medium_system, "extreme", phi=GaugeFunction("r_times_log_power", 2.0), H_param=0.0
        )
    for value in (math.inf, math.nan):
        with pytest.raises(InvalidParameter, match="H_param must be positive and finite"):
            build_convolved(
                medium_system, "extreme", phi=GaugeFunction("r_times_log_power", 2.0),
                H_param=value,
            )
    with pytest.raises(GaugeTooSmall):
        # r/phi(r) constant: the sparse set cannot be certified
        build_convolved(medium_system, "gauge", phi=GaugeFunction("power", 1.0))


def test_convolved_validation_errors(toy_schedule, toy_dimone):
    half = (F(1, 2),) * 2
    with pytest.raises(InvalidParameter):
        # digit sums escape [0, 7) on level 1
        ConvolvedSystem(
            schedule=toy_schedule,
            base_sets=((0, 1),) * 3,
            nu_sets=((0,), (0,), (0,)),
            digit_sets=((0, 7), (0, 1), (0, 1)),
            weights=(half, half, half),
            special_levels=(),
            variant="gauge",
        )
    with pytest.raises(InvalidParameter):
        # weights must sum to 1
        ConvolvedSystem(
            schedule=toy_schedule,
            base_sets=((0, 1),) * 3,
            nu_sets=((0,), (0,), (0,)),
            digit_sets=((0, 1), (0, 1), (0, 1)),
            weights=((F(1, 2), F(1, 3)), half, half),
            special_levels=(),
            variant="gauge",
        )
    with pytest.raises(CounterexampleFound):
        # {0,2} + {0,2} collides at 2, so the even-step level is rejected
        ConvolvedSystem(
            schedule=toy_schedule,
            base_sets=((0, 2), (0, 1), (0, 1)),
            nu_sets=((0, 2), (0,), (0,)),
            digit_sets=((0, 2, 4), (0, 1), (0, 1)),
            weights=((F(1, 4), F(1, 2), F(1, 4)), half, half),
            special_levels=(),
            variant="gauge",
        )
    for sums in (((), (0, 1), (0, 1)), ((1, 0), (0, 1), (0, 1))):
        with pytest.raises(InvalidParameter):
            # an empty or unsorted sum set (the empty one used to raise IndexError)
            ConvolvedSystem(
                schedule=toy_schedule,
                base_sets=((0, 1),) * 3,
                nu_sets=((0,), (0,), (0,)),
                digit_sets=sums,
                weights=(half, half, half),
                special_levels=(),
                variant="gauge",
            )
    with pytest.raises(InvalidParameter):
        rebuild(toy_dimone, nu_sets=((0, 1), (0, 2, 4), (0, 2, 4)))
    with pytest.raises(InvalidParameter):
        rebuild(toy_dimone, special_levels=(1, 1, 2))
    # a level 0 would read the last level's sums through index -1, and a
    # level past the depth would index past the digit sets
    for levels in ((0, 1, 2), (1, 2, 4)):
        with pytest.raises(InvalidParameter, match=r"^special levels must lie in 1 \.\. 3$"):
            rebuild(toy_dimone, special_levels=levels)
    with pytest.raises(InvalidParameter):
        rebuild(toy_dimone, base_sets=toy_dimone.base_sets[:2])


def test_avoidance_lo_without_special_levels_is_an_invalid_interval(toy_dimone):
    # the constructor accepts an empty special level set; its avoidance
    # interval is then undefined, an exit-3 error rather than a bare ValueError
    none = rebuild(toy_dimone, special_levels=(), variant="gauge")
    with pytest.raises(InvalidInterval, match="^no special levels, so the avoidance interval"):
        none.avoidance_lo
    assert InvalidInterval.exit_code == 3
    one = rebuild(toy_dimone, special_levels=(2,))
    assert one.avoidance_lo == F(1, 6) + F(one.digit_sets[1][-1], one.schedule.base_at(2))


@pytest.mark.parametrize("name", ["med_dimone", "med_gauge"])
def test_convolved_system_transforms_and_samples_as_the_plain_one(request, name):
    csys = request.getfixturevalue(name)
    plain = MoranSystem(csys.schedule, csys.digit_sets, csys.weights)
    for xi in (1, 7, 100, 847, 12345, 10**6 + 7):
        assert repr(mu_hat_modulus(xi, csys, 1e-6)) == repr(mu_hat_modulus(xi, plain, 1e-6))
    want = sample_batch(plain, 11, plain.depth, 8)
    assert repr(sample_batch(csys, 11, csys.depth, 8)) == repr(want)
    assert csys._thresholds == plain._thresholds
    assert repr(csys._window_gamma) == repr(plain._window_gamma)


def test_uniform_interval_mass(toy_dimone):
    # ball_measure divides by the cell counts |F_1| ... |F_L|
    assert toy_dimone._cell_counts == (1, 4, 24, 144)
    masses = [uniform_interval_mass(toy_dimone, L) for L in range(4)]
    assert masses == [1, F(1, 4), F(1, 24), F(1, 144)]


# --------------------------------------------------------------------------
# exact ball measure


def test_ball_measure_hand_counts(toy_dimone):
    # r = 1/50 sits in band h = 1, so intervals are counted at level 2
    assert ball_measure(F(0), F(1, 50), toy_dimone) == F(1, 12)
    # around the top of the level-2 support: strings 36, 37, 38 qualify
    assert ball_measure(F(38, 77), F(1, 50), toy_dimone) == F(1, 8)
    # far from the support the count is zero
    assert ball_measure(F(9, 10), F(1, 50), toy_dimone) == 0
    assert ball_measure(F(1), F(1, 100), toy_dimone) == 0


def _attainable_values(csys: ConvolvedSystem, depth: int) -> list[int]:
    vals = [0]
    for n in range(1, depth + 1):
        M = csys.schedule.base_at(n)
        vals = [v * M + d for v in vals for d in csys.digit_sets[n - 1]]
    return vals


def test_ball_measure_matches_enumeration(toy_dimone):
    # every r here lands in band h = 2: intervals live at level 3, P = 847
    P = 847
    values = _attainable_values(toy_dimone, 3)
    mass = uniform_interval_mass(toy_dimone, 3)
    xs = [F(k, 101) for k in range(0, 101, 7)] + [F(k, 847) for k in (0, 5, 121, 422, 423, 846)]
    for r in (F(1, 100), F(1, 200), F(1, 846), F(1, 77)):
        for x in xs:
            lo = max(0, math.ceil((x - r) * P) - 1)
            hi = min(P - 1, math.floor((x + r) * P))
            expect = sum(1 for v in values if lo <= v <= hi) * mass
            assert ball_measure(x, r, toy_dimone) == expect


def test_ball_measure_matches_enumeration_gauge(med_gauge):
    # bases 7, 11, 11, 13 with sizes 7, 11, 6, 13: off the special levels the
    # gauge fills each level (F = {0..M-1}); level 3 is special (F = {0..5})
    assert [len(F_k) for F_k in med_gauge.digit_sets[:4]] == [7, 11, 6, 13]
    bands = {3: (F(1, 80), F(1, 300), F(1, 846), F(1, 77)), 4: (F(1, 848), F(1, 5000))}
    for level, radii in bands.items():
        P = med_gauge.schedule.prefix_product(level)
        values = sorted(_attainable_values(med_gauge, level))
        mass = uniform_interval_mass(med_gauge, level)
        xs = [F(k, 97) for k in range(0, 98, 6)] + [F(k, P) for k in (0, 76, 77, 400, P - 2, P - 1)]
        for r in radii:
            assert h_of_r(r, med_gauge.schedule) == level - 1
            for x in xs:
                lo = max(0, math.ceil((x - r) * P) - 1)
                hi = min(P - 1, math.floor((x + r) * P))
                expect = (bisect_right(values, hi) - bisect_right(values, lo - 1)) * mass
                assert ball_measure(x, r, med_gauge) == expect


_SCHEDULE_PRIMES = (7, 11, 13, 17, 19, 23)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_count_below_matches_enumeration(data):
    bases = data.draw(st.lists(st.sampled_from(_SCHEDULE_PRIMES), min_size=1, max_size=3))
    caps = [data.draw(st.integers(0, M - 1)) for M in bases]
    sets = [tuple(range(c + 1)) for c in caps]
    # a deeper level past L must be ignored: the walk ends where P_L/P_k = 1
    deeper_sets, deeper_bases = sets + [(0, 1, 2)], bases + [29]
    P_L = math.prod(bases)
    total = math.prod(len(F_k) for F_k in sets)
    values = []
    for digits in itertools.product(*sets):
        v = 0
        for d, M in zip(digits, bases):
            v = v * M + d
        values.append(v)
    values.sort()
    top = values[-1]
    X = data.draw(st.integers(-1, P_L - 1))
    for x in {X, -1, 0, top - 1, top, P_L - 1}:
        want = bisect_right(values, x)
        assert _count_below(x, sets, bases, P_L, total) == want
        assert _count_below(x, deeper_sets, deeper_bases, P_L, total) == want


def _ball_outcome(fn, *args):
    try:
        return fn(*args)
    except CounterexampleFound as exc:
        return "raised", str(exc)


def _fractions(lo: int, hi: int, max_den: int):
    # lo <= n / d <= hi
    return st.integers(1, max_den).flatmap(
        lambda d: st.integers(lo * d, hi * d).map(lambda n: F(n, d))
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_ball_windows_match_fraction_formula(med_dimone, med_gauge, data):
    # integer floor and ceil of the window ends and the integer cap check
    # against the Fraction formula, at every level with contiguous digit sets
    csys = data.draw(st.sampled_from([med_dimone, med_gauge]))
    L = data.draw(st.integers(1, min(csys.depth, csys._first_gap - 1)))
    P = csys.schedule.prefix_product(L)
    grid = st.integers(0, P).map(lambda k: F(k, P))  # (x -+ r) P integral
    x = data.draw(grid | _fractions(0, 1, 3 * P) | st.sampled_from([F(0), F(1)]))
    r = data.draw(grid.filter(bool) | _fractions(0, 2, 3 * P).filter(bool))
    expect = _ball_outcome(fraction_ball_measure, x, r, csys, L - 1)
    assert _ball_outcome(dimension._ball_measure, x, r, csys, L - 1) == expect


def _full_cap_windows(P: int):
    # x = (k + j) / P, r = j / P: the window [x - r, x + r] runs over grid
    # cells k - 1 .. k + 2j, 2j + 2 = 2 (r P + 1) of them, the cap exactly
    for j in (1, 2, 5):
        for k in {1, 2, P // 2, P - 2 * j - 1}:
            if 1 <= k and k + 2 * j <= P - 1:
                yield k, F(k + j, P), F(j, P)


def test_ball_cap_equality_is_no_counterexample(med_gauge):
    # bases 7 and 11 with full digit sets: every grid cell at levels 1 and 2
    # holds support, so the count reaches the cap and must not trip it
    assert [len(F_k) for F_k in med_gauge.digit_sets[:2]] == [7, 11]
    for L in (1, 2):
        P = med_gauge.schedule.prefix_product(L)
        total = med_gauge._cell_counts[L]
        for _, x, r in _full_cap_windows(P):
            cap = 2 * (r * P + 1)
            assert fraction_ball_measure(x, r, med_gauge, L - 1) == cap / total
            assert dimension._ball_measure(x, r, med_gauge, L - 1) == cap / total


def test_ball_cap_one_past_equality_is_a_counterexample(med_gauge, monkeypatch):
    # one extra string below every X >= 0: a window starting at cell 0
    # (k = 1) counts cap + 1 strings, one starting further right counts cap
    count_below = dimension._count_below
    monkeypatch.setattr(
        dimension, "_count_below", lambda X, *walk: count_below(X, *walk) + (X >= 0)
    )
    P = med_gauge.schedule.prefix_product(2)
    for k, x, r in _full_cap_windows(P):
        got = _ball_outcome(dimension._ball_measure, x, r, med_gauge, 1)
        assert got == _ball_outcome(fraction_ball_measure, x, r, med_gauge, 1)
        assert isinstance(got, tuple) == (k == 1)


def test_ball_measure_support_point_floor(med_dimone):
    pt = sample_point(med_dimone, seed=77, depth=28)
    for r in (F(1, 10**6), F(1, 10**9)):
        h = h_of_r(r, med_dimone.schedule)
        ball = ball_measure(pt.value, r, med_dimone)
        # the interval containing the point itself is always counted
        assert ball >= uniform_interval_mass(med_dimone, h + 1)


def test_ball_measure_dim_one_mass_bound(med_dimone):
    # eta(B(x, r)) <= 8 r^(1-eps); at eps = 1/2 this is ball^2 <= 64 r, exactly
    points = [F(0), F(1)] + [sample_point(med_dimone, seed=s, depth=28).value for s in (1, 2, 3)]
    for k in (3, 6, 9, 12):
        r = F(1, 10**k)
        for x in points:
            ball = ball_measure(x, r, med_dimone)
            assert ball * ball <= 64 * r


def test_ball_measure_domain_errors(toy_dimone, toy_schedule):
    with pytest.raises(OutOfRange):
        ball_measure(F(-1, 10), F(1, 50), toy_dimone)
    with pytest.raises(OutOfRange):
        ball_measure(F(11, 10), F(1, 50), toy_dimone)
    with pytest.raises(ScheduleTooShort):
        # h(1/847) = 3 needs counting at level 4, one past the schedule
        ball_measure(F(1, 2), F(1, 847), toy_dimone)
    half = (F(1, 2),) * 2
    gappy = ConvolvedSystem(
        schedule=toy_schedule,
        base_sets=((0, 1),) * 3,
        nu_sets=((0, 3), (0,), (0,)),
        digit_sets=((0, 1, 3, 4), (0, 1), (0, 1)),
        weights=((F(1, 4),) * 4, half, half),
        special_levels=(),
        variant="gauge",
    )
    with pytest.raises(InvalidParameter):
        ball_measure(F(1, 2), F(1, 50), gappy)


# --------------------------------------------------------------------------
# local dimension diagnostics


def test_local_dim_series_uniform_closed_form(med_dimone):
    pt = sample_point(med_dimone, seed=5, depth=28)
    series = local_dim_series(pt, med_dimone, 28)
    assert len(series) == 28
    # equal weights collapse the terms to sum log|F_k| / log(M_1...M_n)
    num = 0.0
    den = 0.0
    for n in range(1, 29):
        num += math.log(len(med_dimone.digit_sets[n - 1]))
        den += math.log(med_dimone.schedule.base_at(n))
        assert series[n - 1] == pytest.approx(num / den, abs=1e-9)
    assert 0.7 < series[-1] < 1.0
    assert local_dim_series(pt, med_dimone, 5) == series[:5]


def test_local_dim_series_weighted_levels(med_gauge):
    # the all-zeros point picks the boundary weight at every level
    pt = SamplePoint(digits=(0,) * 28, value=F(0), depth=28, seed=0)
    series = local_dim_series(pt, med_gauge, 3)
    t1 = math.log(12) / math.log(7)
    t2 = (math.log(12) + math.log(20)) / math.log(77)
    t3 = (math.log(12) + math.log(20) + math.log(6)) / math.log(847)
    assert series == pytest.approx((t1, t2, t3), abs=1e-12)


def test_local_dim_series_errors(med_dimone):
    pt = sample_point(med_dimone, seed=5, depth=28)
    with pytest.raises(OutOfRange):
        local_dim_series(pt, med_dimone, 0)
    with pytest.raises(OutOfRange):
        local_dim_series(pt, med_dimone, 29)
    bad = SamplePoint(digits=(4,) + (0,) * 27, value=F(0), depth=28, seed=0)
    with pytest.raises(InvalidParameter):
        # 4 is outside the level-1 sum set {0..3}
        local_dim_series(bad, med_dimone, 2)


def test_running_min_after():
    assert running_min_after((3.0, 1.0, 2.0), burn_in=1) == 1.0
    assert running_min_after((3.0, 1.0, 2.0), burn_in=3) == 2.0
    series = [1.0 / (n + 1) for n in range(60)]
    assert running_min_after(series) == series[-1]
    with pytest.raises(OutOfRange):
        running_min_after((3.0, 1.0), burn_in=0)
    with pytest.raises(OutOfRange):
        running_min_after((3.0, 1.0), burn_in=3)


# --------------------------------------------------------------------------
# h-rate report


def test_h_rate_report_band_top_grid(medium_schedule):
    grid = []
    P = 1
    for m in range(1, medium_schedule.depth + 1):
        P *= medium_schedule.base_at(m)
        grid.append(F(1, P))
    rows = h_rate_report(medium_schedule, grid)
    assert len(rows) == medium_schedule.depth
    for m, row in enumerate(rows, start=1):
        assert row.h_r == m
        L = math.log(row.r.denominator)
        assert row.ratio == pytest.approx(m / L, rel=1e-12)
        assert row.band is None
    ratios = [row.ratio for row in rows]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_h_rate_report_cube_window_band():
    sch = build_schedule(d=1, count=2, variant="cube-window", offset=2)
    assert sch.q == (29, 67)
    rows = h_rate_report(sch, [F(1, 29), F(1, 29 * 67)])
    assert [row.h_r for row in rows] == [1, 2]
    for row in rows:
        L = math.log(row.r.denominator)
        assert row.band == pytest.approx(row.h_r * math.log(L) / L, rel=1e-12)


def test_h_rate_report_accepts_systems(med_dimone, medium_schedule):
    # a system is passed by its schedule
    rows = h_rate_report(med_dimone.schedule, [F(1, 100)])
    assert rows == h_rate_report(medium_schedule, [F(1, 100)])
    assert rows[0].h_r == 2
    with pytest.raises(OutOfRange):
        h_rate_report(medium_schedule, [F(1, 2)])


# --------------------------------------------------------------------------
# the convolution stays dominated by the base transform


def test_fourier_domination(med_dimone, medium_system):
    for xi in (1, 7, 100, 847, 12345, 10**6 + 7):
        naive_eta = abs(naive_mu_hat(xi, med_dimone, depth=8))
        naive_mu = abs(naive_mu_hat(xi, medium_system, depth=8))
        assert naive_eta <= naive_mu + 1e-12
        cert_eta = mu_hat_modulus(xi, med_dimone, 1e-6)
        cert_mu = mu_hat_modulus(xi, medium_system, 1e-6)
        assert cert_eta.lo <= cert_mu.hi + 1e-9


# --------------------------------------------------------------------------
# avoidance along the special dilations


def test_uniqueness_avoidance_convolved(toy_dimone, med_dimone, med_gauge):
    # the dilations k_j = P_(n_j - 1) run over the special levels n_j
    assert _avoidance_levels(toy_dimone, 3) == (1, 2, 3)
    assert _avoidance_levels(med_gauge, 3) == (3, 5, 8)
    with pytest.raises(OutOfRange, match="exceeds the 5 special levels"):
        uniqueness_avoidance(F(0), med_gauge, j_max=6)
    v = uniqueness_avoidance(F(0), toy_dimone, j_max=3)
    assert v.passed and v.verdict == "PASS"
    # c = max(3/7, 5/11) = 5/11, so lo = 5/11 + 1/6
    assert v.interval_lo == F(41, 66)
    v = uniqueness_avoidance(F(1, 7), toy_dimone, j_max=3)
    assert v.passed
    v = uniqueness_avoidance(F(0), med_dimone, j_max=5)
    assert v.interval_lo == F(55, 78)
    assert float(v.interval_lo) == pytest.approx(0.7051282051282052, rel=1e-15)
    pt = sample_point(med_dimone, seed=20260816, depth=28)
    assert uniqueness_avoidance(pt.value, med_dimone, j_max=10).passed
    with pytest.raises(OutOfRange):
        uniqueness_avoidance(F(0), toy_dimone, j_max=4)
    with pytest.raises(NotInSupport):
        # second digit of 40/77 is 7, outside the level-2 sum set
        uniqueness_avoidance(F(40, 77), toy_dimone, j_max=2)


# --------------------------------------------------------------------------
# CSV reports


def test_write_ball_csv_round_trip(tmp_path, toy_dimone):
    phi = GaugeFunction("power", 0.5)
    rows = []
    for seed, x, r in ((1, F(0), F(1, 50)), (2, F(38, 77), F(1, 50))):
        ball = ball_measure(x, r, toy_dimone)
        phi_r = phi.value(r)
        rows.append(
            BallRow(
                x_seed=seed,
                r=r,
                h_r=h_of_r(r, toy_dimone.schedule),
                ball=ball,
                phi_r=phi_r,
                ratio=float(ball) / phi_r,
            )
        )
    path = tmp_path / "balls.csv"
    write_ball_csv(str(path), rows)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == [
        "x_seed", "r_num", "r_den", "h_r",
        "ball_measure_num", "ball_measure_den", "phi_r", "ratio",
    ]
    assert len(got) == 3
    for row, rec in zip(rows, got[1:]):
        assert F(int(rec[4]), int(rec[5])) == row.ball
        assert F(int(rec[1]), int(rec[2])) == row.r
        assert float(rec[6]) == row.phi_r
        assert float(rec[7]) == row.ratio


def test_write_local_dim_csv(tmp_path, med_dimone):
    pt = sample_point(med_dimone, seed=9, depth=28)
    series = local_dim_series(pt, med_dimone, 28)
    path = tmp_path / "localdim.csv"
    write_local_dim_csv(str(path), series, burn_in=10)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["n", "term", "running_min"]
    assert len(got) == 29
    assert got[5][2] == ""  # before the burn-in no minimum is reported
    assert float(got[28][1]) == series[27]
    assert float(got[28][2]) == min(series[9:])
