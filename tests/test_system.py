"""Digit systems share their per-level tuples, and the checks and tables
that run once per shared tuple give what a level-by-level pass gives."""

from fractions import Fraction as F

import pytest

from moranlab import (
    InvalidParameter,
    MoranSystem,
    binary_system,
    build_convolved,
    build_schedule,
)
from moranlab.dimension import ConvolvedSystem
from moranlab.rng import cumulative_thresholds

from oracles import rebuild, reference_system_error, uniform_interval_mass


def _unshared(levels):
    # equal tuples, one new object per level (and per item where that matters)
    return tuple(tuple(list(t)) for t in levels)


@pytest.fixture(scope="module")
def deep_schedule():
    return build_schedule(d=2, count=45)  # 1035 levels, the normality bench depth


@pytest.fixture(scope="module")
def count20():
    return build_schedule(d=2, count=20)


def test_binary_system_shares_one_digit_tuple_and_one_weight_pair(deep_schedule):
    sysm = binary_system(deep_schedule, F(1, 3))
    assert sysm.depth == 1035
    assert len({id(w) for w in sysm.weights}) == 1
    assert len({id(d) for d in sysm.digit_sets}) == 1
    assert len({id(t) for t in sysm._thresholds}) == 1
    assert sysm.weights[0] == (F(1, 3), F(2, 3))


def test_binary_system_shares_one_pair_per_distinct_omega(count20):
    depth = count20.depth
    # equal omegas given as distinct objects still share one pair
    omegas = [F(n % 3 + 1, 5) for n in range(depth)]
    sysm = binary_system(count20, omegas)
    assert len({id(w) for w in sysm.weights}) == 3
    assert sysm.binary_omegas() == tuple(omegas)


def test_dim_one_convolution_is_built_once_per_distinct_base(count20):
    csys = build_convolved(binary_system(count20, F(1, 2)), "dim-one")
    bases = count20.bases()
    assert csys.special_levels == tuple(range(1, csys.depth + 1))
    for column in (csys.nu_sets, csys.digit_sets, csys.weights):
        assert len({id(t) for t in column}) == len(set(bases)) == 20
        for n in range(1, csys.depth):
            # one tuple per block of equal bases
            assert (column[n] is column[n - 1]) == (bases[n] == bases[n - 1])
    assert len({id(t) for t in csys._thresholds}) == 20


def test_unshared_system_equals_the_shared_one(deep_schedule):
    shared = binary_system(deep_schedule, F(2, 7))
    plain = MoranSystem(
        deep_schedule, _unshared(shared.digit_sets), _unshared(shared.weights)
    )
    assert plain.weights[0] is not plain.weights[1]
    assert plain == shared and hash(plain) == hash(shared)
    assert plain._thresholds == shared._thresholds
    assert plain._thresholds == tuple(cumulative_thresholds(w) for w in plain.weights)
    assert plain._levels == shared._levels
    assert plain.avoidance_lo == shared.avoidance_lo == F(2, 7)
    assert plain._window_gamma == shared._window_gamma
    assert plain.is_binary and shared.is_binary


def test_unshared_convolution_equals_the_shared_one(count20):
    shared = build_convolved(binary_system(count20, F(1, 2)), "dim-one")
    plain = rebuild(
        shared,
        base_sets=_unshared(shared.base_sets),
        nu_sets=_unshared(shared.nu_sets),
        digit_sets=_unshared(shared.digit_sets),
        weights=_unshared(shared.weights),
    )
    assert plain == shared
    assert plain._thresholds == shared._thresholds
    assert plain.avoidance_lo == shared.avoidance_lo
    for depth in (0, 1, 17, shared.depth):
        mass = uniform_interval_mass(shared, depth)
        assert F(1, plain._cell_counts[depth]) == F(1, shared._cell_counts[depth]) == mass


def _levels_with(column, n, bad, repeat):
    # column with `bad` at level n, and at every later level when repeat
    out = list(column)
    for k in range(n, len(out) + 1 if repeat else n + 1):
        out[k - 1] = bad
    return tuple(out)


BAD_DIGITS = [(0, 50), (1, 0), (-1, 0), (0, 0)]
BAD_WEIGHTS = [(F(1, 2), F(1, 3)), (F(1, 2), 0.5), (F(1), F(0)), (F(3, 2), F(-1, 2))]


@pytest.mark.parametrize("repeat", [False, True], ids=["alone", "repeated"])
@pytest.mark.parametrize("n", [1, 2, 9, 37])
@pytest.mark.parametrize("column, bad", [("digits", d) for d in BAD_DIGITS]
                         + [("weights", w) for w in BAD_WEIGHTS]
                         + [("digits", ()), ("digits", (0, 1, 2))])
def test_bad_level_is_reported_at_its_first_level(count20, n, repeat, column, bad):
    good = binary_system(count20, F(1, 2))
    digit_sets, weights = good.digit_sets, good.weights
    if column == "digits":
        digit_sets = _levels_with(digit_sets, n, bad, repeat)
    else:
        weights = _levels_with(weights, n, bad, repeat)
    expect = reference_system_error(count20, digit_sets, weights)
    assert expect is not None and f"level {n}" in expect
    with pytest.raises(InvalidParameter) as info:
        MoranSystem(count20, digit_sets, weights)
    assert str(info.value) == expect


def test_first_bad_level_wins_across_kinds(count20):
    good = binary_system(count20, F(1, 2))
    digit_sets = _levels_with(good.digit_sets, 30, (0, 60), True)
    weights = _levels_with(good.weights, 12, (F(1, 2), F(1, 4)), True)
    expect = reference_system_error(count20, digit_sets, weights)
    assert expect == "level 12: weights sum to 3/4, not 1"
    with pytest.raises(InvalidParameter, match="^level 12: weights sum to 3/4, not 1$"):
        MoranSystem(count20, digit_sets, weights)


def test_binary_system_omega_errors_name_the_first_bad_value(count20):
    depth = count20.depth
    omegas = [F(1, 2)] * depth
    omegas[5] = F(3, 2)
    omegas[9] = F(0)
    with pytest.raises(InvalidParameter, match=r"got 3/2$"):
        binary_system(count20, omegas)
    with pytest.raises(InvalidParameter, match=r"got 1$"):
        binary_system(count20, 1)


def test_convolved_level_checks_run_on_every_distinct_level(toy_schedule):
    csys = build_convolved(binary_system(toy_schedule, F(1, 2)), "dim-one")
    # level 3 shares level 2's tuples; a wrong even set there alone is caught
    with pytest.raises(InvalidParameter, match="^level 3 is special but E"):
        rebuild(csys, nu_sets=csys.nu_sets[:2] + ((0, 2, 4, 6),))
    assert isinstance(rebuild(csys), ConvolvedSystem)

_HALF = (F(1, 2), F(1, 2))


@pytest.mark.parametrize(
    "call, error, code",
    [
        pytest.param(lambda sch: MoranSystem(sch, ((0, 1),) * 2, (_HALF,) * 3),
                     InvalidParameter, 2, id="moran-system-lengths"),
        pytest.param(
            lambda sch: MoranSystem(sch, ((0, 2),) * 3, (_HALF,) * 3).binary_omegas(),
            InvalidParameter, 2, id="binary-omegas-not-binary",
        ),
        pytest.param(lambda sch: binary_system(sch, [F(1, 2)] * 2), InvalidParameter, 2,
                     id="binary-system-omega-count"),
    ],
)
def test_caller_errors(toy_schedule, call, error, code):
    with pytest.raises(error) as info:
        call(toy_schedule)
    assert type(info.value) is error and info.value.exit_code == code
