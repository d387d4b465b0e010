"""Library batch entries check every argument before their first item.

A check that runs only once work has started lets an empty batch through
(an empty frequency list, an empty r range, zero samples), and lets a bad
later argument surface as whatever the work before it raised. Each case here
calls a batch entry with a batch that does no work, or with a bad argument
after a good one, with a transform or sampler that fails the test if it runs.
"""

import math
from fractions import Fraction

import pytest

from moranlab import (
    InvalidInterval,
    InvalidParameter,
    MoranSystem,
    OutOfRange,
    ScheduleTooShort,
    TooLarge,
    binary_system,
    build_convolved,
    normality_report,
    sample_batch,
    uniqueness_avoidance,
)
from moranlab import delsum, fourier, measure

_THIRD = Fraction(1, 3)


def _no_work(*args, **kwargs):
    raise AssertionError("work ran before the arguments were checked")


@pytest.fixture
def no_transform(monkeypatch):
    monkeypatch.setattr(delsum, "_moduli", _no_work)


@pytest.fixture
def no_sampling(monkeypatch):
    monkeypatch.setattr(measure, "sample_point", _no_work)


def _non_binary(sch) -> MoranSystem:
    # digits {0, 1, 2}: a system the transform refuses
    return MoranSystem(sch, ((0, 1, 2),) * sch.depth, ((_THIRD,) * 3,) * sch.depth)


# --------------------------------------------------------------------------
# fourier._batch_table and write_batch_csv


@pytest.mark.parametrize("eps", [-1.0, 0.0, 2.0, math.nan])
def test_write_batch_csv_rejects_eps_with_no_frequencies(tmp_path, small_system, eps):
    path = tmp_path / "fourier.csv"
    with pytest.raises(InvalidParameter, match="eps must lie in"):
        fourier.write_batch_csv(str(path), [], small_system, eps=eps)
    assert not path.exists()


def test_batch_table_rejects_a_system_of_neither_kind_with_no_frequencies(small_schedule):
    with pytest.raises(InvalidParameter, match="neither"):
        fourier._batch_table([], _non_binary(small_schedule), 1e-9)


def _undrawn():
    # a frequency stream that fails the test if it is drawn from
    raise AssertionError("a frequency was drawn before the arguments were checked")
    yield


@pytest.mark.parametrize("eps", [-1.0, 0.0, 2.0, math.nan])
def test_batch_table_checks_eps_before_drawing_a_frequency(small_system, eps):
    with pytest.raises(InvalidParameter, match="eps must lie in"):
        fourier._batch_table(_undrawn(), small_system, eps)


def test_batch_table_checks_the_levels_before_drawing_a_frequency(small_schedule):
    with pytest.raises(InvalidParameter, match="neither"):
        fourier._batch_table(_undrawn(), _non_binary(small_schedule), 1e-9)


@pytest.mark.parametrize("eps", [-1.0, 0.0, 2.0, math.nan])
def test_kernel_and_modulus_table_reject_eps_with_no_frequencies(small_system, eps):
    with pytest.raises(InvalidParameter, match="eps must lie in"):
        fourier._moduli([], small_system, eps)
    with pytest.raises(InvalidParameter, match="eps must lie in"):
        delsum._modulus_table(small_system, [], eps)


# --------------------------------------------------------------------------
# delsum.block_trend


def test_block_trend_rejects_m_with_an_empty_r_range(small_system, no_transform):
    with pytest.raises(InvalidParameter, match="m must be an integer >= 0, got -1"):
        delsum.block_trend(small_system, 2, 1, [], m_values=[-1])


def test_block_trend_rejects_eps_with_an_empty_r_range(small_system, no_transform):
    with pytest.raises(InvalidParameter, match="eps must lie in"):
        delsum.block_trend(small_system, 2, 1, [], eps=-1.0)


def test_block_trend_checks_every_r_before_any_transform(small_system, no_transform):
    # checked row by row, r = 2's transform would raise TailNotCertifiable
    # (exit 3) before r = 999 were looked at
    with pytest.raises(InvalidParameter, match="r = 999 outside 1 .. 4") as info:
        delsum.block_trend(small_system, 2, 1, [1, 2, 999])
    assert info.value.exit_code == 2


def test_block_trend_checks_every_block_guard_before_any_transform(small_system, no_transform):
    with pytest.raises(TooLarge, match="N_4"):
        delsum.block_trend(small_system, 2, 1, [1, 4])


@pytest.mark.parametrize("m", [1.5, True, -2])
def test_block_trend_checks_every_m_before_any_transform(small_system, no_transform, m):
    with pytest.raises(InvalidParameter, match="m must be"):
        delsum.block_trend(small_system, 2, 1, [1], m_values=[0, m])


# --------------------------------------------------------------------------
# measure.sample_batch and the command's batch entries


def test_sample_batch_checks_depth_before_count(toy_schedule, no_sampling):
    with pytest.raises(ScheduleTooShort, match="depth 999 outside 1 .. 3"):
        sample_batch(binary_system(toy_schedule), seed=1, depth=999, count=0)


@pytest.mark.parametrize(
    "depth, bases, guard, count, error, message",
    [
        (0, [2], 8, None, ScheduleTooShort, "depth 0 outside 1 .. 3"),
        (4, [2], 8, None, ScheduleTooShort, "depth 4 outside 1 .. 3"),
        (3, [2, 1], 8, None, InvalidParameter, "base must be >= 2, got 1"),
        (3, [2], 8, -1, InvalidParameter, "count must be >= 0, got -1"),
        (3, [2], -1, None, InvalidParameter, "guard must be >= 0, got -1"),
    ],
    ids=["depth=0", "depth=4", "base=1", "count=-1", "guard=-1"],
)
def test_normality_batch_checks_with_zero_samples(
    toy_schedule, no_sampling, depth, bases, guard, count, error, message
):
    with pytest.raises(error, match=message):
        measure._normality_batch(binary_system(toy_schedule), 1, depth, 0, bases, guard, count)


def test_normality_batch_rejects_a_negative_sample_count(toy_schedule, no_sampling):
    with pytest.raises(InvalidParameter, match="samples must be >= 0, got -1"):
        measure._normality_batch(binary_system(toy_schedule), 1, 3, -1, [2], 8, None)


def test_normality_batch_guard_runs_before_the_first_sample(toy_schedule, no_sampling):
    with pytest.raises(TooLarge, match="2400000000000 entries"):
        measure._normality_batch(binary_system(toy_schedule), 1, 3, 8, [3 * 10**11], 8, None)


def test_normality_batch_rows_are_the_reports_of_sample_batch(small_system):
    rows = measure._normality_batch(small_system, 5, 8, 3, [2, 3, 10], 4, 40)
    expected = [
        (pt.seed, 8, rep)
        for pt in sample_batch(small_system, 5, 8, 3)
        for rep in normality_report(pt.value, [2, 3, 10], 4, 40)
    ]
    assert rows == expected
    assert measure._normality_batch(small_system, 5, 8, 0, [2], 8, None) == []


@pytest.mark.parametrize(
    "depth, j_max, error, message",
    [
        (3, 0, InvalidParameter, "j_max must be >= 1, got 0"),
        (3, 4, OutOfRange, "j_max = 4 exceeds the schedule depth 3"),
        (0, 1, ScheduleTooShort, "depth 0 outside 1 .. 3"),
        (0, 0, InvalidParameter, "j_max must be >= 1, got 0"),
    ],
    ids=["j_max=0", "j_max=4", "depth=0", "j_max-before-depth"],
)
def test_uniqueness_batch_checks_with_zero_samples(
    toy_schedule, no_sampling, depth, j_max, error, message
):
    with pytest.raises(error, match=message):
        measure._uniqueness_batch(binary_system(toy_schedule), 1, depth, 0, j_max)


def test_uniqueness_batch_bounds_the_sample_count_after_j_max_and_depth(
    toy_schedule, no_sampling
):
    sysm = binary_system(toy_schedule)
    with pytest.raises(InvalidParameter, match="uniqueness.samples must be >= 0, got -1"):
        measure._uniqueness_batch(sysm, 1, 3, -1, 1)
    with pytest.raises(ScheduleTooShort):
        measure._uniqueness_batch(sysm, 1, 0, -1, 1)


def test_uniqueness_batch_rejects_an_empty_interval_with_zero_samples(toy_schedule, no_sampling):
    # digit 6 of base 7 makes lo = 2 * 6/7 >= 1
    sysm = MoranSystem(toy_schedule, ((0, 6),) * 3, ((Fraction(1, 2),) * 2,) * 3)
    with pytest.raises(InvalidInterval, match="is empty"):
        measure._uniqueness_batch(sysm, 1, 3, 0, 1)


@pytest.mark.parametrize("kind", ["plain", "dim-one"])
def test_uniqueness_batch_rows_are_the_verdicts_of_uniqueness_avoidance(small_system, kind):
    sysm = small_system if kind == "plain" else build_convolved(small_system, "dim-one")
    for depth in (sysm.depth, 3):
        rows = measure._uniqueness_batch(sysm, 7, depth, 6, 2)
        expected = [
            (pt.seed, uniqueness_avoidance(pt.value, sysm, 2))
            for pt in sample_batch(sysm, 7, depth, 6)
        ]
        assert rows == expected
