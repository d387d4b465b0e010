"""Criterion partial sums: determinism, decomposition, and the naive oracle."""

import struct
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranlab import (
    InvalidParameter,
    TooLarge,
    block_trend,
    del_partial,
    frequency,
    mu_hat_modulus,
)
from moranlab import MoranSystem, binary_system, build_convolved
from moranlab import delsum
from moranlab.delsum import DelReport, _sum_and_slop, asymptotic_constants

from oracles import exact_float_sum, left_to_right_slop, naive_del_sum, triple_loop_del_partial


def test_frequency_examples():
    assert frequency(1, 2, 3, 3) == 0
    assert frequency(3, 2, 4, 1) == 42
    assert frequency(-1, 10, 2, 0) == -99
    # stays exact far beyond float range
    assert frequency(1, 2, 300, 0) == 2**300 - 1


def test_single_term_is_one(small_system):
    report = del_partial(small_system, 2, 1, N_max=1, eps=1e-9)
    assert report.partial_sum == 1.0
    assert report.increments == (1.0,)
    assert report.diagonal_sum == 1.0
    assert report.offdiagonal_sum == 0.0


def test_small_sum_matches_naive_loop(small_system):
    # independent summation path: no memo, no compensation, plain loops
    for n_max in (2, 6, 12):
        report = del_partial(small_system, 2, 1, N_max=n_max, eps=1e-10)

        def mu(xi: int) -> float:
            if xi == 0:
                return 1.0
            cert = mu_hat_modulus(xi, small_system, 1e-12)
            return 0.5 * (cert.lo + cert.hi)

        naive = naive_del_sum(small_system, 2, 1, n_max, mu)
        assert naive == pytest.approx(report.partial_sum, abs=report.radius + 1e-9)


@pytest.mark.parametrize("b, h, n_max", [(2, 1, 3), (2, 1, 9), (3, -2, 7), (10, 1, 5)])
def test_radius_covers_exact_sums(small_system, b, h, n_max):
    # the same certified brackets summed exactly in Fractions: the midpoint
    # sum, and both ends of the bracket on the true partial sum, lie within
    # radius of partial_sum with no extra tolerance
    eps = 1e-9
    report = del_partial(small_system, b, h, N_max=n_max, eps=eps)
    mid = lo_sum = hi_sum = Fraction(0)
    for N in range(1, n_max + 1):
        for m in range(N):
            for n in range(N):
                xi = abs(frequency(h, b, n, m))
                cert = mu_hat_modulus(xi, small_system, eps / n_max**3)
                lo, hi = Fraction(cert.lo), Fraction(cert.hi)
                mid += (lo + hi) / 2 / N**3
                lo_sum += lo / N**3
                hi_sum += hi / N**3
    centre, radius = Fraction(report.partial_sum), Fraction(report.radius)
    assert abs(centre - mid) <= radius
    assert centre - radius <= lo_sum and hi_sum <= centre + radius


def _assert_same_report(got: DelReport, want: DelReport) -> None:
    for name in DelReport._fields:
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name


@pytest.mark.parametrize("N_max", [1, 2, 17])
@pytest.mark.parametrize("h", [1, -3])
@pytest.mark.parametrize("b", [2, 3, 10])
def test_del_partial_matches_triple_loop(medium_system, b, h, N_max):
    # every value is the exact sum of its terms rounded once, and every slop
    # the left-to-right mass of the (N, m, n) order, so every field is
    # bit-identical to the term-by-term loop over Fractions
    got = del_partial(medium_system, b, h, N_max=N_max, eps=1e-9)
    _assert_same_report(got, triple_loop_del_partial(medium_system, b, h, N_max, 1e-9))
    want = tuple(exact_float_sum(got.increments[:k]) for k in range(1, N_max + 1))
    assert repr(got.cumulative()) == repr(want)


@pytest.mark.parametrize("b, h", [(2, 1), (3, -3)])
def test_del_partial_matches_triple_loop_non_binary(medium_schedule, b, h):
    sysm = build_convolved(binary_system(medium_schedule, Fraction(1, 2)), "dim-one")
    assert not sysm.is_binary
    got = del_partial(sysm, b, h, N_max=9, eps=1e-9)
    _assert_same_report(got, triple_loop_del_partial(sysm, b, h, 9, 1e-9))


def _bits(pair: tuple[float, float]) -> bytes:
    return struct.pack("<2d", *pair)


# certified (lo, hi) per |xi| for b = 2, h = 1, N_max = 3, whose rows are
# xi = (0, 1, 3), (1, 0, 2), (3, 2, 0). The nine midpoints sum to 4 + 2^-51,
# half an ulp of 4, plus a 2^-104 term that breaks the tie upwards, so the
# exact sum rounds to 0x1.0000000000001p+2. A Neumaier pass gets that only
# in the (N, m, n) order: with each row reversed it rounds to 4.0
CRAFTED_MODULI = {
    0: (1.0, 1.0),
    1: (0.25, 0.75),
    2: (2.0**-53, 3 * 2.0**-53),
    3: (2.0**-106 * (1 + 2.0**-51), 2.0**-105 * (1.5 + 2.0**-52)),
}


def _crafted_cells(N, rows_reversed=False):
    rows = [[CRAFTED_MODULI[abs(2**n - 2**m)] for n in range(N)] for m in range(N)]
    return [cell for row in rows for cell in (row[::-1] if rows_reversed else row)]


CRAFTED_MIDPOINTS = [0.5 * (lo + hi) for lo, hi in _crafted_cells(3)]
REVERSED_MIDPOINTS = [0.5 * (lo + hi) for lo, hi in _crafted_cells(3, rows_reversed=True)]


@pytest.mark.parametrize(
    "xs",
    [
        [],
        [1.0],
        [1.0, 2.0**-53, 2.0**-53],  # a left-to-right pass loses both halves
        [0.1] * 10,
        [5e-324, 1.0 - 2.0**-53, 2.225e-308, 1e-300, 0.0, 1.0],
        CRAFTED_MIDPOINTS,
        REVERSED_MIDPOINTS,
    ],
)
def test_sum_and_slop_matches_exact_examples(xs):
    assert _bits(_sum_and_slop(iter(xs))) == _bits((exact_float_sum(xs), left_to_right_slop(xs)))


def test_crafted_midpoints_round_up_in_either_order():
    for xs in (CRAFTED_MIDPOINTS, REVERSED_MIDPOINTS):
        assert _sum_and_slop(xs)[0].hex() == "0x1.0000000000001p+2"


# the domain of every DEL sum: finite non-negative doubles, with zero,
# subnormals and the neighbours of 1 drawn often
DOMAIN = st.one_of(
    st.floats(min_value=0.0, max_value=1e300),
    st.floats(min_value=0.0, max_value=2.0**-1022),
    st.sampled_from([0.0, 5e-324, 2.225e-308, 0.5, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(DOMAIN))
def test_sum_and_slop_matches_fraction_sums(xs):
    assert _bits(_sum_and_slop(xs)) == _bits((exact_float_sum(xs), left_to_right_slop(xs)))


def _report(incs) -> DelReport:
    return DelReport(
        N_max=max(len(incs), 1), partial_sum=0.0, radius=0.0, increments=tuple(incs),
        diagonal_sum=0.0, offdiagonal_sum=0.0, block_sums=(),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(DOMAIN))
def test_cumulative_is_the_exact_sum_of_each_prefix(incs):
    got = _report(incs).cumulative()
    prefixes = [exact_float_sum(incs[:k]) for k in range(1, len(incs) + 1)]
    assert struct.pack(f"<{len(got)}d", *got) == struct.pack(f"<{len(incs)}d", *prefixes)


def test_cumulative_outside_the_domain_raises_on_overflow():
    # a sum that overflows raises, where a running float sum would read inf;
    # so does one whose partial sums overflow although its exact sum is finite
    assert _report([1e308]).cumulative() == (1e308,)
    with pytest.raises(OverflowError):
        _report([1e308, 1e308]).cumulative()
    with pytest.raises(OverflowError):
        _report([1e308, 1e308, -1e308]).cumulative()


def test_del_partial_sums_each_row_in_column_order(monkeypatch, small_system):
    # the order no longer moves a value, but the slop's mass is a left-to-
    # right sum and still depends on it; on the crafted moduli the increments
    # are the exact sums, and the radius is that of the (N, m, n) order
    def crafted_table(sys, xis, eps):
        return {xi: CRAFTED_MODULI[xi] for xi in xis}

    monkeypatch.setattr(delsum, "_modulus_table", crafted_table)
    report = del_partial(small_system, 2, 1, N_max=3, eps=1e-9)
    increments, radii = [], []
    for N in range(1, 4):
        cells = _crafted_cells(N)
        mids = [0.5 * (lo + hi) for lo, hi in cells]
        halves = [0.5 * (hi - lo) for lo, hi in cells]
        increments.append(exact_float_sum(mids) / float(N) ** 3)
        inner_rad = exact_float_sum(halves) + left_to_right_slop(halves)
        radii.append((inner_rad + left_to_right_slop(mids)) / float(N) ** 3)
    radius = exact_float_sum(radii) + left_to_right_slop(radii) + left_to_right_slop(increments)
    assert struct.pack("<3d", *report.increments) == struct.pack("<3d", *increments)
    assert struct.pack("<d", report.radius) == struct.pack("<d", radius)


def test_partial_sums_monotone(small_system):
    values = [
        del_partial(small_system, 2, 1, N_max=n, eps=1e-9).partial_sum
        for n in range(1, 16)
    ]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_increments_accumulate(small_system):
    # the shallow schedule caps how tight per-term certificates can get,
    # so the budget is deliberately coarse here
    report = del_partial(small_system, 2, 1, N_max=20, eps=1e-6)
    assert sum(report.increments) == pytest.approx(report.partial_sum, abs=1e-12)
    assert len(report.increments) == 20


def test_diagonal_plus_symmetric_split(medium_system):
    report = del_partial(medium_system, 2, 1, N_max=30, eps=1e-9)
    gap = abs(report.partial_sum - (report.diagonal_sum + report.offdiagonal_sum))
    assert gap <= report.radius + 1e-12


def test_repeat_calls_are_bit_identical(medium_system):
    reports = [del_partial(medium_system, 2, 1, N_max=25, eps=1e-9) for _ in range(3)]
    sums = {r.partial_sum for r in reports}
    radii = {r.radius for r in reports}
    assert len(sums) == 1 and len(radii) == 1


def test_del_partial_rejects(small_system):
    with pytest.raises(InvalidParameter):
        del_partial(small_system, 2, 1, N_max=0, eps=1e-9)
    with pytest.raises(InvalidParameter):
        del_partial(small_system, 2, 1, N_max=5, eps=0.0)
    for b in (1, 0, -2, 2.0):
        with pytest.raises(InvalidParameter, match="b must be an integer >= 2"):
            del_partial(small_system, b, 1, N_max=5, eps=1e-9)
    with pytest.raises(InvalidParameter, match="h must be a non-zero integer"):
        del_partial(small_system, 2, 0, N_max=5, eps=1e-9)


def test_del_partial_guard(small_system, monkeypatch):
    # N_max^2 frequencies are refused before the grid is built. The guard is
    # first seen to hold on a lowered bound, so N_max = 10^9, which would
    # exhaust memory, never runs unguarded
    with monkeypatch.context() as patch:
        patch.setattr(delsum, "BLOCK_GUARD", 4)
        assert del_partial(small_system, 2, 1, N_max=2, eps=1e-9).N_max == 2
        with pytest.raises(TooLarge, match=r"N_max\^2 = 9 exceeds the enumeration guard 4"):
            del_partial(small_system, 2, 1, N_max=3, eps=1e-9)
    # 316 is the largest N_max the guard of 10^5 admits
    with pytest.raises(TooLarge, match=r"N_max\^2 = 100489 exceeds"):
        del_partial(small_system, 2, 1, N_max=317, eps=1e-9)
    t0 = time.perf_counter()
    with pytest.raises(TooLarge) as info:
        del_partial(small_system, 2, 1, N_max=10**9, eps=1e-9)
    assert time.perf_counter() - t0 < 0.5
    assert info.value.exit_code == 5


def test_block_sums_group_increments(medium_system):
    report = del_partial(medium_system, 2, 1, N_max=60, eps=1e-9)
    # first block covers N in (1, 7]
    r, total = report.block_sums[0]
    assert r == 1
    assert total == pytest.approx(sum(report.increments[1:7]), abs=1e-12)


def test_block_trend_toy(small_system):
    rows = block_trend(small_system, 2, 1, r_range=(1,))
    assert len(rows) == 1
    row = rows[0]
    assert row.r == 1 and row.m == 0
    assert row.flag == "asymptotic-regime-only"
    assert row.block_sum == pytest.approx(3.701365260350612, abs=1e-9)
    # bound side: u_1 = 0 free-suffix positions up to r0, so 2A*N_1
    assert row.bound == pytest.approx(14.0, abs=1e-12)
    assert row.block_sum <= row.bound


def test_block_trend_empty_block(small_system):
    rows = block_trend(small_system, 2, 1, r_range=(1,), m_values=(6,))
    assert rows[0].block_sum == 0.0


def test_block_trend_guard(small_system):
    with pytest.raises(TooLarge):
        block_trend(small_system, 2, 1, r_range=(4,))  # N_4 is enormous


def test_asymptotic_constants():
    import math

    # B takes whichever of ln 0.999 and ln(gamma)/6 is closer to zero
    A, B = asymptotic_constants(math.sqrt(3) / 2)
    assert A == 1.0  # C_tilde = 7/250 < 1
    assert B == pytest.approx(-math.log(0.999), abs=1e-15)
    A2, B2 = asymptotic_constants(0.9999)
    assert B2 == pytest.approx(-math.log(0.9999) / 6.0, abs=1e-15)
    with pytest.raises(InvalidParameter):
        asymptotic_constants(1.0)


_THIRD = Fraction(1, 3)


@pytest.mark.parametrize(
    "call, error, code",
    [
        pytest.param(lambda sysm: frequency(1, 2, 3, -1), InvalidParameter, 2,
                     id="frequency-negative-exponent"),
        pytest.param(lambda sysm: block_trend(sysm, 2, 1, [0]), InvalidParameter, 2,
                     id="block-trend-r-0"),
        pytest.param(lambda sysm: block_trend(sysm, 2, 1, [len(sysm.schedule.q) + 1]),
                     InvalidParameter, 2, id="block-trend-r-past-the-schedule"),
        pytest.param(lambda sysm: block_trend(sysm, 2, 1, [1], m_values=(-1,)),
                     InvalidParameter, 2, id="block-trend-m-negative"),
        pytest.param(
            lambda sysm: block_trend(
                MoranSystem(sysm.schedule, ((0, 1, 2),) * sysm.depth,
                            ((_THIRD,) * 3,) * sysm.depth),
                2, 1, [1],
            ),
            InvalidParameter, 2, id="block-trend-non-binary-without-context",
        ),
    ],
)
def test_caller_errors(small_system, call, error, code):
    with pytest.raises(error) as info:
        call(small_system)
    assert type(info.value) is error and info.value.exit_code == code
