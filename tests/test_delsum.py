"""Criterion partial sums: determinism, decomposition, and the naive oracle."""

import struct
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
from moranlab import binary_system, build_context, build_convolved
from moranlab import delsum
from moranlab.delsum import DelReport, _neumaier, asymptotic_constants

from oracles import ReferenceNeumaier, naive_del_sum, reference_neumaier, triple_loop_del_partial


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
    # the tabulated (m, n) matrices keep the (N, m, n) summation order, so
    # every field is bit-identical to the term-by-term loop
    got = del_partial(medium_system, b, h, N_max=N_max, eps=1e-9)
    _assert_same_report(got, triple_loop_del_partial(medium_system, b, h, N_max, 1e-9))
    # cumulative() re-sums prefixes; a running accumulator must read the same
    running, want = ReferenceNeumaier(), []
    for inc in got.increments:
        running.add(inc)
        want.append(running.value)
    assert repr(got.cumulative()) == repr(tuple(want))


@pytest.mark.parametrize("b, h", [(2, 1), (3, -3)])
def test_del_partial_matches_triple_loop_non_binary(medium_schedule, b, h):
    sysm = build_convolved(binary_system(medium_schedule, Fraction(1, 2)), "dim-one")
    sysm = sysm.as_moran_system()
    assert not sysm.is_binary
    got = del_partial(sysm, b, h, N_max=9, eps=1e-9)
    _assert_same_report(got, triple_loop_del_partial(sysm, b, h, 9, 1e-9))


def _bits(pair: tuple[float, float]) -> bytes:
    return struct.pack("<2d", *pair)


@pytest.mark.parametrize(
    "xs",
    [[], [1.0], [1e16, 1.0, -1e16], [0.1] * 10, [3.0, -1e-20, 2.5e-300, -7.0, 1e308, -1e308]],
)
def test_neumaier_matches_reference(xs):
    assert _bits(_neumaier(iter(xs))) == _bits(reference_neumaier(xs))


EDGE_FLOATS = st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 2.225e-308, -1.5e-310, 0.0, -0.0])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), EDGE_FLOATS)))
def test_neumaier_step_order_matches_reference(xs):
    # the DEL totals cannot pin the step order (reversed rows round alike at
    # desk-scale N_max), so the accumulator is pinned here bit for bit
    assert _bits(_neumaier(xs)) == _bits(reference_neumaier(xs))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), EDGE_FLOATS)))
def test_cumulative_is_the_neumaier_sum_of_each_prefix(incs):
    # the one running pass against a fresh sum of every prefix, bit for bit
    report = DelReport(
        N_max=max(len(incs), 1), partial_sum=0.0, radius=0.0, increments=tuple(incs),
        diagonal_sum=0.0, offdiagonal_sum=0.0, block_sums=(),
    )
    prefixes = [_neumaier(incs[:k])[0] for k in range(1, len(incs) + 1)]
    got = report.cumulative()
    assert struct.pack(f"<{len(got)}d", *got) == struct.pack(f"<{len(incs)}d", *prefixes)


# certified (lo, hi) per |xi| for b = 2, h = 1, N_max = 3, whose rows are
# xi = (0, 1, 3), (1, 0, 2), (3, 2, 0). The nine midpoints sum to 4 + 2^-51,
# half an ulp of 4, plus a 2^-104 term that breaks the tie upwards: in the
# (N, m, n) order the Neumaier sum carries that term into the rounding, with
# each row reversed it rounds to 4.0 instead
CRAFTED_MODULI = {
    0: (1.0, 1.0),
    1: (0.25, 0.75),
    2: (2.0**-53, 3 * 2.0**-53),
    3: (2.0**-106 * (1 + 2.0**-51), 2.0**-105 * (1.5 + 2.0**-52)),
}


def _reference_increments_and_radius(N_max, rows_reversed=False):
    increments, radii = [], []
    for N in range(1, N_max + 1):
        rows = [[CRAFTED_MODULI[abs(2**n - 2**m)] for n in range(N)] for m in range(N)]
        cells = [cell for row in rows for cell in (row[::-1] if rows_reversed else row)]
        inner, inner_slop = reference_neumaier(0.5 * (lo + hi) for lo, hi in cells)
        inner_rad, rad_slop = reference_neumaier(0.5 * (hi - lo) for lo, hi in cells)
        increments.append(inner / float(N) ** 3)
        radii.append((inner_rad + rad_slop + inner_slop) / float(N) ** 3)
    _, total_slop = reference_neumaier(increments)
    radius, radius_slop = reference_neumaier(radii)
    return increments, radius + radius_slop + total_slop


def test_del_partial_sums_each_row_in_column_order(monkeypatch, small_system):
    # real moduli at desk-scale N_max round alike in either order, so the
    # order within a row is pinned here on moduli where it shows
    def crafted_table(sys, xis, eps):
        return {xi: CRAFTED_MODULI[xi] for xi in xis}

    monkeypatch.setattr(delsum, "_modulus_table", crafted_table)
    report = del_partial(small_system, 2, 1, N_max=3, eps=1e-9)
    increments, radius = _reference_increments_and_radius(3)
    reversed_increments, _ = _reference_increments_and_radius(3, rows_reversed=True)
    assert increments != reversed_increments  # the moduli tell the two orders apart
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


def test_block_trend_rejects_context_of_another_pair(small_system):
    ctx = build_context(2, 1, small_system.schedule)
    for b, h in ((3, 1), (2, -1)):
        with pytest.raises(InvalidParameter, match=r"ctx is for \(b, h\) = \(2, 1\)"):
            block_trend(small_system, b, h, r_range=(1,), ctx=ctx)
    assert block_trend(small_system, 2, 1, r_range=(1,), ctx=ctx) == block_trend(
        small_system, 2, 1, r_range=(1,)
    )


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
