"""The digit and orbit-bin kernels of `measure` against long division.

`base_digits` and `normality_report` compute digits from one exact division
and read orbit bins from digit windows; `oracles.long_division_digits` and
`oracles.remainder_walk_discrepancy` are the one-divmod-per-digit loops they
must reproduce exactly.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranlab import (
    InvalidParameter,
    NormalityReport,
    base_digits,
    measure,
    normality_report,
    sample_batch,
)
from moranlab.cli import _schedule_from, _system_from

from oracles import (
    long_division_digits,
    reference_normality,
    reference_trusted,
    remainder_walk_bins,
    remainder_walk_discrepancy,
    sparse_max_deviation,
)

# 2^40 + 15 needs no window table; reference_normality holds one frequency
# per digit value, so reports in this base are checked against
# sparse_max_deviation instead (test_huge_base_report_matches_sparse_oracle)
HUGE_BASE = 2**40 + 15
BASES = st.sampled_from(list(range(2, 17)) + [64, 100, 255, 256, 257, 1000, 4097, HUGE_BASE])
REPORT_BASES = BASES.filter(lambda b: b < HUGE_BASE)


@st.composite
def rationals(draw):
    """x = num / den in [0, 1) with den up to about 2^400."""
    den = draw(st.one_of(st.integers(1, 2**16), st.integers(1, 2**400)))
    return Fraction(draw(st.integers(0, den - 1)), den)


# None is the default window; 450 lies beyond every trust window here
COUNTS = st.one_of(st.none(), st.just(0), st.integers(1, 40), st.integers(300, 450))


def _fields(reports):
    return [
        (r.base, r.trusted_digit_count, r.frequencies, r.max_deviation, r.discrepancy)
        for r in reports
    ]


@settings(max_examples=200, deadline=None)
@given(rationals(), BASES, st.one_of(st.just(0), st.integers(1, 40), st.integers(100, 450)))
def test_base_digits_matches_long_division(x, b, count):
    digits, trusted = base_digits(x, b, count)
    assert digits == long_division_digits(x, b, count)
    assert trusted == reference_trusted(x.denominator, b, count)


@settings(max_examples=150, deadline=None)
@given(rationals(), st.lists(REPORT_BASES, min_size=1, max_size=3), COUNTS)
def test_normality_report_matches_reference(x, bases, count):
    reports = normality_report(x, bases, count=count)
    assert _fields(reports) == reference_normality(x, bases, count=count)
    assert all(r.periodic for r in reports)


TERMINATING = [
    Fraction(0),
    Fraction(1, 2),
    Fraction(63, 64),
    Fraction(3, 1000),
    Fraction(7, 2**30 * 5**9),
    Fraction(5, 64**3),
    Fraction(99, 100**4),
]


@pytest.mark.parametrize("x", TERMINATING)
@pytest.mark.parametrize("count", [None, 0, 5, 300])
def test_terminating_expansions_match_reference(x, count):
    bases = [2, 3, 5, 10, 16, 64, 100]
    assert _fields(normality_report(x, bases, count=count)) == reference_normality(
        x, bases, count=count
    )
    for b in bases:
        n = 70 if count is None else count
        assert base_digits(x, b, n) == (
            long_division_digits(x, b, n),
            reference_trusted(x.denominator, b, n),
        )


def test_bin_edges_take_the_exact_fallback(monkeypatch):
    # j/64 +- 3^-40 sits within 3^-40 of a bin edge, far inside the
    # 26-digit base-3 window, so the window cannot decide the first bin
    calls = []
    exact_bin = measure._exact_bin

    def counting(num, den, b, k):
        calls.append(k)
        return exact_bin(num, den, b, k)

    monkeypatch.setattr(measure, "_exact_bin", counting)
    delta = Fraction(1, 3**40)
    for j in range(64):
        for x in (Fraction(j, 64) + delta, Fraction(j, 64) - delta):
            if not 0 <= x < 1:
                continue
            before = len(calls)
            reports = normality_report(x, [3], count=None)
            assert _fields(reports) == reference_normality(x, [3])
            if j:
                assert calls[before : before + 1] == [0]  # bin 0 came from the remainder
    assert len(calls) >= 126


def test_base_ten_beyond_the_decimal_string_limit():
    # more than 4300 decimal digits, where str(int) refuses to convert
    den = 3**9500 + 2**100
    x = Fraction(2**15000 % den, den)
    digits, trusted = base_digits(x, 10, 4500)
    assert digits == long_division_digits(x, 10, 4500)
    assert trusted == 4500
    (report,) = normality_report(x, [10], count=4400)
    assert report.trusted_digit_count == 4400
    assert _fields([report]) == reference_normality(x, [10], count=4400)


@pytest.mark.parametrize("b", [2, 3, 10, 257])
def test_windows_beyond_the_decimal_string_limit_match_reference(b):
    # a denominator of about 5000 decimal digits: every base's trust window
    # holds more than 4300 decimal digits' worth of information
    den = 7**5917 + 2
    x = Fraction(3**9000 % den, den)
    assert den.bit_length() * math.log10(2) > 5000
    digits, trusted = base_digits(x, b, 200)
    assert (digits, trusted) == (long_division_digits(x, b, 200), 200)
    (report,) = normality_report(x, [b])
    assert report.trusted_digit_count * math.log10(b) > 4300
    assert _fields([report]) == reference_normality(x, [b])


def test_base_65537_counts_match_reference():
    # a base above 256 gives a digit tuple, counted in one pass; the period
    # repeats 0, 7 and b - 1, so several counts exceed 1
    b = 65537
    period = [0, 7, b - 1, 7, 0, 0, 12345, b - 1] * 6 + [7, 1]
    x = Fraction(sum(d * b**i for i, d in enumerate(period)), b**50 - 1)
    (report,) = normality_report(x, [b], count=40)
    assert report.trusted_digit_count == 40
    assert max(report.frequencies) > Fraction(1, 40)
    assert _fields([report]) == reference_normality(x, [b], count=40)


# x = (floor(d/3) + 12345) / d with d = 7^3000 + 2: a 2,536-digit
# denominator, so every base up to 2^40 + 15 trusts hundreds of digits
_DEEP_DEN = 7**3000 + 2
DEEP_X = Fraction(_DEEP_DEN // 3 + 12345, _DEEP_DEN)


def _reference_records(x, bases, count=None):
    # reference_normality's tuples as records, with the counts read back
    # from its frequencies
    return [
        NormalityReport(b, t, tuple((v, int(f * t)) for v, f in enumerate(freqs) if f), dev, disc)
        for b, t, freqs, dev, disc in reference_normality(x, bases, count=count)
    ]


WIDE_X = Fraction(3**700 % (5**400 + 7), 5**400 + 7)


def test_reports_equal_reference_records_in_every_byte_base_and_beyond():
    # the whole record, counts included, in bases 2 .. 256 (bytes counted
    # per value) and 257, 4,097 and 65,537 (one Counter pass)
    bases = list(range(2, 257)) + [257, 4097, 65537]
    reports = []
    for x in (WIDE_X, Fraction(5, 64**3), Fraction(1, 3)):
        reports += normality_report(x, bases)
        assert reports[-len(bases) :] == _reference_records(x, bases)
    assert all(r.counts == tuple(sorted(r.counts)) and all(c for _, c in r.counts) for r in reports)
    assert any(len(r.counts) == r.base for r in reports)  # every value occurs
    assert any(0 < len(r.counts) < r.base for r in reports)  # some value is absent
    assert any(not r.counts for r in reports)  # an empty window


def test_one_digit_window_bases_match_reference_records():
    # bases 65 .. 4096 read their orbit windows straight from the digits
    # (r = 1); base 4096 has no straddling window, and 4097 only one (r = 0)
    bases = [65, 255, 256, 257, 1000, 4095, 4096, 4097]
    assert [measure._radix(b).r for b in bases] == [1] * 7 + [0]
    assert [measure._radix(b).r for b in (2, 3, 10, 64)] == [12, 7, 3, 2]
    assert normality_report(DEEP_X, bases) == _reference_records(DEEP_X, bases)


@pytest.mark.parametrize("b", [4097, 65537])
def test_reports_build_a_bounded_number_of_fractions(monkeypatch, b):
    # the statistics come from integer counts: a report builds its two
    # Fractions (max_deviation and discrepancy), not one per digit value
    made = []

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(measure, "Fraction", counting)
    reports = normality_report(DEEP_X, [b, b, b])
    assert all(r.trusted_digit_count > 100 for r in reports)
    assert len(made) <= 1 + 2 * len(reports)


def test_huge_base_report_matches_sparse_oracle():
    (report,) = normality_report(DEEP_X, [HUGE_BASE])
    trusted = reference_trusted(_DEEP_DEN, HUGE_BASE, 10**6)
    assert report.trusted_digit_count == trusted > 150
    digits = long_division_digits(DEEP_X, HUGE_BASE, trusted)
    assert report.max_deviation == sparse_max_deviation(digits, HUGE_BASE)
    assert report.discrepancy == remainder_walk_discrepancy(DEEP_X, HUGE_BASE, trusted)
    assert sum(c for _, c in report.counts) == trusted


@settings(max_examples=100, deadline=None)
@given(rationals(), st.integers(2, 40), COUNTS)
def test_sparse_oracle_matches_reference_in_small_bases(x, b, count):
    ((_, trusted, _, max_dev, _),) = reference_normality(x, [b], count=count)
    n = trusted if count is None else count
    digits = long_division_digits(x, b, n)[:trusted]
    assert sparse_max_deviation(digits, b) == max_dev


@pytest.mark.parametrize(
    "b, digits",
    [
        (4, [0, 1, 2] * 10),  # 3 never occurs: 30 / (4 * 30) = 1/4, not 1/12
        (300, list(range(299)) * 2),  # 299 never occurs
        (3, [0, 1, 1, 0] * 9),
    ],
)
def test_max_deviation_counts_an_absent_value_as_zero(b, digits):
    # a flat window with one value missing: the missing value deviates most.
    # A terminating x = N / b^n has exactly these n digits, all trusted
    n = len(digits)
    x = Fraction(sum(d * b ** (n - 1 - i) for i, d in enumerate(digits)), b**n)
    (report,) = normality_report(x, [b], count=n)
    assert report.trusted_digit_count == n
    assert report.max_deviation == sparse_max_deviation(digits, b) == Fraction(1, b)
    assert report.frequencies[-1] == 0


def test_frequencies_read_back_from_counts():
    # base-4 digits 0, 0, 2, 1, 0, 2
    (report,) = normality_report(Fraction(146, 4**6), [4], count=6)
    assert report.counts == ((0, 3), (1, 1), (2, 2))
    assert report.frequencies == (Fraction(1, 2), Fraction(1, 6), Fraction(1, 3), Fraction(0))
    (empty,) = normality_report(Fraction(1, 3), [5], count=0)
    assert empty.counts == () and empty.frequencies == (Fraction(0),) * 5


def _bins(x, b, steps):
    digits = measure._digit_string(x.numerator, x.denominator, b, steps + measure._radix(b).m)
    return measure._bin_counts(x.numerator, x.denominator, b, digits, steps)


def _straddle_share(x, b, steps):
    # the share of k < steps whose r-digit window straddles a bin edge
    r = measure._radix(b).r
    if not r:
        return 1.0
    digits = long_division_digits(x, b, steps + r)
    edges = measure._straddling(b**r)
    windows = (
        sum(d * b ** (r - 1 - i) for i, d in enumerate(digits[k : k + r])) for k in range(steps)
    )
    return sum(A in edges for A in windows) / steps


EDGE_BASES = [3, 6, 7, 10, 255, 256, 257, 1000, 4095, 4097, HUGE_BASE]


@pytest.mark.parametrize("b", EDGE_BASES)
def test_bin_counts_match_the_remainder_walk_near_bin_edges(b):
    # x = j/64 +- b^-90 / 7: for odd b every {b^k x} with k well below 90
    # sits just above or below the edge (b^k j mod 64) / 64, so its window
    # straddles; even bases reach an edge only for their first few k
    shares, steps = [], 80
    for j in (1, 5, 21, 43, 63):
        for sign in (1, -1):
            x = Fraction(j, 64) + sign * Fraction(1, 7 * b**90)
            assert _bins(x, b, steps) == remainder_walk_bins(x, b, steps)
            shares.append(_straddle_share(x, b, steps))
    if b % 2:
        assert min(shares) > 0.8


@settings(max_examples=80, deadline=None)
@given(rationals(), st.sampled_from(EDGE_BASES), st.integers(1, 120))
def test_bin_counts_match_the_remainder_walk(x, b, steps):
    assert _bins(x, b, steps) == remainder_walk_bins(x, b, steps)


BENCH_CONFIG = Path(__file__).resolve().parents[1] / "bench" / "configs" / "sample_normality.json"


@pytest.mark.parametrize("seed", [1, 2])
def test_bench_normality_samples_match_reference(seed):
    cfg = json.loads(BENCH_CONFIG.read_text())
    sch = _schedule_from(cfg)
    bases = tuple(cfg["normality"]["bases"])
    pts = sample_batch(_system_from(cfg, sch), seed, sch.depth, cfg["normality"]["samples"])
    examined = 0
    for pt in pts:
        reports = normality_report(pt.value, bases)
        assert _fields(reports) == reference_normality(pt.value, bases)
        examined += sum(r.trusted_digit_count for r in reports)
    if seed == 1:
        assert examined == 110_802


@pytest.mark.parametrize(
    "x, bases, count",
    [
        (Fraction(1, 3), [1], None),
        (Fraction(1, 3), [0], None),
        (Fraction(1, 3), [2, -3], None),
        (Fraction(1, 2), [1], 4),
        (Fraction(1), [2], None),
        (Fraction(3, 2), [2], None),
        (Fraction(-1, 2), [10], 4),
        (Fraction(1, 3), [2], -1),
    ],
)
def test_normality_rejects_bad_arguments_up_front(x, bases, count):
    with pytest.raises(InvalidParameter):
        normality_report(x, bases, count=count)
