"""Exact sampling, digit statistics, and interval-avoidance verdicts.

Sample points are exact rationals: digits are drawn level by level with a
counter-based generator and exact cumulative-threshold inversion, and the
value sum d_n / (M_1...M_n) is carried as one big-integer numerator over the
full prefix product. Every downstream statistic (digit frequencies, orbit
discrepancy, interval avoidance) is then integer arithmetic; floats appear
only in report formatting.

Base-b digits come from one exact division, floor(x b^n), converted to base
b by halving (divmod by cached powers b^h down to small-int leaves), so no
loop divides a big integer once per digit. The orbit bin floor(64 {b^k x})
is read from the window of the next m digits (b^m >= 2^40) and slid with
small-int arithmetic; only a window that straddles a bin edge falls back to
the exact remainder num b^k mod den, so the bins equal those of the
remainder walk.

Normality outputs are descriptive finite-sample statistics. The inputs are
rationals, whose expansions are eventually periodic, so no report here ever
claims normality; reports carry an always-true `periodic` flag to make that
unmistakable.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, Sequence

from ._record import Record
from .errors import (
    InvalidInterval,
    InvalidParameter,
    NotInSupport,
    OutOfRange,
    ScheduleTooShort,
)
from .system import MoranSystem
from .rng import _GOLDEN, _MASK, _MIX1, _MIX2, derive_seed

DEFAULT_GUARD = 8


class SamplePoint(Record):
    """An exactly represented point of the attractor, with its provenance."""

    _fields = ("digits", "value", "depth", "seed")


def _check_depth(sys: MoranSystem, depth: int) -> None:
    """Reject a sampling depth that the system's schedule does not reach."""
    if not 1 <= depth <= sys.depth:
        raise ScheduleTooShort(f"depth {depth} outside 1 .. {sys.depth}")


def sample_point(sys: MoranSystem, seed: int, depth: int) -> SamplePoint:
    """Draw digits d_1..d_depth independently per the level weights.

    Level n consumes generator output n-1, so a prefix of a deeper sample
    equals the shallower sample with the same seed. The counter step and the
    splitmix64 finalizer of rng.value_at are inlined, and the digit is the
    first threshold above the draw, found by bisection. The denominator is
    the schedule's cached prefix product P_depth.
    """
    _check_depth(sys, depth)
    digits: list[int] = []
    num = 0
    z = seed
    sch = sys.schedule
    levels = zip(sch.bases(depth), sys._thresholds, sys.digit_sets)
    for base, thresholds, digit_set in levels:
        z = (z + _GOLDEN) & _MASK
        u = ((z ^ (z >> 30)) * _MIX1) & _MASK
        u = ((u ^ (u >> 27)) * _MIX2) & _MASK
        d = digit_set[bisect_right(thresholds, u ^ (u >> 31))]
        digits.append(d)
        num = num * base + d
    value = Fraction(num, sch.prefix_product(depth))
    return SamplePoint(digits=tuple(digits), value=value, depth=depth, seed=seed)


def sample_batch(
    sys: MoranSystem, seed: int, depth: int, count: int
) -> tuple[SamplePoint, ...]:
    """count independent points; point i is seeded with seed XOR i."""
    if count < 1:
        raise InvalidParameter(f"count must be >= 1, got {count}")
    return tuple(sample_point(sys, derive_seed(seed, i), depth) for i in range(count))


# --------------------------------------------------------------------------
# base-b digit expansions


def _ilog(n: int, b: int) -> int:
    # floor(log_b n) for n >= 1 without float overflow on huge n
    if n < 1:
        raise InvalidParameter(f"log of {n}")
    t = max(0, int((n.bit_length() - 1) / math.log2(b)))
    while b ** (t + 1) <= n:
        t += 1
    while t > 0 and b**t > n:
        t -= 1
    return t


def _terminating(den: int, b: int) -> bool:
    # does den divide some power of b?
    g = math.gcd(den, b)
    while g > 1:
        while den % g == 0:
            den //= g
        g = math.gcd(den, b)
    return den == 1


_LEAF_DIGITS = 16


def _radix_digits(num: int, den: int, b: int, count: int) -> list[int]:
    """The first `count` base-b digits of num/den in [0, 1), most significant
    first.

    One exact division gives v = floor(num b^count / den), whose count
    base-b digits are exactly the wanted ones; v is then split in halves by
    divmod with b^h (powers cached per call) down to leaves of at most
    _LEAF_DIGITS digits, which small-int divmods finish (Knuth, TAOCP vol. 2,
    4.4). Never goes through str(int).
    """
    out = [0] * count
    powers: dict[int, int] = {}

    def fill(v: int, start: int, n: int) -> None:
        if n <= _LEAF_DIGITS:
            i = start + n
            while v:
                i -= 1
                v, out[i] = divmod(v, b)
            return
        h = n // 2
        p = powers.get(h)
        if p is None:
            p = powers[h] = b**h
        hi, lo = divmod(v, p)
        fill(hi, start, n - h)
        fill(lo, start + n - h, h)

    fill((num * b**count) // den, 0, count)
    return out


def base_digits(
    x: Fraction, b: int, count: int, guard: int = DEFAULT_GUARD
) -> tuple[tuple[int, ...], int]:
    """First `count` base-b digits of x, plus how many of them are trusted.

    The digits are those of exact long division, computed from the single
    exact quotient floor(x b^count) by halving radix conversion. For a
    terminating expansion every digit is exact and trusted; otherwise the
    denominator carries roughly log_b(den) digits of information and the
    trust window stops `guard` digits short of that, so no trusted digit can
    be an artifact of the truncation of x.
    """
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if not 0 <= x < 1:
        raise InvalidParameter(f"x must lie in [0, 1), got {x}")
    if b < 2:
        raise InvalidParameter(f"base must be >= 2, got {b}")
    if count < 0:
        raise InvalidParameter(f"count must be >= 0, got {count}")
    if guard < 0:
        raise InvalidParameter(f"guard must be >= 0, got {guard}")
    den = x.denominator
    digits = tuple(_radix_digits(x.numerator, den, b, count))
    if _terminating(den, b):
        trusted = count
    else:
        trusted = max(0, min(count, _ilog(den, b) - guard))
    return digits, trusted


class NormalityReport(Record):
    """Digit-frequency and orbit-discrepancy statistics over trusted digits.

    periodic is always True: rational inputs have eventually periodic
    expansions, so the statistics describe a finite window, never normality.
    """

    _fields = (
        "base", "trusted_digit_count", "frequencies", "max_deviation", "discrepancy", "periodic"
    )
    _defaults = {"periodic": True}


_DISCREPANCY_BINS = 64
# orbit bins are read from windows of m digits with b^m >= 2^_WINDOW_BITS
_WINDOW_BITS = 40


def _window_length(b: int) -> int:
    m = 1
    while b**m < 1 << _WINDOW_BITS:
        m += 1
    return m


def _exact_bin(num: int, den: int, b: int, k: int) -> int:
    # floor(64 {b^k x}) from the remainder num b^k mod den
    return (_DISCREPANCY_BINS * (num * pow(b, k, den) % den)) // den


def _orbit_discrepancy(num: int, den: int, b: int, digits: Sequence[int], steps: int) -> Fraction:
    """Max deviation of the {b^k x} bin counts, k < steps, from uniform over
    64 bins; `digits` holds the first steps + _window_length(b) digits of x.

    {b^k x} lies in [A, A + 1) / b^m for the window A = d_{k+1}..d_{k+m}, so
    its bin is q = floor(64 A / b^m) unless 64 (A + 1) > b^m (q + 1), where
    the window straddles a bin edge j / 64. The straddling windows are
    exactly A = floor(j b^m / 64) for the j with j b^m / 64 not an integer;
    their bins come from the exact remainder instead.
    """
    m = _window_length(b)
    bm = b**m
    top = bm // b
    straddling = {
        j * bm // _DISCREPANCY_BINS
        for j in range(1, _DISCREPANCY_BINS)
        if j * bm % _DISCREPANCY_BINS
    }
    counts = [0] * _DISCREPANCY_BINS
    A = 0
    for d in digits[:m]:
        A = A * b + d
    for k, d in enumerate(digits[m : m + steps]):
        if A in straddling:
            counts[_exact_bin(num, den, b, k)] += 1
        else:
            counts[A * _DISCREPANCY_BINS // bm] += 1
        A = A % top * b + d
    worst = max(abs(_DISCREPANCY_BINS * c - steps) for c in counts)
    return Fraction(worst, _DISCREPANCY_BINS * steps)


def normality_report(
    x: Fraction,
    bases: Sequence[int],
    guard: int = DEFAULT_GUARD,
    count: int | None = None,
) -> list[NormalityReport]:
    """Per-base digit statistics of x over the trusted digit window.

    With count omitted, each base uses its full trust capacity (terminating
    expansions, which are exact at every digit, default to a 64-digit
    window). Each base costs one exact division and one radix conversion of
    the trusted digits plus a short look-ahead window; frequencies and orbit
    bins are then read off the digit list.
    """
    x = Fraction(x)
    if not 0 <= x < 1:
        raise InvalidParameter(f"x must lie in [0, 1), got {x}")
    for b in bases:
        if b < 2:
            raise InvalidParameter(f"base must be >= 2, got {b}")
    if count is not None and count < 0:
        raise InvalidParameter(f"count must be >= 0, got {count}")
    if guard < 0:
        raise InvalidParameter(f"guard must be >= 0, got {guard}")
    num, den = x.numerator, x.denominator
    reports: list[NormalityReport] = []
    for b in bases:
        if _terminating(den, b):
            trusted = 64 if count is None else count
        else:
            capacity = max(0, _ilog(den, b) - guard)
            trusted = capacity if count is None else min(count, capacity)
        if trusted > 0:
            digits = _radix_digits(num, den, b, trusted + _window_length(b))
            window = digits[:trusted]
            counts = [window.count(v) for v in range(b)]
            freqs = tuple(Fraction(c, trusted) for c in counts)
            max_dev = Fraction(max(abs(b * c - trusted) for c in counts), b * trusted)
            discrepancy = _orbit_discrepancy(num, den, b, digits, trusted)
        else:
            freqs = tuple(Fraction(0) for _ in range(b))
            max_dev = discrepancy = Fraction(1)
        reports.append(
            NormalityReport(
                base=b,
                trusted_digit_count=trusted,
                frequencies=freqs,
                max_deviation=max_dev,
                discrepancy=discrepancy,
            )
        )
    return reports


# --------------------------------------------------------------------------
# interval avoidance


class AvoidanceVerdict(Record):
    _fields = ("passed", "first_violation_j", "interval_lo", "j_max")

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _attractor_digits(x: Fraction, sch, depth: int) -> tuple[int, ...]:
    # digit_n = floor(P_n x) mod M_n, peeled least significant first by
    # single-limb divisions; requires x exactly representable at depth
    P = sch.prefix_product(depth)
    t, rem = divmod(x.numerator * P, x.denominator)
    if rem:
        raise NotInSupport(
            f"denominator {x.denominator} does not divide the depth-{depth} prefix product"
        )
    out: list[int] = []
    for base in reversed(sch.bases(depth)):
        t, d = divmod(t, base)
        out.append(d)
    out.reverse()
    return tuple(out)


def _avoidance_levels(sys, j_max: int) -> tuple[int, ...]:
    # the levels n_1..n_{j_max} with k_j = P_(n_j - 1): n_j = j + 1 (plain)
    # or the j-th special level (convolved); validates j_max
    if j_max < 1:
        raise InvalidParameter(f"j_max must be >= 1, got {j_max}")
    if isinstance(sys, MoranSystem):
        if j_max > sys.depth:
            raise OutOfRange(f"j_max = {j_max} exceeds the schedule depth {sys.depth}")
        return tuple(range(2, j_max + 2))
    # imported here, past the plain case, so a plain run never loads dimension
    from .dimension import ConvolvedSystem

    if isinstance(sys, ConvolvedSystem):
        special = sys.special_levels
        if j_max > len(special):
            raise OutOfRange(f"j_max = {j_max} exceeds the {len(special)} special levels")
        return special[:j_max]
    raise InvalidParameter(f"unsupported system type {type(sys).__name__}")


def _avoidance_lo(sys) -> Fraction:
    # the left end lo of the avoidance interval, which must leave (lo, 1) non-empty
    lo = sys.avoidance_lo
    if lo >= 1:
        raise InvalidInterval(f"avoidance interval ({lo}, 1) is empty")
    return lo


def uniqueness_avoidance(x: Fraction, sys, j_max: int) -> AvoidanceVerdict:
    """Check {k_j x} outside the avoidance interval (lo, 1) for j = 1..j_max.

    For a plain digit system the dilations are k_j = M_1...M_j and
    lo = 2L with L = sup_n max(D_n)/M_n. For a convolved system with special
    levels N = {n_1 < n_2 < ...} they are k_j = M_1...M_{n_j - 1} and
    lo = c + 1/6 with c = max over special levels of (max digit sum + 1)/M_n.
    Membership in the attractor is checked first (every digit of x must lie
    in the level's digit set); all arithmetic is exact.
    """
    x = Fraction(x)
    if not 0 <= x < 1:
        raise InvalidParameter(f"x must lie in [0, 1), got {x}")
    levels = _avoidance_levels(sys, j_max)
    lo = _avoidance_lo(sys)
    digit_sets = sys.digit_sets if isinstance(sys, MoranSystem) else sys.sum_sets
    digits = _attractor_digits(x, sys.schedule, sys.depth)
    for n, d in enumerate(digits, start=1):
        if d not in digit_sets[n - 1]:
            raise NotInSupport(f"digit {d} at level {n} outside the level digit set")
    return _avoidance_verdict(x, digits, sys.schedule, levels, lo, j_max)


def _avoidance_verdict(
    x: Fraction, digits: Sequence[int], sch, levels: Sequence[int], lo: Fraction, j_max: int
) -> AvoidanceVerdict:
    """The verdict of uniqueness_avoidance once its checks have passed:
    digits are the attractor digits of x at the system's depth, each in its
    level's digit set, levels come from _avoidance_levels and lo from
    _avoidance_lo. cmd_uniqueness passes the digits its sampler drew.

    With k = P_(n-1), {k x} = 0.d_n d_(n+1)... in the tail bases, so
    {k x} < (d_n + 1) / M_n: a dilation with (d_n + 1) / M_n <= lo is ruled
    out by its digit alone, with small integers. Only the others are checked
    against the exact remainder (num k) mod den.
    """
    # {k x} = ((num k) mod den) / den lies in the open (lo, 1) iff
    # lo_num den < lo_den ((num k) mod den); frac < 1 always
    num, den = x.numerator, x.denominator
    lo_num, lo_den = lo.numerator, lo.denominator
    lo_num_den = lo_num * den
    bases = sch.bases()
    depth = len(digits)
    for j, n in enumerate(levels, start=1):
        if n <= depth and (digits[n - 1] + 1) * lo_den <= lo_num * bases[n - 1]:
            continue
        if lo_num_den < lo_den * ((num * sch.prefix_product(n - 1)) % den):
            return AvoidanceVerdict(
                passed=False, first_violation_j=j, interval_lo=lo, j_max=j_max
            )
    return AvoidanceVerdict(passed=True, first_violation_j=None, interval_lo=lo, j_max=j_max)


# --------------------------------------------------------------------------
# CSV reports


# each _*_table gives the CSV rows of its writer, header first


def _normality_table(rows: Iterable[tuple[int, int, NormalityReport]]) -> list:
    out: list = [["seed", "depth", "base", "trusted_digits", "max_deviation", "discrepancy"]]
    for seed, depth, rep in rows:
        out.append(
            [
                seed,
                depth,
                rep.base,
                rep.trusted_digit_count,
                repr(float(rep.max_deviation)),
                repr(float(rep.discrepancy)),
            ]
        )
    return out


def write_normality_csv(
    path: str, rows: Iterable[tuple[int, int, NormalityReport]]
) -> None:
    """rows: (seed, depth, report) triples."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(_normality_table(rows))


def _uniqueness_table(rows: Iterable[tuple[int, AvoidanceVerdict]]) -> list:
    out: list = [["seed", "j_max", "verdict", "first_violation_j"]]
    for seed, v in rows:
        out.append([seed, v.j_max, v.verdict, "" if v.first_violation_j is None else v.first_violation_j])
    return out


def write_uniqueness_csv(path: str, rows: Iterable[tuple[int, AvoidanceVerdict]]) -> None:
    """rows: (seed, verdict) pairs."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(_uniqueness_table(rows))
