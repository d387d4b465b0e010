"""Exact sampling, digit statistics, and interval-avoidance verdicts.

Sample points are exact rationals: level n's digit inverts the n-th output
of the counter-based generator by its level's cumulative thresholds, and the
value sum d_n / (M_1...M_n) is carried as one big-integer numerator over the
full prefix product. Every downstream statistic (digit frequencies, orbit
discrepancy, interval avoidance) is then integer arithmetic; floats appear
only in report formatting.

Both hot paths pack many small values into fixed-width fields ("lanes") of
one big integer, so that a handful of C-level integer, bytes and map
operations replace a Python loop per level or per digit:

- the sampler places every level's generator counter in its own 128-bit
  lane and runs the splitmix64 finalizer once on the whole integer;
- base-b digits come from one exact division, floor(num b^count / den),
  split into halves by one map(divmod) per tree level down to leaves of L
  digits, each looked up in a per-base table of L-digit byte strings (b^L
  is at most 1024). Bases up to 256 give a bytes string, counted by
  bytes.count; larger bases stop at one-digit leaves, build no leaf table
  and give a tuple, counted in one Counter pass;
- the orbit bin floor(64 {b^k x}) is read from the r-digit window at k
  (b^r <= 4096; the digit itself for bases 65 to 4096, else one pass over
  16-bit lanes) and a per-base byte table maps each to its bin. A window
  that straddles a bin edge maps to a marker instead and is resolved from
  the longer m-digit window (b^m >= 2^40), and only when that too
  straddles from the exact remainder num b^k mod den, so the bins equal
  those of the remainder walk.

Normality outputs are descriptive finite-sample statistics. The inputs are
rationals, whose expansions are eventually periodic, so no report here ever
claims normality; reports carry an always-true `periodic` flag to make that
unmistakable.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import chain, repeat
from operator import getitem, itemgetter
from sys import byteorder
from typing import Iterable, Sequence

from ._record import Record
from .errors import (
    InvalidInterval,
    InvalidParameter,
    NotInSupport,
    OutOfRange,
    ScheduleTooShort,
    TooLarge,
)
from .system import MoranSystem
from .rng import _GOLDEN, _MASK, _MIX1, _MIX2, derive_seed

DEFAULT_GUARD = 8
# the normality batch's bound on samples x sum(bases), the number of
# frequency entries its reports would hold
FREQUENCY_GUARD = 10**6

# memoryview.cast reads lanes in the machine's byte order: lane order is
# ascending from a little-endian to_bytes and descending from a big-endian one
_LANE_STEP = 1 if byteorder == "little" else -1


class SamplePoint(Record):
    """An exactly represented point of the attractor, with its provenance."""

    _fields = ("digits", "value", "depth", "seed")


def _check_depth(sys: MoranSystem, depth: int) -> None:
    """Reject a sampling depth that the system's schedule does not reach."""
    if not 1 <= depth <= sys.depth:
        raise ScheduleTooShort(f"depth {depth} outside 1 .. {sys.depth}")


@cache
def _counter_lanes(depth: int) -> tuple[int, int, int]:
    # (ones, step, mask): 1, n * _GOLDEN and 2^64 - 1 in the low half of
    # 128-bit lane n - 1, for n = 1 .. depth
    ones = int.from_bytes((b"\x01" + bytes(15)) * depth, "little")
    step = int.from_bytes(
        b"".join((n * _GOLDEN).to_bytes(16, "little") for n in range(1, depth + 1)), "little"
    )
    return ones, step, ones * _MASK


def sample_point(sys: MoranSystem, seed: int, depth: int) -> SamplePoint:
    """Draw digits d_1..d_depth independently per the level weights.

    Level n consumes generator output n-1, so a prefix of a deeper sample
    equals the shallower sample with the same seed. The counter of level n,
    seed + n * _GOLDEN mod 2^64, sits in bits [128(n-1), 128(n-1) + 64) of
    one integer, and rng.mix64 runs once on all of them: every shift is
    masked to its lane, and a 64-bit lane value times a 64-bit multiplier
    fits its 128-bit lane, so nothing carries between levels. The draws are
    read back as the low halves of the lanes; each digit is the first
    threshold above its draw, found by bisection. The numerator is summed by
    Horner's rule over the schedule's bases, and the denominator is the
    schedule's cached prefix product P_depth.
    """
    _check_depth(sys, depth)
    ones, step, lanes = _counter_lanes(depth)
    z = ((seed & _MASK) * ones + step) & lanes
    u = z ^ ((z >> 30) & lanes)
    u = (u * _MIX1) & lanes
    u ^= (u >> 27) & lanes
    u = (u * _MIX2) & lanes
    u ^= (u >> 31) & lanes
    draws = memoryview(u.to_bytes(16 * depth, byteorder)).cast("Q")[:: 2 * _LANE_STEP]
    digits = tuple(map(getitem, sys.digit_sets, map(bisect_right, sys._thresholds, draws)))
    num = 0
    sch = sys.schedule
    for base, d in zip(sch.bases(depth), digits):
        num = num * base + d
    value = Fraction(num, sch.prefix_product(depth))
    return SamplePoint(digits=digits, value=value, depth=depth, seed=seed)


def sample_batch(
    sys: MoranSystem, seed: int, depth: int, count: int
) -> tuple[SamplePoint, ...]:
    """count independent points; point i is seeded with seed XOR i. The depth
    is checked first, so that no count hides a bad one."""
    _check_depth(sys, depth)
    if count < 1:
        raise InvalidParameter(f"count must be >= 1, got {count}")
    return tuple(sample_point(sys, derive_seed(seed, i), depth) for i in range(count))


# --------------------------------------------------------------------------
# base-b digit expansions


def _trusted(den: int, b: int, count: int | None, guard: int) -> int:
    """How many leading base-b digits of a fraction over den are trusted, at
    most count. When den divides a power of b every digit is exact, so all
    count digits are (64 when count is None). Otherwise den carries about
    log_b(den) digits of information and the window stops `guard` short of
    floor(log_b den) (all of that when count is None)."""
    rest = den
    while (g := math.gcd(rest, b)) > 1:
        rest //= g
    if rest == 1:
        return 64 if count is None else count
    # floor(log_b den) from a float estimate, corrected without overflow
    t = max(0, int((den.bit_length() - 1) / math.log2(b)))
    while b ** (t + 1) <= den:
        t += 1
    while t > 0 and b**t > den:
        t -= 1
    capacity = max(0, t - guard)
    return capacity if count is None else min(count, capacity)


_DISCREPANCY_BINS = 64
# the bin table's value for a window that straddles a bin edge
_STRADDLES = _DISCREPANCY_BINS
# the leaf table holds b^L <= _LEAF_SPAN byte strings, and the bin table
# b^r <= _WINDOW_SPAN bytes
_LEAF_SPAN = 1 << 10
_WINDOW_SPAN = 1 << 12
# digits fit a byte string up to this base; larger bases build no table
_BYTE_BASES = 256
# straddling windows are resolved from m digits with b^m >= 2^_WINDOW_BITS
_WINDOW_BITS = 40


def _straddling(span: int) -> frozenset[int]:
    """The windows A of a span-window grid whose cell [A, A + 1) / span
    holds a bin edge j / 64 in its interior: A = floor(j span / 64) for the
    j with j span / 64 not an integer. Any other cell lies in one bin,
    floor(64 A / span)."""
    return frozenset(
        j * span // _DISCREPANCY_BINS
        for j in range(1, _DISCREPANCY_BINS)
        if j * span % _DISCREPANCY_BINS
    )


def _width(b: int, span: int) -> int:
    # the largest k >= 1 with b^k <= span, for 2 <= b <= span
    k = 1
    while b ** (k + 1) <= span:
        k += 1
    return k


class _Radix:
    """Per-base tables of the digit converter and the orbit bins.

    leaves[v] is the L-digit byte string of v < b^L, and powers[j] is
    b^(L 2^j), extended on demand. bins[A] is the orbit bin of the r-digit
    window A, or _STRADDLES. A larger base than _BYTE_BASES has L = 1 and
    no leaves, and one larger than _WINDOW_SPAN has r = 0: its one empty
    window always straddles. m is the resolving window length, bm = b^m,
    and straddling holds the m-digit windows that still straddle an edge.
    """

    __slots__ = ("L", "leaves", "powers", "r", "bins", "m", "bm", "straddling")

    def __init__(self, b: int) -> None:
        m = 1
        while b**m < 1 << _WINDOW_BITS:
            m += 1
        L, r, leaves, bins = 1, 0, None, bytes((_STRADDLES,))
        if b <= _BYTE_BASES:
            L = _width(b, _LEAF_SPAN)
            digit = [bytes((d,)) for d in range(b)]
            leaves = digit
            for _ in range(L - 1):
                leaves = [hi + lo for hi in leaves for lo in digit]
        if b <= _WINDOW_SPAN:
            r = _width(b, _WINDOW_SPAN)
            span = b**r
            edges = _straddling(span)
            bins = bytes(
                _STRADDLES if A in edges else A * _DISCREPANCY_BINS // span for A in range(span)
            )
        self.L, self.leaves, self.powers, self.r, self.bins = L, leaves, [b**L], r, bins
        self.m, self.bm, self.straddling = m, b**m, _straddling(b**m)


# one _Radix per base, built on its first use
_radix = cache(_Radix)


def _digit_string(num: int, den: int, b: int, count: int) -> bytes | tuple[int, ...]:
    """The first `count` base-b digits of num/den in [0, 1), most significant
    first: a bytes string for b <= 256, else a tuple of ints.

    One exact division gives v = floor(num b^count / den), whose count
    base-b digits are exactly the wanted ones. v is read as a number of
    L 2^levels digits (the top ones zero) and halved level by level, each
    level one map(divmod) by b^(L 2^j), down to 2^levels leaves below b^L
    (Knuth, TAOCP vol. 2, 4.4). Byte bases look each leaf up in the table of
    L-digit strings; other bases have L = 1, so their leaves are the digits.
    Never goes through str(int).
    """
    radix = _radix(b)
    L, powers = radix.L, radix.powers
    levels = max(0, -(-count // L) - 1).bit_length()
    while len(powers) < levels:
        powers.append(powers[-1] * powers[-1])
    values = [num * b**count // den]
    for p in reversed(powers[:levels]):
        values = list(chain.from_iterable(map(divmod, values, repeat(p))))
    pad = (L << levels) - count
    if radix.leaves is None:
        return tuple(values[pad:])
    return b"".join(map(radix.leaves.__getitem__, values))[pad:]


def _checked(x: Fraction, bases: Sequence[int], count: int | None, guard: int) -> Fraction:
    # the argument checks of base_digits and normality_report, which
    # _normality_batch and the normality command's rule make with x = 0
    # before any point is drawn; x as a Fraction
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
    return x


def base_digits(
    x: Fraction, b: int, count: int, guard: int = DEFAULT_GUARD
) -> tuple[tuple[int, ...], int]:
    """First `count` base-b digits of x, plus how many of them are trusted.

    The digits are those of exact long division, computed from the single
    exact quotient floor(x b^count) by halving radix conversion. The trust
    window is _trusted's, so no trusted digit can be an artifact of the
    truncation of x.
    """
    x = _checked(x, (b,), count, guard)
    den = x.denominator
    return tuple(_digit_string(x.numerator, den, b, count)), _trusted(den, b, count, guard)


class NormalityReport(Record):
    """Digit-count and orbit-discrepancy statistics over trusted digits.

    counts holds the (digit, count) pairs of the digit values that occur in
    the trusted window, in digit order; absent values count 0. periodic is
    always True: rational inputs have eventually periodic expansions, so the
    statistics describe a finite window, never normality.
    """

    _fields = ("base", "trusted_digit_count", "counts", "max_deviation", "discrepancy", "periodic")
    _defaults = {"periodic": True}

    @property
    def frequencies(self) -> tuple[Fraction, ...]:
        # count / trusted_digit_count per digit value 0 .. base - 1, built
        # from counts on each read (all zero on an empty window)
        freqs = [Fraction(0)] * self.base
        for d, c in self.counts:
            freqs[d] = Fraction(c, self.trusted_digit_count)
        return tuple(freqs)


def _exact_bin(num: int, den: int, b: int, k: int) -> int:
    # floor(64 {b^k x}) from the remainder num b^k mod den
    return (_DISCREPANCY_BINS * (num * pow(b, k, den) % den)) // den


def _bin_counts(
    num: int, den: int, b: int, digits: bytes | tuple[int, ...], steps: int
) -> list[int]:
    """How many of {b^k x}, k < steps, fall in each of the 64 bins, where
    `digits` holds the first steps + m digits of x = num/den.

    {b^k x} lies in [A, A + 1) / b^r for the r-digit window A at k. For
    r > 1, digit i is spread into 16-bit lane i of one integer, and the
    sum of the lanes shifted down by t digits, weighted by b^(r-1-t), holds
    every window at once (each below b^r <= 4096, so no lane carries). The
    bin table maps each window to its bin or to _STRADDLES; a straddling k
    takes the m-digit window instead, and the exact remainder when that too
    straddles (_straddling).
    """
    radix = _radix(b)
    r, n = radix.r, len(digits)
    if r > 1:
        spread = bytearray(2 * n)
        spread[::2] = digits
        lanes = int.from_bytes(spread, "little")
        windows = 0
        for t in range(r):
            windows += b ** (r - 1 - t) * (lanes >> 16 * t)
        windows = memoryview(windows.to_bytes(2 * n, byteorder)).cast("H")[::_LANE_STEP]
    else:
        # a one-digit window is the digit itself; r = 0 has one empty window, 0
        windows = digits if r else bytes(n)
    binned = bytes(map(radix.bins.__getitem__, windows[:steps]))
    counts = list(map(binned.count, range(_DISCREPANCY_BINS)))
    m, bm, straddling = radix.m, radix.bm, radix.straddling
    k = binned.find(_STRADDLES)
    while k >= 0:
        A = 0
        for d in digits[k : k + m]:
            A = A * b + d
        if A in straddling:
            counts[_exact_bin(num, den, b, k)] += 1
        else:
            counts[A * _DISCREPANCY_BINS // bm] += 1
        k = binned.find(_STRADDLES, k + 1)
    return counts


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
    the trusted digits plus a short look-ahead window; digit values are
    counted on the digit string and orbit bins read off its windows.

    max_deviation, max_v |c_v / T - 1 / b| with T the trusted count, comes
    from the extreme counts: |b c - T| is convex in c, and the smallest
    count is 0 when fewer than b values occur.
    """
    x = _checked(x, bases, count, guard)
    num, den = x.numerator, x.denominator
    reports: list[NormalityReport] = []
    for b in bases:
        trusted = _trusted(den, b, count, guard)
        if trusted > 0:
            digits = _digit_string(num, den, b, trusted + _radix(b).m)
            window = digits[:trusted]
            if isinstance(window, bytes):
                counts = tuple(filter(itemgetter(1), enumerate(map(window.count, range(b)))))
            else:
                # a tuple (b > 256): one pass over the digits, not over b
                counts = tuple(sorted(Counter(window).items()))
            tallies = [c for _, c in counts]
            bottom = min(tallies) if len(counts) == b else 0
            worst = max(b * max(tallies) - trusted, trusted - b * bottom)
            max_dev = Fraction(worst, b * trusted)
            bins = _bin_counts(num, den, b, digits, trusted)
            worst = max(abs(_DISCREPANCY_BINS * c - trusted) for c in bins)
            discrepancy = Fraction(worst, _DISCREPANCY_BINS * trusted)
        else:
            counts = ()
            max_dev = discrepancy = Fraction(1)
        reports.append(
            NormalityReport(
                base=b,
                trusted_digit_count=trusted,
                counts=counts,
                max_deviation=max_dev,
                discrepancy=discrepancy,
            )
        )
    return reports


def _normality_batch(
    sys: MoranSystem,
    seed: int,
    depth: int,
    samples: int,
    bases: Sequence[int],
    guard: int,
    count: int | None,
) -> list[tuple[int, int, NormalityReport]]:
    """normality_report(x, bases, guard, count) of `samples` points drawn as
    by sample_batch, as (seed, depth, report) rows. Every argument is checked
    before the first point, so that zero samples still reject a bad one;
    samples x sum(bases) is bounded only to cap the size of the arguments."""
    _check_depth(sys, depth)
    _checked(0, bases, count, guard)
    if samples < 0:
        raise InvalidParameter(f"samples must be >= 0, got {samples}")
    if (entries := samples * sum(bases)) > FREQUENCY_GUARD:
        raise TooLarge(
            f"normality frequency tables of {entries} entries ({samples} samples x "
            f"{sum(bases)} digit values) exceed the guard {FREQUENCY_GUARD}"
        )
    points = sample_batch(sys, seed, depth, samples) if samples else ()
    return [
        (pt.seed, depth, rep)
        for pt in points
        for rep in normality_report(pt.value, bases, guard, count)
    ]


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
    # the levels n_1..n_{j_max} with k_j = P_(n_j - 1), which each system
    # type gives (MoranSystem._avoidance_levels); validates j_max
    if j_max < 1:
        raise InvalidParameter(f"j_max must be >= 1, got {j_max}")
    if not isinstance(sys, MoranSystem):
        raise InvalidParameter(f"unsupported system type {type(sys).__name__}")
    return sys._avoidance_levels(j_max)


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
    Membership in the attractor is checked before any dilation (every digit
    of x must lie in the level's digit set); all arithmetic is exact. The
    errors come in the order: x outside [0, 1), a bad j_max, an empty
    interval, x off the support.
    """
    x = Fraction(x)
    if not 0 <= x < 1:
        raise InvalidParameter(f"x must lie in [0, 1), got {x}")
    levels = _avoidance_levels(sys, j_max)
    lo = _avoidance_lo(sys)
    digits = _attractor_digits(x, sys.schedule, sys.depth)
    for n, d in enumerate(digits, start=1):
        if d not in sys.digit_sets[n - 1]:
            raise NotInSupport(f"digit {d} at level {n} outside the level digit set")
    return _avoidance_verdict(x, digits, sys.schedule, levels, lo)


def _avoidance_verdict(
    x: Fraction, digits: Sequence[int], sch, levels: Sequence[int], lo: Fraction
) -> AvoidanceVerdict:
    """The verdict of uniqueness_avoidance once its checks have passed:
    digits are the attractor digits of x at the system's depth, each in its
    level's digit set, levels come from _avoidance_levels (one per j, so
    j_max = len(levels)) and lo from _avoidance_lo. _uniqueness_batch passes
    the digits its sampler drew.

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
    j_max = len(levels)
    for j, n in enumerate(levels, start=1):
        if n <= depth and (digits[n - 1] + 1) * lo_den <= lo_num * bases[n - 1]:
            continue
        if lo_num_den < lo_den * ((num * sch.prefix_product(n - 1)) % den):
            return AvoidanceVerdict(
                passed=False, first_violation_j=j, interval_lo=lo, j_max=j_max
            )
    return AvoidanceVerdict(passed=True, first_violation_j=None, interval_lo=lo, j_max=j_max)


def _uniqueness_batch(
    sys: MoranSystem, seed: int, depth: int, samples: int, j_max: int
) -> list[tuple[int, AvoidanceVerdict]]:
    """The (seed, verdict) rows of `samples` points drawn as by sample_batch.
    Every argument is checked before the first point, so that zero samples
    still reject a bad one: j_max, the depth, then the count, whose message
    names the command's key, as the command bounds it here, after the two
    checks that it must not hide. A drawn digit lies in its level's set, so
    the drawn digits, padded by 0 (in every set), are the attractor digits."""
    levels = _avoidance_levels(sys, j_max)
    _check_depth(sys, depth)
    if samples < 0:
        raise InvalidParameter(f"uniqueness.samples must be >= 0, got {samples}")
    lo = _avoidance_lo(sys)
    pad = (0,) * (sys.depth - depth)
    points = sample_batch(sys, seed, depth, samples) if samples else ()
    return [
        (pt.seed, _avoidance_verdict(pt.value, pt.digits + pad, sys.schedule, levels, lo))
        for pt in points
    ]


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
