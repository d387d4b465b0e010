"""Digit-projection combinatorics of the sequences h*b^n - h*b^m.

Two projections drive everything: Phi_N(n) takes the first N mixed-radix
digits of h*b^n - h*b^m, and Pi_{c,d}(n) keeps only the free-suffix digit
positions of blocks c+1 .. d (positions L_s + k_{s+1} .. L_{s+1} - 1). Over
an interval of n of length ord_{N_r/Q}(b) the Pi image tiles the full product
Y_{c,d} with identical fiber sizes; this module verifies those statements by
exhaustive enumeration and certifies them, and evaluates the digit-count
bounds #B_k <= C(k) that they feed. The definitional maps, one digit
string per n, live in tests/oracles.py (phi_map, pi_map) as the references
this module's kernels are checked against.

Powers b^n are never materialized: the residues of h*b^n - h*b^m over an
interval follow the exact one-step recurrence v <- (b v + c) mod P with
c = h b^m (b - 1), after two modular powers for the first one. The
partition check forms no digit strings at all: the free-suffix digits of
block s+1 read as one integer, (v // P_a) mod (P_e / P_a) with
a = L_s + k_{s+1}, e = L_{s+1} and P_n = M_1...M_n, and a fiber is keyed by
the tuple of these per-block integers, which is one-to-one with its Pi tuple.
The fiber-count check reads each digit it needs as (v // P_p) mod M_{p+1} and
each Phi prefix as the residue v mod P_l.

Both checks build their keys in one helper, _keys: the residue stream is
tee'd once per key column and each column is one or two C-level maps, so no
per-point Python frame builds a key. The partition check makes one pass over
the keys: it counts each key's occurrences and appends n to class c, the
point's occurrence index, so the classes come out sorted, with no per-fiber
lists, transpose or sort, and the i-th key in first-seen order is the i-th
member of class 0. It keeps the residues streamed; listing the residues or
the columns would add a list per column at the interval's length.
classify_Bk fixes the positions, their middle windows and the modulus before
its member loop and reads one digit row per member.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from itertools import repeat, tee
from operator import contains, floordiv, mod
from typing import Iterable, Iterator, Sequence

from ._record import Record
from .errors import (
    CounterexampleFound,
    InvalidParameter,
    InvalidRange,
    NotWellDistributed,
    OutOfRange,
    TooLarge,
)
from .numtheory import (
    ALPHA_SIXTH,
    BaseContext,
    derived_stirling_constants,
    integer_J,
    order_mod_reduced,
    y_product,
)
from .radix import middle_window, to_digits

ENUMERATION_GUARD = 10**7


def _default_m(ctx: BaseContext, m: int | None) -> int:
    # the subtrahend exponent is free as long as m >= n0 - 1
    if m is None:
        return ctx.n0 - 1
    if m < ctx.n0 - 1:
        raise InvalidRange(f"m = {m} below n0 - 1 = {ctx.n0 - 1}")
    return m


def _block_ranges(ctx: BaseContext, c: int, d: int) -> tuple[tuple[int, int], ...]:
    # (L_s + k_{s+1}, L_{s+1}): the free-suffix positions of block s+1, s = c .. d-1
    sch = ctx.schedule
    if not ctx.r0 <= c < d <= len(sch.q):
        raise InvalidRange(f"blocks must satisfy r0 = {ctx.r0} <= c < d <= {len(sch.q)}")
    return tuple((sch.L[s] + ctx.k[s], sch.L[s + 1]) for s in range(c, d))


def _block_positions(ctx: BaseContext, c: int, d: int) -> tuple[int, ...]:
    return tuple(p for start, end in _block_ranges(ctx, c, d) for p in range(start, end))


# --------------------------------------------------------------------------
# residues and fiber keys


def _difference_mod(ctx: BaseContext, n: int, m: int, modulus: int) -> int:
    # canonical residue of h (b^n - b^m); h may be negative
    diff = pow(ctx.b, n, modulus) - pow(ctx.b, m, modulus)
    return (ctx.h * diff) % modulus


def _values_over_interval(
    ctx: BaseContext, modulus: int, start: int, length: int, m: int
) -> Iterator[int]:
    """Residues of h*b^n - h*b^m mod modulus for n = start..start+length-1.

    Two modular powers for the first residue, then the exact one-step
    recurrence v <- (b v + c) mod modulus with c = h b^m (b - 1): one
    small-int multiply, an add and one reduction per step.
    """
    b = ctx.b % modulus
    bm = pow(b, m, modulus)
    c = ctx.h * bm * (b - 1) % modulus
    v = ctx.h * (pow(b, start, modulus) - bm) % modulus
    for _ in range(length):
        yield v
        v = (b * v + c) % modulus


def _keys(
    values: Iterable[int], cuts: Sequence[tuple[int, int | None]]
) -> Iterator[tuple[int, ...]]:
    """One key per residue v: the tuple of (v // low) % span over cuts. A
    span of None leaves v // low unreduced, for a column whose digits run up
    to the residues' modulus.

    The columns advance in lockstep under zip, so tee buffers at most one
    residue and the stream is never listed.
    """
    columns = (
        map(floordiv, vs, repeat(low))
        if span is None
        else map(mod, map(floordiv, vs, repeat(low)), repeat(span))
        for vs, (low, span) in zip(tee(values, len(cuts)), cuts)
    )
    return zip(*columns)


def _partition_classes(
    ctx: BaseContext, start: int, length: int, r: int, m: int
) -> tuple[dict[tuple[int, ...], int], list[list[int]]]:
    """The Pi_{r0,r} fibers of n = start..start+length-1, in one pass.

    Returns (sizes, classes). sizes maps each fiber key to its fiber's size,
    keys in first-seen order; a key holds one integer per block r0+1 .. r,
    the block's free-suffix digits of h*b^n - h*b^m read as
    (v // P_a) mod (P_e / P_a). classes[c] lists in increasing n the points
    that are the c-th occurrence of their key, so classes[0][i] is the first
    member of the i-th key of sizes.
    """
    P = ctx.schedule.prefix_product
    *lower, (last, depth) = _block_ranges(ctx, ctx.r0, r)
    # the residues are taken mod P_{L_r}, where block r's digits end
    cuts = tuple((P(a), P(e) // P(a)) for a, e in lower) + ((P(last), None),)
    values = _values_over_interval(ctx, P(depth), start, length, m)
    sizes: dict[tuple[int, ...], int] = {}
    classes: list[list[int]] = []
    get = sizes.get
    for n, key in enumerate(_keys(values, cuts), start):
        c = get(key, 0)
        sizes[key] = c + 1
        try:
            classes[c].append(n)
        except IndexError:  # the first c-th occurrence of any key
            classes.append([n])
    return sizes, classes


# --------------------------------------------------------------------------
# partition certification


class PartitionCertificate(Record):
    """An order-length interval split into J classes, each bijective onto Y_{r0,r}."""

    _fields = ("I_start", "length", "J", "y_size", "classes")

    def to_json(self) -> str:
        return json.dumps(
            {
                "I_start": self.I_start,
                "length": self.length,
                "J": self.J,
                "class_sizes": [len(c) for c in self.classes],
                "ok": True,
            }
        )


def verify_partition(
    I_start: int,
    ctx: BaseContext,
    r: int,
    m: int | None = None,
) -> PartitionCertificate:
    """Exhaustively verify the order-length partition at block depth r.

    The interval I = [I_start : I_start + ord_{N_r/Q}(b) - 1] is grouped by
    Pi_{r0,r}; the grouping must hit every point of Y_{r0,r} in fibers of the
    common size J, and the t-th elements of the fibers then assemble into J
    classes each bijective onto Y. A violation raises CounterexampleFound
    naming an offending n (it would indicate a bug, not a property of the
    inputs).
    """
    sch = ctx.schedule
    mm = _default_m(ctx, m)
    if not ctx.r0 + 1 <= r <= len(sch.q):
        raise InvalidRange(f"r = {r} outside r0 + 1 = {ctx.r0 + 1} .. {len(sch.q)}")
    if I_start <= mm:
        raise InvalidRange(f"I_start = {I_start} must exceed m = {mm}")
    order = order_mod_reduced(ctx, r, 0)
    if order > ENUMERATION_GUARD:
        raise TooLarge(f"interval length {order} exceeds the enumeration guard")
    y_size = y_product(ctx, r)
    J = integer_J(ctx, r)

    sizes, classes = _partition_classes(ctx, I_start, order, r, mm)
    if len(sizes) != y_size:
        raise CounterexampleFound(
            f"Pi image has {len(sizes)} points, expected {y_size} "
            f"(first n = {I_start})"
        )
    # class c holds the c-th members of the fibers, so every fiber has J
    # members exactly when there are J classes and the last one is full
    if len(classes) != J or len(classes[-1]) != y_size:
        for size, witness in zip(sizes.values(), classes[0]):
            if size != J:
                # name the fiber by its Pi digits, read from the witness
                depth = sch.L[r]
                val = _difference_mod(ctx, witness, mm, sch.prefix_product(depth))
                row = to_digits(val, sch, length=depth).digits
                key = tuple(row[p] for p in _block_positions(ctx, ctx.r0, r))
                raise CounterexampleFound(
                    f"fiber over {key} has {size} elements, expected {J} "
                    f"(witness n = {witness})"
                )
    return PartitionCertificate(
        I_start=I_start, length=order, J=J, y_size=y_size, classes=tuple(map(tuple, classes))
    )


class FiberTable(Record):
    """Fiber cardinalities at block step s -> s+1 over an order-length interval."""

    _fields = ("s", "length", "fibers", "image_sizes")


def fiber_counts(
    I: tuple[int, int],
    ctx: BaseContext,
    s: int,
    m: int | None = None,
) -> FiberTable:
    """Verify the fiber-count identities at the step from block s to s+1.

    I = (start, length) must have length exactly ord_{N_{s+1}/Q}(b). Checks,
    all exact:
      - each Pi_{r0,s} fiber splits into q_{s+1}^{j_{s+1}} equal
        Pi_{r0,s+1} sub-fibers (for s = r0 the single trivial fiber is I);
      - the prefix image #{Phi_{L_s+j}(n) : n in I} equals
        ord_{N_s q_{s+1}^j / Q}(b) for 0 <= j <= ell_{s+1}, with the map
        injective on a window of that order length;
      - the joint map n -> (Phi_{L_s + k_{s+1}}(n), Pi_{s,s+1}(n)) is
        injective on I (unique representative per pair).
    """
    sch = ctx.schedule
    mm = _default_m(ctx, m)
    if not ctx.r0 <= s < len(sch.q):
        raise InvalidRange(f"s = {s} outside r0 = {ctx.r0} .. {len(sch.q) - 1}")
    start, length = I
    if start <= mm:
        raise InvalidRange(f"interval start {start} must exceed m = {mm}")
    expected = order_mod_reduced(ctx, s + 1, 0)
    if length != expected:
        raise InvalidRange(f"interval length must be ord = {expected}, got {length}")
    if length > ENUMERATION_GUARD:
        raise TooLarge(f"interval length {length} exceeds the enumeration guard")

    P = sch.prefix_product
    values = list(_values_over_interval(ctx, P(sch.L[s + 1]), start, length, mm))
    pos_s = _block_positions(ctx, ctx.r0, s) if s > ctx.r0 else ()
    pos_s1 = _block_positions(ctx, ctx.r0, s + 1)
    cuts = tuple((P(p), sch.base_at(p + 1)) for p in pos_s1)
    q_pow = sch.q[s] ** ctx.j[s]

    # fine keys are the Pi_{r0,s+1} digit tuples; their first len(pos_s)
    # digits are the Pi_{r0,s} keys
    keys = list(_keys(values, cuts))
    coarse: dict[tuple[int, ...], int] = {}
    fine: dict[tuple[int, ...], int] = {}
    for fine_key in keys:
        coarse_key = fine_key[: len(pos_s)]
        coarse[coarse_key] = coarse.get(coarse_key, 0) + 1
        fine[fine_key] = fine.get(fine_key, 0) + 1
    for fine_key, count in fine.items():
        coarse_key = fine_key[: len(pos_s)]
        if q_pow * count != coarse[coarse_key]:
            raise CounterexampleFound(
                f"fiber over {fine_key}: {q_pow} * {count} != {coarse[coarse_key]}"
            )

    # a Phi prefix of length l is one-to-one with the residue v mod P_l
    image_sizes: list[tuple[int, int]] = []
    for j in range(sch.ell[s] + 1):
        ordj = order_mod_reduced(ctx, s, j)
        prefix_len = sch.L[s] + j
        P_len = P(prefix_len)
        whole = {v % P_len for v in values}
        window = {v % P_len for v in values[:ordj]}
        if len(whole) != ordj or len(window) != ordj:
            raise CounterexampleFound(
                f"Phi_{prefix_len} image has {len(whole)} points "
                f"({len(window)} on the order window), expected {ordj}"
            )
        image_sizes.append((j, ordj))

    P_k = P(sch.L[s] + ctx.k[s])
    joint = {(v % P_k, key[len(pos_s):]) for v, key in zip(values, keys)}
    if len(joint) != length:
        raise CounterexampleFound(
            f"joint prefix/suffix map hits {len(joint)} pairs over {length} points"
        )

    return FiberTable(
        s=s,
        length=length,
        fibers=tuple(sorted(fine.items())),
        image_sizes=tuple(image_sizes),
    )


# --------------------------------------------------------------------------
# digit-count histogram and its bound


def classify_Bk(
    Lam: Iterable[int],
    ctx: BaseContext,
    r: int,
    m: int | None = None,
) -> tuple[int, ...]:
    """Histogram (#B_0, ..., #B_u) of middle-window digit counts over Lam.

    Lam must be well-distributed for Pi_{r0,r}: exactly one element per point
    of Y_{r0,r}. k(n) counts the free-suffix positions whose digit lies in
    [floor(q/3), 2 floor(q/3)]; u is the number of those positions.
    """
    sch = ctx.schedule
    mm = _default_m(ctx, m)
    members = sorted(set(Lam))
    positions = _block_positions(ctx, ctx.r0, r)
    y_size = y_product(ctx, r)
    if len(members) != y_size:
        raise NotWellDistributed(f"#Lam = {len(members)}, expected {y_size}")
    if members and members[0] <= mm:
        raise InvalidRange(f"Lam contains n = {members[0]} <= m = {mm}")

    # schedule data shared by every member
    depth = sch.L[r]
    modulus = sch.prefix_product(depth)
    windows = []
    for p in positions:
        lo, hi = middle_window(sch.base_at(p + 1))
        windows.append(range(lo, hi + 1))
    counts = [0] * (len(positions) + 1)
    seen: set[tuple[int, ...]] = set()
    for n in members:
        row = to_digits(_difference_mod(ctx, n, mm, modulus), sch, length=depth).digits
        digits = tuple(map(row.__getitem__, positions))
        if digits in seen:
            raise NotWellDistributed(f"Pi collision at n = {n}")
        seen.add(digits)
        counts[sum(map(contains, windows, digits))] += 1
    return tuple(counts)


def C_bound(k: int, u: int, ctx: BaseContext, r: int) -> Fraction:
    """Exact value of C(k) = binom(u,k) * prod q_i^{j_i} * (1/2)^k (2/3)^(u-k).

    The product runs over blocks r0+1 .. r. u is a free parameter so the
    crossover law C(k) < C(k+1) iff k < (3u-4)/7 can be swept independently
    of the schedule depth.
    """
    if not 0 <= k <= u:
        raise OutOfRange(f"k = {k} outside 0 .. {u}")
    sch = ctx.schedule
    if not ctx.r0 <= r <= len(sch.q):
        raise InvalidRange(f"r = {r} outside r0 = {ctx.r0} .. {len(sch.q)}")
    return (
        Fraction(math.comb(u, k))
        * y_product(ctx, r)
        * Fraction(1, 2) ** k
        * Fraction(2, 3) ** (u - k)
    )


def check_peak_bound(u: int) -> tuple[Fraction, Fraction]:
    """Exact check of the near-peak bound at k = u/6 for u >= 6000, u = 0 mod 6.

    Returns (lhs, rhs) of

        binom(u, u/6) (1/2)^(u/6) (2/3)^(5u/6)  <=  C_tilde * u * alpha^u,

    both exact rationals (alpha^u = (alpha^6)^(u/6) stays rational), raising
    CounterexampleFound if the inequality fails. The schedule prefactor
    prod q^j is common to both sides and cancels.
    """
    if u < 6000 or u % 6 != 0:
        raise InvalidParameter(f"the bound is certified for u >= 6000 divisible by 6, got {u}")
    _, c_tilde = derived_stirling_constants()
    k = u // 6
    lhs = Fraction(math.comb(u, k)) * Fraction(1, 2) ** k * Fraction(2, 3) ** (u - k)
    rhs = c_tilde * u * ALPHA_SIXTH**k
    if lhs > rhs:
        raise CounterexampleFound(f"peak bound fails at u = {u}")
    return lhs, rhs


def _histogram_table(hist: Sequence[int], ctx: BaseContext, r: int) -> list:
    # the CSV rows of write_histogram_csv, header first
    u = len(hist) - 1
    rows: list = [["k", "count", "C_k_num", "C_k_den"]]
    for k, count in enumerate(hist):
        c = C_bound(k, u, ctx, r)
        rows.append([k, count, c.numerator, c.denominator])
    return rows


def write_histogram_csv(path: str, hist: Sequence[int], ctx: BaseContext, r: int) -> None:
    """One row per k: the count #B_k and the exact bound C(k) as num/den."""
    rows = _histogram_table(hist, ctx, r)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
