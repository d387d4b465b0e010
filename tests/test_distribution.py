"""Digit-projection combinatorics: partitions, fibers, and the B_k bound."""

import json
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moranlab import (
    C_bound,
    CounterexampleFound,
    InvalidParameter,
    InvalidRange,
    NotWellDistributed,
    OutOfRange,
    PrimeSchedule,
    ScheduleTooShort,
    TooLarge,
    binary_system,
    build_context,
    check_peak_bound,
    classify_Bk,
    fiber_counts,
    verify_partition,
)
from moranlab import distribution
from moranlab.distribution import _block_ranges, _partition_classes, _values_over_interval
from moranlab.numtheory import integer_J, order_mod_reduced

from oracles import (
    digit_row_fiber_counts,
    phi_map,
    pi_map,
    prefix_projection,
    reference_classify_Bk,
    running_power_residues,
)

CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"


@pytest.fixture(scope="module")
def toy():
    sch = PrimeSchedule(d=1, q=(7, 11), ell=(1, 2))
    sysm = binary_system(sch, Fraction(1, 2))
    ctx = build_context(2, 1, sch)
    return sch, sysm, ctx


@pytest.fixture(scope="module")
def three_block():
    sch = PrimeSchedule(d=1, q=(7, 11, 13), ell=(1, 2, 2))
    sysm = binary_system(sch, Fraction(1, 2))
    ctx = build_context(2, 1, sch)
    return sch, sysm, ctx


# the oracle maps Phi_N and Pi_{c,d} on hand-worked toy values


def test_phi_map_examples(toy):
    sch, _, ctx = toy
    proj = prefix_projection(ctx)  # m defaults to n0 - 1 = 0
    assert phi_map(1, proj, 3, sch) == (1, 0, 0)  # 2^1 - 1 = 1
    # 2^10 - 1 = 1023 = 176 mod 847 = 1 + 3*7 + 2*77
    assert phi_map(10, proj, 3, sch) == (1, 3, 2)


def test_phi_map_never_materializes_power(toy):
    # astronomically large exponents stay cheap via modular exponentiation
    sch, _, ctx = toy
    proj = prefix_projection(ctx)
    digits = phi_map(10**18 + 3, proj, 3, sch)
    assert len(digits) == 3
    val = digits[0] + 7 * digits[1] + 77 * digits[2]
    assert val == (pow(2, 10**18 + 3, 847) - 1) % 847


def test_pi_map_toy_positions(toy):
    _, _, ctx = toy
    # free suffix of block 2 is the single position 2 (k_2 = 1 frozen)
    assert pi_map(3, 1, 2, ctx) == (0,)  # 2^3 - 1 = 7 < 77
    for n in range(1, 8):
        digits = pi_map(n, 1, 2, ctx)
        assert digits == (((2**n - 1) % 847) // 77,)


def test_pi_column_equidistributes(toy):
    # over any order-length window the single projected digit covers
    # {0..10} exactly 30 times each
    _, _, ctx = toy
    for start in (1, 5, 123):
        seen: dict[tuple[int, ...], int] = {}
        for n in range(start, start + 330):
            key = pi_map(n, 1, 2, ctx)
            seen[key] = seen.get(key, 0) + 1
        assert sorted(seen) == [(d,) for d in range(11)]
        assert set(seen.values()) == {30}


def test_verify_partition_toy(toy):
    _, sysm, ctx = toy
    cert = verify_partition(1, ctx, sysm, r=2)
    assert cert.J == 30
    assert cert.length == 330
    assert cert.y_size == 11
    assert len(cert.classes) == 30
    assert all(len(c) == 11 for c in cert.classes)
    # classes partition the interval
    union = sorted(n for c in cert.classes for n in c)
    assert union == list(range(1, 331))


def test_verify_partition_interval_position_free(toy):
    _, sysm, ctx = toy
    cert = verify_partition(5, ctx, sysm, r=2)
    assert cert.J == 30
    assert cert.I_start == 5


def test_verify_partition_rejects_bad_r(toy):
    _, sysm, ctx = toy
    with pytest.raises(InvalidRange):
        verify_partition(1, ctx, sysm, r=1)  # r0 itself has no suffix blocks
    with pytest.raises(InvalidRange):
        verify_partition(1, ctx, sysm, r=3)
    with pytest.raises(InvalidRange):
        verify_partition(0, ctx, sysm, r=2)  # interval must start past m
    with pytest.raises(InvalidParameter):
        verify_partition(1, ctx, 42, r=2)  # neither a schedule nor a digit system


# each entry point on the toy schedule, as fn(sys, ctx, lam) with lam a
# class of the toy partition
SCHEDULE_ENTRY_POINTS = {
    "verify_partition": lambda sys, ctx, lam: verify_partition(1, ctx, sys, r=2),
    "fiber_counts": lambda sys, ctx, lam: fiber_counts((1, 330), ctx, sys, s=1),
    "classify_Bk": lambda sys, ctx, lam: classify_Bk(lam, ctx, sys, r=2),
    "C_bound": lambda sys, ctx, lam: C_bound(0, 1, ctx, sys, 2),
}


@pytest.mark.parametrize("name", sorted(SCHEDULE_ENTRY_POINTS))
def test_context_of_another_schedule_is_rejected(toy, name):
    sch, sysm, ctx = toy
    call = SCHEDULE_ENTRY_POINTS[name]
    lam = verify_partition(1, ctx, sysm, r=2).classes[0]
    expected = call(sysm, ctx, lam)
    # other primes, other multiplicities, as a system or as a bare schedule
    for other in (
        PrimeSchedule(d=1, q=(7, 13), ell=(1, 2)),
        PrimeSchedule(d=1, q=(7, 11), ell=(1, 3)),
    ):
        for sys in (other, binary_system(other, Fraction(1, 2))):
            with pytest.raises(InvalidParameter, match="context is for the schedule"):
                call(sys, ctx, lam)
    # d and variant change no digit: a twin schedule gives the same result
    twin = PrimeSchedule(d=2, q=sch.q, ell=sch.ell, variant="twin")
    for sys in (twin, binary_system(twin, Fraction(1, 3))):
        assert call(sys, ctx, lam) == expected


def test_verify_partition_on_another_schedule_is_a_parameter_error():
    # this mismatch used to surface as a CounterexampleFound, the error of
    # a bug, for a caller's mistake
    ctx = build_context(2, 1, PrimeSchedule(d=1, q=(7, 11, 13, 17), ell=(1, 2, 3, 4)))
    sysm = binary_system(PrimeSchedule(d=1, q=(7, 13, 17, 19), ell=(1, 3, 3, 3)))
    with pytest.raises(InvalidParameter, match="context is for the schedule"):
        verify_partition(1, ctx, sysm, r=2)


def test_fiber_counts_toy(toy):
    _, sysm, ctx = toy
    table = fiber_counts((1, 330), ctx, sysm, s=1)
    assert table.length == 330
    counts = dict(table.fibers)
    assert len(counts) == 11
    assert set(counts.values()) == {30}
    assert table.image_sizes == ((0, 3), (1, 30), (2, 330))


def test_fiber_counts_wrong_length(toy):
    _, sysm, ctx = toy
    with pytest.raises(InvalidRange):
        fiber_counts((1, 331), ctx, sysm, s=1)


@pytest.mark.parametrize("length", [1, 329, 10**9])
def test_fiber_counts_wrong_length_is_a_parameter_error(toy, length):
    # a length other than the order is a bad argument (exit 3), not a tripped
    # resource guard (exit 5), however long it is
    _, sysm, ctx = toy
    with pytest.raises(InvalidRange) as exc:
        fiber_counts((1, length), ctx, sysm, s=1)
    assert not isinstance(exc.value, TooLarge)
    assert exc.value.exit_code == 3


def test_fiber_counts_deeper_step(three_block):
    # s = 2 exercises the branch with a non-trivial coarse fiber
    _, sysm, ctx = three_block
    length = order_mod_reduced(ctx, 3, 0)
    table = fiber_counts((1, length), ctx, sysm, s=2)
    assert table.length == length
    q_pow = 13 ** ctx.j[2]
    counts = dict(table.fibers)
    coarse_total = sum(counts.values())
    assert coarse_total == length
    # every fine fiber has the same size length / (11 * 13)
    assert set(counts.values()) == {length // (11 * 13)}


@pytest.mark.parametrize(
    "q, ell, b, h",
    [
        ((7, 11), (1, 2), 2, 1),
        ((7, 11), (2, 2), 14, 1),  # Q = 49, saturation at n0 = 2
        ((7, 11), (1, 2), 2, -3),
        ((7, 11, 13), (1, 2, 2), 2, 1),
        ((7, 11, 13), (1, 3, 3), 3, 2),
        ((7, 11, 13), (1, 2, 3), 22, 1),  # r0 = 2
    ],
)
def test_fiber_counts_matches_digit_rows(q, ell, b, h):
    # residues and block integers reproduce the digit-row table exactly, at
    # the default m and at a larger m with a shifted interval
    sch = PrimeSchedule(d=1, q=q, ell=ell)
    sysm = binary_system(sch, Fraction(1, 2))
    ctx = build_context(b, h, sch)
    checked = 0
    for s in range(ctx.r0, len(sch.q)):
        length = order_mod_reduced(ctx, s + 1, 0)
        if length > 20_000:
            continue
        for m, start in ((None, ctx.n0), (ctx.n0 + 3, ctx.n0 + 17)):
            got = fiber_counts((start, length), ctx, sysm, s, m=m)
            assert got == digit_row_fiber_counts((start, length), ctx, sysm, s, m=m)
            checked += 1
    assert checked >= 2


def test_classify_Bk_toy_histogram(toy):
    _, sysm, ctx = toy
    cert = verify_partition(1, ctx, sysm, r=2)
    hist = classify_Bk(cert.classes[0], ctx, sysm, r=2)
    # base 11: middle window [3, 6] holds 4 of the 11 digits
    assert hist == (7, 4)
    assert sum(hist) == cert.y_size
    for cls in cert.classes:
        h = classify_Bk(cls, ctx, sysm, r=2)
        assert h == (7, 4)
        assert h[1] <= C_bound(1, 1, ctx, sysm, 2)
        assert h[0] <= C_bound(0, 1, ctx, sysm, 2)


def test_classify_Bk_rejects_bad_sets(toy):
    _, sysm, ctx = toy
    with pytest.raises(NotWellDistributed):
        classify_Bk(range(1, 11), ctx, sysm, r=2)  # wrong cardinality
    # 11 values with a Pi collision: n and n + 330 project identically
    bad = list(range(1, 11)) + [1 + 330]
    with pytest.raises(NotWellDistributed):
        classify_Bk(bad, ctx, sysm, r=2)


def test_C_bound_examples(toy):
    _, sysm, ctx = toy
    assert C_bound(0, 1, ctx, sysm, 2) == Fraction(22, 3)
    assert C_bound(1, 1, ctx, sysm, 2) == Fraction(11, 2)
    with pytest.raises(Exception):
        C_bound(2, 1, ctx, sysm, 2)


def test_C_bound_crossover_small_sweep(toy):
    # C(k) < C(k+1) exactly when 7k < 3u - 4
    _, sysm, ctx = toy
    for u in range(1, 41):
        for k in range(u):
            lhs = C_bound(k, u, ctx, sysm, 2)
            rhs = C_bound(k + 1, u, ctx, sysm, 2)
            assert (lhs < rhs) == (7 * k < 3 * u - 4)


def test_check_peak_bound_guards():
    with pytest.raises(InvalidParameter):
        check_peak_bound(5994)
    with pytest.raises(InvalidParameter):
        check_peak_bound(6001)


def test_mod_and_pi_cardinalities_agree(toy):
    # counting residues mod P_N equals counting digit tuples of length N
    sch, _, ctx = toy
    rng = random.Random(11)
    proj = prefix_projection(ctx)
    for N, modulus in ((1, 7), (2, 77), (3, 847)):
        lam = rng.sample(range(1, 500), 60)
        residues = {(pow(2, n, modulus) - 1) % modulus for n in lam}
        tuples = {phi_map(n, proj, N, sch) for n in lam}
        assert len(residues) == len(tuples)


def test_residual_class_window(toy):
    # over a window of length ord, b^n runs through exactly ord residues
    rng = random.Random(13)
    for modulus, order in ((77, 30), (847, 330)):
        start = rng.randint(1, 10**6)
        values = {pow(2, n, modulus) for n in range(start, start + order)}
        assert len(values) == order
        # and an extra step adds nothing new
        assert pow(2, start + order, modulus) in values


# --------------------------------------------------------------------------
# the integer fiber kernel against pi_map's digit tuples


def _pi_fibers(ctx, start, length, r):
    """Pi_{r0,r} fibers keyed by pi_map's digit tuples, members in increasing n."""
    fibers: dict[tuple[int, ...], list[int]] = {}
    for n in range(start, start + length):
        fibers.setdefault(pi_map(n, ctx.r0, r, ctx), []).append(n)
    return fibers


def _block_values(ctx, r, digits):
    """Each block's free-suffix digits read as one mixed-radix integer."""
    sch = ctx.schedule
    rest = iter(digits)
    key = []
    for s in range(ctx.r0, r):
        value, weight = 0, 1
        for p in range(sch.L[s] + ctx.k[s], sch.L[s + 1]):
            value += next(rest) * weight
            weight *= sch.base_at(p + 1)
        key.append(value)
    assert next(rest, None) is None
    return tuple(key)


SMALL_SCHEDULES = (
    PrimeSchedule(d=1, q=(7, 11), ell=(1, 2)),
    PrimeSchedule(d=1, q=(7, 11, 13), ell=(1, 2, 2)),
    PrimeSchedule(d=1, q=(7, 11, 13, 17), ell=(1, 2, 3, 4)),
    PrimeSchedule(d=1, q=(7, 11, 13, 17), ell=(1, 3, 3, 3)),
)


@settings(max_examples=40, deadline=None)
@given(
    sch=st.sampled_from(SMALL_SCHEDULES),
    b=st.sampled_from([2, 5, 10, 12]),
    h=st.sampled_from([1, 2, -3]),
    depth=st.integers(0, 3),
    start=st.integers(1, 10**12),
    length=st.integers(1, 600),
)
def test_partition_fibers_match_pi_map(sch, b, h, depth, start, length):
    # the one-pass classes against fibers read back from pi_map tuples, on
    # intervals of any length, so the fibers may differ in size
    ctx = build_context(b, h, sch)
    r = min(ctx.r0 + 1 + depth, len(sch.q))
    sizes, classes = _partition_classes(ctx, sch, start, length, r, ctx.n0 - 1)
    reference = {
        _block_values(ctx, r, digits): members
        for digits, members in _pi_fibers(ctx, start, length, r).items()
    }
    # keys in first-seen order, each with its fiber's size
    assert list(sizes.items()) == [(key, len(members)) for key, members in reference.items()]
    # every (key, occurrence index) -> n
    key_of = {n: key for key, members in reference.items() for n in members}
    for c, members in enumerate(classes):
        assert [reference[key_of[n]][c] for n in members] == members
    assert classes == [
        sorted(members[c] for members in reference.values() if len(members) > c)
        for c in range(max(map(len, reference.values())))
    ]
    # the i-th key's first member is the i-th member of class 0
    assert classes[0] == [members[0] for members in reference.values()]


@pytest.mark.parametrize("b", [2, 3, 10, 12])
@pytest.mark.parametrize("h", [-1, -3, -12])
@pytest.mark.parametrize("gap", [1, 10**15 + 7], ids=["start-at-m+1", "start-far-past-m"])
def test_residue_recurrence_matches_running_powers(b, h, gap):
    # the one-step recurrence reproduces h (b^n - b^m) mod P_n from two
    # running powers, at the default m and a larger one, on every prefix modulus
    sch = PrimeSchedule(d=1, q=(7, 11, 13, 17), ell=(1, 2, 3, 4))
    ctx = build_context(b, h, sch)
    for m in (ctx.n0 - 1, ctx.n0 + 40):
        for depth in range(1, sch.depth + 1):
            modulus = sch.prefix_product(depth)
            args = (ctx, modulus, m + gap, 300, m)
            assert list(_values_over_interval(*args)) == running_power_residues(*args)


@pytest.mark.parametrize(
    "ell, b, h, r",
    [
        ((1, 2, 3, 4), 2, 1, 3),  # the two bench partitions
        ((1, 3, 3, 3), 3, 2, 3),
        ((1, 2, 3, 4), 10, -3, 3),
        ((1, 2, 3, 4), 5, 2, 2),
    ],
)
def test_verify_partition_classes_match_pi_map_reference(ell, b, h, r):
    # the classes as built from full digit tuples with fibers in sorted key order
    sch = PrimeSchedule(d=1, q=(7, 11, 13, 17), ell=ell)
    sysm = binary_system(sch)
    ctx = build_context(b, h, sch)
    cert = verify_partition(5, ctx, sysm, r)
    fibers = _pi_fibers(ctx, 5, cert.length, r)
    keys = sorted(fibers)
    expected = tuple(
        tuple(sorted(fibers[key][t] for key in keys)) for t in range(cert.J)
    )
    assert cert.classes == expected
    assert len(keys) == cert.y_size


def test_verify_partition_counterexample_names_the_fiber(toy, monkeypatch):
    # a wrong J makes every fiber the wrong size; the message names the first
    # fiber by its Pi digit tuple and its witness n
    _, sysm, ctx = toy
    monkeypatch.setattr(distribution, "integer_J", lambda c, r: integer_J(c, r) + 1)
    with pytest.raises(CounterexampleFound) as exc:
        verify_partition(1, ctx, sysm, r=2)
    pi = pi_map(1, ctx.r0, 2, ctx)
    assert str(exc.value) == f"fiber over {pi} has 30 elements, expected 31 (witness n = 1)"


def _relabel_keys(monkeypatch, relabel):
    """Make the partition's key stream pass through relabel(keys) (a list)."""
    keys_of = distribution._keys

    def bad_keys(values, cuts):
        keys = list(keys_of(values, cuts))
        relabel(keys)
        return iter(keys)

    monkeypatch.setattr(distribution, "_keys", bad_keys)


def test_verify_partition_image_counterexample_message(toy, monkeypatch):
    # every point of the second key joins the first: the image loses a point
    _, sysm, ctx = toy

    def merge(keys):
        lost = next(key for key in keys if key != keys[0])
        keys[:] = [keys[0] if key == lost else key for key in keys]

    _relabel_keys(monkeypatch, merge)
    with pytest.raises(CounterexampleFound) as exc:
        verify_partition(3, ctx, sysm, r=2)
    assert str(exc.value) == "Pi image has 10 points, expected 11 (first n = 3)"


@pytest.mark.parametrize(
    "at, to, message",
    [
        # the point at 319 (a late member of the fiber first seen at 5) joins
        # the fiber first seen at 3, which is the first of the wrong size
        (319, 3, "fiber over (1,) has 31 elements, expected 30 (witness n = 7)"),
        # the point at 318 leaves the fiber first seen at 4 for the one first
        # seen at 5: the short fiber comes first
        (318, 5, "fiber over (3,) has 29 elements, expected 30 (witness n = 8)"),
    ],
    ids=["grown-fiber-first", "shrunk-fiber-first"],
)
def test_verify_partition_fiber_counterexample_message(toy, monkeypatch, at, to, message):
    _, sysm, ctx = toy

    def move(keys):
        keys[at] = keys[to]

    _relabel_keys(monkeypatch, move)
    with pytest.raises(CounterexampleFound) as exc:
        verify_partition(4, ctx, sysm, r=2)
    assert str(exc.value) == message


# --------------------------------------------------------------------------
# classify_Bk against the per-member pi_map loop


def _outcome(fn, *args, **kwargs):
    """The histogram, or the (class, message) of the error the call raises."""
    try:
        return fn(*args, **kwargs)
    except (NotWellDistributed, InvalidRange) as exc:
        return type(exc), str(exc)


@settings(max_examples=25, deadline=None)
@given(
    sch=st.sampled_from(SMALL_SCHEDULES),
    b=st.sampled_from([2, 3, 5, 10, 12]),
    h=st.sampled_from([1, 2, -3]),
    depth=st.integers(0, 2),
    start=st.integers(1, 10**9),
    seed=st.integers(0, 2**32),
)
def test_classify_Bk_matches_pi_map_reference(sch, b, h, depth, start, seed):
    try:
        ctx = build_context(b, h, sch)
    except ScheduleTooShort:
        assume(False)
    r = ctx.r0 + 1 + depth
    assume(r <= len(sch.q) and order_mod_reduced(ctx, r, 0) <= 12_000)
    sysm = binary_system(sch)
    cert = verify_partition(start, ctx, sysm, r)
    rng = random.Random(seed)
    for cls in cert.classes:
        expected = reference_classify_Bk(cls, ctx, sysm, r)
        assert sum(expected) == cert.y_size
        shuffled = list(cls)
        rng.shuffle(shuffled)
        duplicated = shuffled + rng.sample(shuffled, rng.randint(1, len(shuffled)))
        assert classify_Bk(shuffled, ctx, sysm, r) == expected
        assert classify_Bk(iter(duplicated), ctx, sysm, r) == expected

    # n + ord projects like n, so swapping a member for another member's
    # shift keeps the cardinality and makes a collision
    cls = list(cert.classes[rng.randrange(cert.J)])
    i = rng.randrange(len(cls))
    collided = cls[:i] + cls[i + 1 :] + [cls[i - 1] + cert.length]
    short = cls[:i] + cls[i + 1 :]
    extra = cls + [start + cert.length + i]
    for bad in (collided, short, extra):
        got = _outcome(classify_Bk, bad, ctx, sysm, r)
        assert got[0] is NotWellDistributed
        assert got == _outcome(reference_classify_Bk, bad, ctx, sysm, r)
    low = _outcome(classify_Bk, cls, ctx, sysm, r, m=min(cls))
    assert low[0] is InvalidRange
    assert low == _outcome(reference_classify_Bk, cls, ctx, sysm, r, m=min(cls))


def test_partition_fibers_stream_their_residues():
    # on the larger benchmark partition the enumeration peaks near the classes
    # it returns; listing the residues or the key columns first peaks at over
    # twice that
    cfg = json.loads((CONFIGS / "orbit_partition_b2.json").read_text())
    sch = PrimeSchedule(d=1, q=tuple(cfg["schedule"]["q"]), ell=tuple(cfg["schedule"]["ell"]))
    ctx = build_context(cfg["context"]["b"], cfg["context"]["h"], sch)
    r = cfg["partition"]["r"]
    order = order_mod_reduced(ctx, r, 0)
    tracemalloc.start()
    try:
        sizes, classes = _partition_classes(ctx, sch, 1, order, r, ctx.n0 - 1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, classes)) == sum(sizes.values()) == order == 111540
    assert peak <= 1.25 * held


@pytest.fixture(scope="module")
def four_block(small_schedule):
    # ord_(N_4/Q)(2) = 1,095,992,040 is past the enumeration guard
    sysm = binary_system(small_schedule, Fraction(1, 2))
    return small_schedule, sysm, build_context(2, 1, small_schedule)


@pytest.mark.parametrize(
    "call, error, code",
    [
        pytest.param(lambda toy, big: _block_ranges(toy[2], 0, 1), InvalidRange, 3,
                     id="block-ranges-c-below-r0"),
        pytest.param(lambda toy, big: _block_ranges(toy[2], 2, 2), InvalidRange, 3,
                     id="block-ranges-empty"),
        pytest.param(lambda toy, big: fiber_counts((1, 1), toy[2], toy[1], 2),
                     InvalidRange, 3, id="fiber-counts-s-past-the-schedule"),
        pytest.param(lambda toy, big: fiber_counts((0, 1), toy[2], toy[1], 1),
                     InvalidRange, 3, id="fiber-counts-start-not-above-m"),
        pytest.param(
            lambda toy, big: fiber_counts((1, order_mod_reduced(big[2], 4, 0)), big[2], big[1], 3),
            TooLarge, 5, id="fiber-counts-guard",
        ),
        pytest.param(lambda toy, big: verify_partition(1, big[2], big[1], 4), TooLarge, 5,
                     id="verify-partition-guard"),
        pytest.param(lambda toy, big: C_bound(0, 6, toy[2], toy[1], 0), InvalidRange, 3,
                     id="c-bound-r-below-r0"),
        pytest.param(lambda toy, big: C_bound(0, 6, toy[2], toy[1], 3), InvalidRange, 3,
                     id="c-bound-r-past-the-schedule"),
    ],
)
def test_caller_errors(toy, four_block, call, error, code):
    with pytest.raises(error) as info:
        call(toy, four_block)
    assert type(info.value) is error and info.value.exit_code == code
