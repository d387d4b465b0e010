"""Mixed-radix digit systems: per-level digit sets with exact weights.

The measures of the constructions are homogeneous: a prime q_r repeats for
a whole block of levels with one digit set and one weight tuple. So a
system's levels share their tuples (binary_system builds one (0, 1) tuple
and one weight pair per distinct omega), and the checks and the per-level
tables run once per distinct shared tuple, found by identity: the checks
loop over _first_levels, which yields the first level of each distinct
tuple of column objects, and the per-level tables are built by _shared.
A system built from equal but unshared tuples equals the shared one and
gets the same tables; it only does the work once per level.

The transform-only level tables (_levels, and _transform_levels and
_window_gamma built on it) come from ``fourier``, loaded on first use.

A system gives its own avoidance data (avoidance_lo, _avoidance_levels);
dimension.ConvolvedSystem, a MoranSystem on its sum digit sets, overrides both.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Sequence

# a module, not names: fourier runs only when a transform table needs it
from . import fourier
from ._record import Record
from .errors import InvalidParameter, OutOfRange
from .radix import PrimeSchedule, middle_window


def _distinct(items: Iterable) -> Iterable:
    """The distinct objects of items (by identity), in first-seen order."""
    return {id(x): x for x in items}.values()


def _shared(fn: Callable, *columns: Sequence) -> tuple:
    """tuple(map(fn, *columns)), with fn called once per distinct tuple of
    argument objects (by identity): levels that share their data share the
    result."""
    memo: dict = {}
    out = []
    keys = map(id, columns[0]) if len(columns) == 1 else zip(*[map(id, c) for c in columns])
    for key, args in zip(keys, zip(*columns)):
        value = memo.get(key)
        if value is None:
            value = memo[key] = fn(*args)
        out.append(value)
    return tuple(out)


def _first_levels(*columns: Sequence) -> Iterator[tuple[int, tuple]]:
    """(n, args) for the first level n (1-based) of each distinct tuple args
    of column objects (by identity), in level order. A level whose objects
    repeat an earlier level's gives what that level gave, so a check of
    every level need only see these."""
    seen: set[tuple] = set()
    for n, args in enumerate(zip(*columns), start=1):
        key = tuple(map(id, args))
        if key not in seen:
            seen.add(key)
            yield n, args


def _integer_weights(w: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(den, numerators) with w[i] = numerators[i] / den, den the lcm of the
    denominators: for the weight check, _thresholds and the convolutions."""
    den = math.lcm(*(x.denominator for x in w))
    return den, [x.numerator * (den // x.denominator) for x in w]


def _increasing_below(digits: Sequence[int], base: int) -> bool:
    prev = -1
    for d in digits:
        if not prev < d < base:
            return False
        prev = d
    return True


class MoranSystem(Record):
    """A mixed-radix digit system: per-level digit sets and exact weights.

    Level n (1-based) contributes digits digit_sets[n-1] inside
    {0, ..., M_n - 1} with positive rational weights summing to 1.
    """

    _fields = ("schedule", "digit_sets", "weights")

    def __init__(
        self,
        schedule: PrimeSchedule,
        digit_sets: tuple[tuple[int, ...], ...],
        weights: tuple[tuple[Fraction, ...], ...],
    ) -> None:
        depth = schedule.depth
        if len(digit_sets) != depth or len(weights) != depth:
            raise InvalidParameter(
                f"need digit sets and weights for all {depth} levels, got "
                f"{len(digit_sets)} and {len(weights)}"
            )
        for n, (base, digits, w) in _first_levels(schedule.bases(), digit_sets, weights):
            if not digits:
                raise InvalidParameter(f"level {n} has an empty digit set")
            if len(w) != len(digits):
                raise InvalidParameter(f"level {n}: {len(digits)} digits, {len(w)} weights")
            if not _increasing_below(digits, base):
                raise InvalidParameter(
                    f"level {n}: digits must strictly increase within [0, {base})"
                )
            for x in w:
                if not isinstance(x, Fraction) or x.numerator <= 0:
                    raise InvalidParameter(f"level {n}: weights must be positive rationals")
            den, numerators = _integer_weights(w)
            total = sum(numerators)
            if total != den:
                raise InvalidParameter(
                    f"level {n}: weights sum to {Fraction(total, den)}, not 1"
                )
        self.__dict__.update(schedule=schedule, digit_sets=digit_sets, weights=weights)

    @property
    def depth(self) -> int:
        return self.schedule.depth

    @cached_property
    def is_binary(self) -> bool:
        return all(d == (0, 1) for d in _distinct(self.digit_sets))

    @cached_property
    def _levels(self) -> tuple:
        # fourier's per-level mask data, built on the first transform; a
        # cached_property is no field, so it stays out of eq/hash/repr
        return _shared(fourier._build_level, self.digit_sets, self.weights)

    @cached_property
    def _transform_levels(self) -> tuple:
        # mu_hat_modulus's loop table: (n, P_n, level, g_lo, g_hi) per level,
        # with gain ends only where the inline two-product kernel is exact, a
        # {0,1} level whose lower gain is positive, and None for other levels
        return tuple(
            (n, P, level)
            + ((None, None) if level.count > 1 or level.gain[0] <= 0.0 else level.gain)
            for n, (P, level) in enumerate(
                zip(self.schedule.prefix_products(), self._levels), start=1
            )
        )

    @cached_property
    def _decay_windows(self) -> tuple:
        # digit_decay_bound's table: (q, lo, hi) per level base q with the
        # ends of its middle-third window, one shared tuple per distinct base
        return _shared(lambda q: (q, *middle_window(q)), self.schedule.bases())

    @cached_property
    def _window_gamma(self) -> float:
        """gamma with |M_n(t)| <= gamma on [1/6, 5/6] for every level n.

        Each level mask is a {0,1} factor, |B(t)|^2 = 1 - 4 w0 w1 sin^2(pi t)
        with sin^2 >= 1/4 on the window, times a Dirichlet factor, which is
        at most 1 (fourier._build_level). So the largest sqrt(1 - w0 w1) is
        a proven gamma, and the sharp one for {0,1} systems.
        """
        pairs = _distinct(level.pair for level in self._levels)
        return math.sqrt(1 - float(min(w0 * w1 for w0, w1 in pairs)))

    @cached_property
    def _thresholds(self) -> tuple[tuple[int, ...], ...]:
        # per level, built on the first sample: threshold d is
        # floor(2^64 (w_0 + ... + w_d)) from the running integer total, the
        # last forced to 2^64 so no 64-bit draw falls past it; a draw takes
        # the first threshold above it, within 2^-64 of each digit's weight
        def level(w: tuple[Fraction, ...]) -> tuple[int, ...]:
            den, numerators = _integer_weights(w)
            return (*((t << 64) // den for t in accumulate(numerators[:-1])), 1 << 64)

        return _shared(level, self.weights)

    @cached_property
    def avoidance_lo(self) -> Fraction:
        """Left end 2 sup_n max(D_n)/M_n of the avoidance interval (lo, 1)."""
        # digit sets strictly increase, so the last digit is the largest
        tops = {(d[-1], base) for d, base in zip(self.digit_sets, self.schedule.bases())}
        return 2 * max(Fraction(top, base) for top, base in tops)

    def _avoidance_levels(self, j_max: int) -> tuple[int, ...]:
        # the levels n_j of the dilations k_j = P_(n_j - 1) = M_1...M_j: n_j = j + 1
        if j_max > self.depth:
            raise OutOfRange(f"j_max = {j_max} exceeds the schedule depth {self.depth}")
        return tuple(range(2, j_max + 2))

    def binary_omegas(self) -> tuple[Fraction, ...]:
        """Per-level weight of digit 0 for a {0,1} system."""
        if not self.is_binary:
            raise InvalidParameter("not a binary-digit system")
        return tuple(w[0] for w in self.weights)


_BINARY_DIGITS = (0, 1)


def binary_system(schedule: PrimeSchedule, omega: Fraction = Fraction(1, 2)) -> MoranSystem:
    """The {0,1}-digit system with weights (omega, 1 - omega) at every level.

    All levels share one digit tuple and one weight pair."""
    if isinstance(omega, bool) or not isinstance(omega, (Fraction, int)):
        raise InvalidParameter(f"omega must be a Fraction or an int, got {omega!r}")
    omega = Fraction(omega)
    if not 0 < omega < 1:
        raise InvalidParameter(f"weights must lie strictly inside (0, 1), got {omega}")
    depth = schedule.depth
    return MoranSystem(
        schedule=schedule,
        digit_sets=(_BINARY_DIGITS,) * depth,
        weights=((omega, 1 - omega),) * depth,
    )
