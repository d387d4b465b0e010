"""Mixed-radix digit systems: per-level digit sets with exact weights.

The measures of the constructions are homogeneous: a prime q_r repeats for
a whole block of levels with one digit set and one weight tuple. So a
system's levels share their tuples (binary_system builds one (0, 1) tuple
and one weight pair per distinct omega), and the checks and the per-level
tables run once per distinct shared tuple, found by identity. A system
built from equal but unshared tuples equals the shared one and gets the
same tables; it only does the work once per level.

The transform-only level tables (_levels, and _transform_levels and
_transform_moduli built on it) come from ``fourier``, which is loaded only
when they are first built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

# modules, not names: fourier and rng run only when a table needs them
from . import fourier, rng
from ._record import Record
from .errors import InvalidParameter
from .radix import PrimeSchedule


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
        # ids of the digit tuples seen to increase strictly from >= 0, and of
        # the weight tuples seen to be positive rationals summing to 1; the
        # tuples stay alive in digit_sets and weights, so no id is reused
        increasing: set[int] = set()
        normalised: set[int] = set()
        for n, (base, digits, w) in enumerate(
            zip(schedule.bases(), digit_sets, weights), start=1
        ):
            if not digits:
                raise InvalidParameter(f"level {n} has an empty digit set")
            if len(w) != len(digits):
                raise InvalidParameter(f"level {n}: {len(digits)} digits, {len(w)} weights")
            if id(digits) in increasing:
                # known to increase strictly from >= 0: inside [0, base) iff its last is
                ok = digits[-1] < base
            else:
                ok = _increasing_below(digits, base)
                if ok:
                    increasing.add(id(digits))
            if not ok:
                raise InvalidParameter(
                    f"level {n}: digits must strictly increase within [0, {base})"
                )
            if id(w) in normalised:
                continue
            for x in w:
                if not isinstance(x, Fraction) or x.numerator <= 0:
                    raise InvalidParameter(f"level {n}: weights must be positive rationals")
            # integer numerators over one common denominator
            den = math.lcm(*(x.denominator for x in w))
            total = sum(x.numerator * (den // x.denominator) for x in w)
            if total != den:
                raise InvalidParameter(
                    f"level {n}: weights sum to {Fraction(total, den)}, not 1"
                )
            normalised.add(id(w))
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
        # with the gain ends of a {0,1} level and None for other levels
        return tuple(
            (n, P, level) + ((None, None) if level.gain is None else level.gain)
            for n, (P, level) in enumerate(
                zip(self.schedule.prefix_products(), self._levels), start=1
            )
        )

    @cached_property
    def _transform_moduli(self) -> tuple:
        # the P_n column of _transform_levels, which mu_hat_modulus bisects
        return tuple(row[1] for row in self._transform_levels)

    @cached_property
    def _decay_windows(self) -> tuple:
        # digit_decay_bound's table: (q, q // 3, 2 (q // 3)) per level base q,
        # one shared tuple per distinct base
        return _shared(lambda q: (q, q // 3, 2 * (q // 3)), self.schedule.bases())

    @cached_property
    def _window_gamma(self) -> float:
        """gamma with |M_n(t)| <= gamma on [1/6, 5/6] for every level n.

        For {0,1} digits |M(t)|^2 = 1 - 4 w0 w1 sin^2(pi t) and sin^2 >= 1/4
        on the window, so the sharp gamma is the largest sqrt(1 - w0 w1).
        Other systems take sqrt(1 - C(1 - D)) with C and D the smallest and
        largest weight, which digit_decay_bound checks on a grid.
        """
        weights = _distinct(self.weights)
        if self.is_binary:
            return math.sqrt(1 - float(min(w0 * w1 for w0, w1 in weights)))
        C = min(min(w) for w in weights)
        D = max(max(w) for w in weights)
        return math.sqrt(1 - float(C * (1 - D)))

    @cached_property
    def _thresholds(self) -> tuple[tuple[int, ...], ...]:
        # per-level cumulative_thresholds, built on the first sample
        return _shared(rng.cumulative_thresholds, self.weights)

    @cached_property
    def avoidance_lo(self) -> Fraction:
        """Left end 2 sup_n max(D_n)/M_n of the avoidance interval (lo, 1)."""
        # digit sets strictly increase, so the last digit is the largest
        tops = {(d[-1], base) for d, base in zip(self.digit_sets, self.schedule.bases())}
        return 2 * max(Fraction(top, base) for top, base in tops)

    def binary_omegas(self) -> tuple[Fraction, ...]:
        """Per-level weight of digit 0 for a {0,1} system."""
        if not self.is_binary:
            raise InvalidParameter("not a binary-digit system")
        return tuple(w[0] for w in self.weights)


_BINARY_DIGITS = (0, 1)


def binary_system(
    schedule: PrimeSchedule,
    omega: Fraction | Sequence[Fraction] = Fraction(1, 2),
) -> MoranSystem:
    """The {0,1}-digit system with weights (omega_n, 1 - omega_n).

    All levels share one digit tuple, and levels with equal omega share one
    weight pair."""
    depth = schedule.depth
    if isinstance(omega, (Fraction, int)):
        omegas = [Fraction(omega)] * depth
    else:
        omegas = [Fraction(o) for o in omega]
        if len(omegas) != depth:
            raise InvalidParameter(f"need {depth} weights, got {len(omegas)}")
    pairs: dict[Fraction, tuple[Fraction, Fraction]] = {}

    def pair(o: Fraction) -> tuple[Fraction, Fraction]:
        if o not in pairs:
            if not 0 < o < 1:
                raise InvalidParameter(f"weights must lie strictly inside (0, 1), got {o}")
            pairs[o] = (o, 1 - o)
        return pairs[o]

    return MoranSystem(
        schedule=schedule,
        digit_sets=(_BINARY_DIGITS,) * depth,
        weights=_shared(pair, omegas),
    )
