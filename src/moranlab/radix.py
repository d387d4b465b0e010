"""Prime schedules, mixed-radix bases, and exact digit representations.

A schedule is a finite strictly increasing list of primes ``q_1 < q_2 < ...``
with ``q_1 >= 7`` and positive level multiplicities ``ell_r``.  It induces the
base sequence ``M_n``: the value ``q_{s+1}`` repeated ``ell_{s+1}`` times, so
position ``n = L_s + (j+1)`` (1-based, ``L_s = ell_1 + ... + ell_s``) has base
``q_{s+1}``.  Every non-negative integer N then has a unique digit string

    N = d_0 + d_1*M_1 + d_2*M_1*M_2 + ...      with 0 <= d_n <= M_{n+1} - 1.

Digits are 0-indexed while bases are 1-indexed: digit index n uses base
M_{n+1}.  All integers are exact; products N_r = q_1^ell_1 ... q_r^ell_r are
plain Python big integers.
"""

from __future__ import annotations

import json
import operator
from functools import cached_property
from itertools import accumulate
from typing import Iterator

from ._record import Record
from .errors import (
    InvalidParameter,
    NoPrimeInWindow,
    OutOfRange,
    ScheduleTooShort,
)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base above (psi_13); below it the
# Miller-Rabin test over _MR_BASES is exact
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the primes 2..41, exact for all
    n < psi_13 = 3317044064679887385961981 (about 3.3e24), which covers any
    schedule prime; OutOfRange at or above that bound instead of a guess."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise OutOfRange(f"{n} is beyond the exact primality bound {_MR_LIMIT}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    k = max(n, 2)
    while not is_prime(k):
        k += 1
    return k


class PrimeSchedule(Record):
    """Finite prime schedule with derived partial sums and products.

    d: growth exponent used when the multiplicities were generated
    q: strictly increasing primes, q[0] >= 7
    ell: positive multiplicities, one per prime
    variant: how q was generated ("nth-prime-from-7", "cube-window(offset=K)",
        or "explicit")

    L and N are the partial sums of ell and the products N_r; they and
    _bases[n - 1] = M_n derive from q and ell, so they are no fields.
    """

    _fields = ("d", "q", "ell", "variant")

    def __init__(
        self, d: int, q: tuple[int, ...], ell: tuple[int, ...], variant: str = "explicit"
    ) -> None:
        if isinstance(d, bool) or not isinstance(d, int) or d < 1:
            raise InvalidParameter(f"growth exponent must be a positive integer, got {d!r}")
        if len(q) == 0:
            raise InvalidParameter("schedule needs at least one prime")
        if len(q) != len(ell):
            raise InvalidParameter("q and ell must have equal length")
        for p in q:
            if not isinstance(p, int):
                raise InvalidParameter(f"primes must be integers, got {p!r}")
        if q[0] < 7:
            raise InvalidParameter(f"first prime must be >= 7, got {q[0]}")
        for a, b in zip(q, q[1:]):
            if b <= a:
                raise InvalidParameter(f"primes must strictly increase, got {a} then {b}")
        for p in q:
            if not is_prime(p):
                raise InvalidParameter(f"{p} is not prime")
        for m in ell:
            if isinstance(m, bool) or not isinstance(m, int) or m < 1:
                raise InvalidParameter(f"multiplicities must be positive integers, got {m!r}")
        L = [0]
        for m in ell:
            L.append(L[-1] + m)
        N = [1]
        for p, m in zip(q, ell):
            N.append(N[-1] * p**m)
        bases: list[int] = []
        for p, m in zip(q, ell):
            bases.extend([p] * m)
        self.__dict__.update(
            d=d, q=q, ell=ell, variant=variant, L=tuple(L), N=tuple(N), _bases=tuple(bases)
        )

    def __len__(self) -> int:
        return len(self.q)

    @property
    def depth(self) -> int:
        """Total number of digit positions the schedule covers (sum of ell)."""
        return self.L[-1]

    def base_at(self, n: int) -> int:
        """Base M_n at 1-based position n."""
        if not 1 <= n <= self.depth:
            raise OutOfRange(f"position {n} outside 1..{self.depth}")
        return self._bases[n - 1]

    def bases(self, count: int | None = None) -> tuple[int, ...]:
        """The sequence M_1..M_count (full depth when count is omitted)."""
        if count is None:
            count = self.depth
        if not 0 <= count <= self.depth:
            raise OutOfRange(f"requested {count} bases, schedule covers {self.depth}")
        return self._bases[:count]

    @cached_property
    def _prefix(self) -> tuple[int, ...]:
        # _prefix[n] is P_n = M_1...M_n; built on first use, and a
        # cached_property is no field, so it stays out of eq/hash/repr
        return tuple(accumulate(self._bases, operator.mul, initial=1))

    def prefix_products(self) -> tuple[int, ...]:
        """The sequence P_1..P_depth with P_n = M_1*...*M_n."""
        return self._prefix[1:]

    def prefix_product(self, n: int) -> int:
        """M_1 * ... * M_n exactly (1 for n = 0)."""
        if n < 0 or n > self.depth:
            raise OutOfRange(f"prefix length {n} outside 0..{self.depth}")
        return self._prefix[n]

    def to_json(self) -> str:
        return json.dumps(
            {"d": self.d, "variant": self.variant, "q": list(self.q), "ell": list(self.ell)}
        )


def check_pair(b: int, h: int) -> None:
    """Reject a base b that is not an integer >= 2 and an h that is not a
    non-zero integer. It lives here rather than in numtheory, so a command
    that checks the pair without building a context does not run numtheory."""
    if isinstance(b, bool) or not isinstance(b, int) or b < 2:
        raise InvalidParameter(f"b must be an integer >= 2, got {b!r}")
    if isinstance(h, bool) or not isinstance(h, int) or h == 0:
        raise InvalidParameter(f"h must be a non-zero integer, got {h!r}")


def build_schedule(
    d: int,
    count: int,
    variant: str = "nth-prime-from-7",
    offset: int | None = None,
) -> PrimeSchedule:
    """Generate a schedule of `count` primes.

    Variants:
      "nth-prime-from-7": the successive primes 7, 11, 13, ...
      "cube-window": one prime per window [(n+offset)^3, (n+offset+1)^3]
        (smallest in each window).  The offset is a small user-supplied
        integer standing in for a shift far too large to compute with; any
        output derived from such a schedule is flagged as offset-shifted.

    Multiplicities are ell_r = r^(d-1), so d=1 gives the flat schedule and
    d=2 the linearly growing one; PrimeSchedule(d, q, ell) takes any other.
    """
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise InvalidParameter(f"count must be a positive integer, got {count!r}")
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise InvalidParameter(f"growth exponent must be a positive integer, got {d!r}")

    if variant == "nth-prime-from-7":
        q: list[int] = []
        p = 7
        while len(q) < count:
            p = next_prime(p)
            q.append(p)
            p += 1
        tag = variant
    elif variant == "cube-window":
        if offset is None or not isinstance(offset, int) or offset < 1:
            raise InvalidParameter("cube-window needs an integer offset >= 1")
        q = []
        for n in range(1, count + 1):
            lo, hi = (n + offset) ** 3, (n + offset + 1) ** 3
            p = next_prime(max(lo, 7))
            if p > hi:
                raise NoPrimeInWindow(f"no prime in [{lo}, {hi}]")
            q.append(p)
        tag = f"cube-window(offset={offset})"
    else:
        raise InvalidParameter(f"unknown schedule variant {variant!r}")

    ell = tuple(r ** (d - 1) for r in range(1, count + 1))
    return PrimeSchedule(d=d, q=tuple(q), ell=ell, variant=tag)


def middle_window(q: int) -> tuple[int, int]:
    """(floor(q/3), 2 floor(q/3)): the ends of the middle-third digit window
    of base q, never empty since schedule bases are at least 7."""
    third = q // 3
    return third, 2 * third


class MixedRadixDigits(Record):
    """A digit string together with the bases it is written in.

    digits[i] is the coefficient of M_1*...*M_i (the i = 0 term has weight 1),
    so digits[i] < bases[i] = M_{i+1}.
    """

    _fields = ("digits", "bases")

    def __init__(self, digits: tuple[int, ...], bases: tuple[int, ...]) -> None:
        if len(digits) != len(bases):
            raise InvalidParameter("digit and base strings must have equal length")
        for i, (dgt, b) in enumerate(zip(digits, bases)):
            # the class test rejects bool and every non-integer type at once
            if dgt.__class__ is not int or not 0 <= dgt < b:
                raise InvalidParameter(
                    f"digit {dgt!r} at index {i} is not an integer in 0..{b - 1}"
                )
        self.__dict__.update(digits=digits, bases=bases)

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

    def value(self) -> int:
        """Reconstruct the represented integer."""
        total = 0
        weight = 1
        for dgt, b in zip(self.digits, self.bases):
            total += dgt * weight
            weight *= b
        return total


def to_digits(N: int, s: PrimeSchedule, length: int | None = None) -> MixedRadixDigits:
    """Digit string of N >= 0 in the schedule's bases.

    With `length` omitted the minimal string is returned (no trailing zeros;
    N = 0 gives the empty string); otherwise the string is zero-padded to
    exactly `length` digits.  ScheduleTooShort if the requested window cannot
    represent N.
    """
    if isinstance(N, bool) or not isinstance(N, int) or N < 0:
        raise InvalidParameter(f"digits are defined for integers N >= 0, got {N!r}")
    if length is not None and (isinstance(length, bool) or not isinstance(length, int)):
        raise InvalidParameter(f"length must be an integer or None, got {length!r}")
    limit = s.depth if length is None else length
    if length is not None and not 0 <= length <= s.depth:
        raise ScheduleTooShort(f"requested {length} digits, schedule covers {s.depth}")
    bases = s.bases(limit)
    digits: list[int] = []
    rest = N
    for b in bases:
        rest, dgt = divmod(rest, b)
        digits.append(dgt)
    if rest != 0:
        raise ScheduleTooShort(f"{N} does not fit in {limit} digit positions")
    if length is None:
        while digits and digits[-1] == 0:
            digits.pop()
        bases = bases[: len(digits)]
    return MixedRadixDigits(tuple(digits), tuple(bases))

