"""Multiplicative orders, prime-power order structure, and per-(b,h) constants.

The central objects are the constants attached to a digit matrix and a pair
(b, h): the index r0' past which schedule primes are coprime to both b and h,
the saturation exponent n0 and stable gcd Q of h*b^n against N_{r0'}, the
per-prime splitting k_r / j_r of each level block into a frozen prefix and a
free suffix, and the derived decay constants gamma, alpha, r1.

Orders of the huge moduli N_s * q_{s+1}^j / Q are never computed by factoring
the modulus: the schedule supplies its factorization, and the order comes from
the prime-power structure theorem plus a CRT least common multiple: orders mod
p and 2^e descend from a factored multiple (p - 1, 2^e), and the order mod an
odd p^j is lifted from ord_p, which also gives k_r.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

from ._record import Record
from .errors import (
    CounterexampleFound,
    EvenPrime,
    InvalidParameter,
    NotCoprime,
    OutOfRange,
    ScheduleTooShort,
    TooLarge,
)
from .radix import PrimeSchedule, check_pair, is_prime

# --------------------------------------------------------------------------
# factorizations


def _trial_factor(n: int, limit: int = 10**7) -> dict[int, int]:
    """Factor n by trial division; guards against inputs with large prime parts."""
    if n < 1:
        raise InvalidParameter(f"cannot factor {n}")
    out: dict[int, int] = {}
    rest = n
    for p in (2, 3):
        while rest % p == 0:
            out[p] = out.get(p, 0) + 1
            rest //= p
    p = 5
    while p * p <= rest:
        if p > limit:
            raise TooLarge(f"trial division exhausted at {p}; factoring {n} is out of scope")
        for q in (p, p + 2):
            while rest % q == 0:
                out[q] = out.get(q, 0) + 1
                rest //= q
        p += 6
    if rest > 1:
        out[rest] = out.get(rest, 0) + 1
    return out


class Factorization(Record):
    """Prime factorization as (prime, exponent) pairs, primes strictly increasing."""

    _fields = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...]) -> None:
        last = 1
        for p, e in pairs:
            if p <= last:
                raise InvalidParameter("primes must strictly increase")
            if not is_prime(p):
                raise InvalidParameter(f"{p} is not prime")
            if e < 1:
                raise InvalidParameter(f"exponent of {p} must be >= 1, got {e}")
            last = p
        self.__dict__.update(pairs=pairs)

    @classmethod
    def from_map(cls, exponents: dict[int, int]) -> "Factorization":
        return cls(tuple(sorted((p, e) for p, e in exponents.items() if e > 0)))

    def __iter__(self):
        return iter(self.pairs)


# --------------------------------------------------------------------------
# orders


def _order_from_exponent(a: int, n: int, exponent_factors: dict[int, int]) -> int:
    """Smallest m | E with a^m = 1 mod n, where E = prod(p^e) is a known multiple
    of the order (divisor-lattice descent)."""
    order = 1
    for p, e in exponent_factors.items():
        order *= p**e
    if pow(a, order, n) != 1:
        raise NotCoprime(f"{a} has no order modulo {n}")
    for p in exponent_factors:
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order


def prime_power_order(a: int, p: int, j: int) -> int:
    """Order of a modulo p^j for odd prime p, via the prefix/suffix split:
    with d = ord_p(a) and k the largest exponent with p^k | a^d - 1, the order
    is d for j <= k and d * p^(j-k) beyond."""
    if p == 2:
        raise EvenPrime("p = 2 has no cyclic prime-power structure; use order_by_crt")
    if not is_prime(p):
        raise InvalidParameter(f"{p} is not prime")
    if not isinstance(j, int) or j < 1:
        raise InvalidParameter(f"exponent must be a positive integer, got {j!r}")
    d, k = _order_and_lift(a, p, cap=j)
    if k >= j:
        return d
    return d * p ** (j - k)


def _order_and_lift(a: int, p: int, cap: int | None = None) -> tuple[int, int]:
    # (d, k): d = ord_p(a) and k the largest exponent with p^k | a^d - 1,
    # counted no further than cap; p is an odd prime checked by the caller
    if not isinstance(a, int) or a < 2:
        raise InvalidParameter(f"base must be an integer >= 2, got {a!r}")
    if a % p == 0:
        raise NotCoprime(f"gcd({a}, {p}) != 1")
    d = _order_from_exponent(a, p, _trial_factor(p - 1))
    k = 1
    while k != cap and pow(a, d, p ** (k + 1)) == 1:
        k += 1
    return d, k


def order_by_crt(a: int, f: Factorization) -> int:
    """Order of a modulo the factored integer, as the lcm of prime-power orders.

    The order mod 2^e descends from 2^e, that mod an odd p^j is lifted from
    ord_p; an empty factorization is the modulus 1, whose order is 1.
    """
    if not isinstance(a, int) or a < 2:
        raise InvalidParameter(f"base must be an integer >= 2, got {a!r}")
    order = 1
    for p, e in f:
        if a % p == 0:
            raise NotCoprime(f"gcd({a}, {p}) != 1")
        if p == 2:
            part = _order_from_exponent(a, 1 << e, {2: e})
        else:
            part = prime_power_order(a, p, e)
        order = math.lcm(order, part)
    return order


def k_of(b: int, q: int) -> int:
    """Largest k with q^k dividing b^(ord_q(b)) - 1, for odd prime q coprime to b."""
    if q == 2:
        raise EvenPrime("the splitting exponent is defined for odd primes")
    if not is_prime(q):
        raise InvalidParameter(f"{q} is not prime")
    return _order_and_lift(b, q)[1]


# --------------------------------------------------------------------------
# fixed constants

#: exact sixth power of the digit-count decay constant
#: alpha = (6000/999)^(1/6) (6/5)^(5/6) (1/2)^(1/6) (2/3)^(5/6)
ALPHA_SIXTH: Fraction = (
    Fraction(6000, 999) * Fraction(6, 5) ** 5 * Fraction(1, 2) * Fraction(2, 3) ** 5
)


def alpha_constant() -> float:
    """The decay constant alpha, a hair below 0.998."""
    return float(ALPHA_SIXTH) ** (1.0 / 6.0)


@lru_cache(maxsize=1)
def derived_stirling_constants() -> tuple[Fraction, Fraction]:
    """(C1, C_tilde = 2*C1): explicit binomial-prefactor constants.

    Two-sided factorial bounds sqrt(2 pi n)(n/e)^n <= n! <= the same times
    e^(1/(12n)) give, for u >= 6000 and k = floor(u/6),

        binom(u, k) <= E(u) * u^u / (k^k (u-k)^(u-k)),
        E(u) = e^(1/(12u)) / sqrt(2 pi) * sqrt(u / (k (u-k))).

    E(u)^2 is certified <= (7/500)^2 by an exact rational chain using only
    e^x <= 1/(1-x) for 0 <= x < 1 and pi > 314159265/10^8, so C1 = 7/500 is a
    valid constant for every u >= 6000 and C_tilde = 2*C1 = 7/250.
    """
    exp_bound = Fraction(36000, 35999)  # e^(1/(6u)) <= e^(1/36000) <= 1/(1 - 1/36000)
    inv_two_pi = Fraction(10**8, 628318530)  # 1/(2 pi) < this, from pi > 3.14159265
    # k >= 999u/6000 and u-k >= 5u/6 give u/(k(u-k)) <= 7200/(999 u) <= 7200/(999*6000)
    ratio_bound = Fraction(7200, 999 * 6000)
    c1 = Fraction(7, 500)
    if exp_bound * inv_two_pi * ratio_bound > c1 * c1:
        raise CounterexampleFound("binomial prefactor chain no longer certifies 7/500")
    return c1, 2 * c1


#: smallest integer R with (1001/1000)^x >= x^2 for every integer x >= R;
#: tests/oracles.py re-derives it by a Newton-plus-stepping search
ROUND_THRESHOLD = 19797


def round_threshold() -> int:
    """The constant ROUND_THRESHOLD (r1 = r0 + max(6000, ROUND_THRESHOLD))."""
    return ROUND_THRESHOLD


# --------------------------------------------------------------------------
# the (b, h) context


class BaseContext(Record):
    """All (b, h)-dependent constants over a fixed schedule.

    k[r-1] is the frozen-prefix length of block r (0 through r0_prime), and
    j[r-1] = ell_r - k[r-1] the free-suffix length; starting at r0 every
    stored block has a positive free suffix.
    """

    _fields = (
        "b", "h", "schedule", "weights", "r0_prime", "n0", "Q", "Q_valuations",
        "k", "j", "r0", "gamma", "alpha", "r1",
    )

    def to_json(self) -> str:
        c1, c_tilde = derived_stirling_constants()
        return json.dumps(
            {
                "b": self.b,
                "h": self.h,
                "r0_prime": self.r0_prime,
                "n0": self.n0,
                "Q": str(self.Q),
                "k": list(self.k),
                "j": list(self.j),
                "r0": self.r0,
                "gamma": self.gamma,
                "alpha": self.alpha,
                "r1": self.r1,
                "C_tilde": f"{c_tilde.numerator}/{c_tilde.denominator}",
            }
        )


def _largest_prime_factor(n: int) -> int | None:
    if abs(n) < 2:
        return None
    return max(_trial_factor(abs(n)))


def _valuation(n: int, p: int) -> int:
    if n == 0:
        raise InvalidParameter("valuation of 0 is undefined")
    v = 0
    n = abs(n)
    while n % p == 0:
        v += 1
        n //= p
    return v


def build_context(
    b: int,
    h: int,
    s: PrimeSchedule,
    weights: tuple[Fraction, Fraction] = (Fraction(1, 2), Fraction(1, 2)),
) -> BaseContext:
    """Derive every (b, h) constant over the schedule.

    weights = (C, D) are the infimum and supremum of the level weights,
    entering only through gamma = sqrt(1 - C(1-D)).
    """
    check_pair(b, h)
    C, D = Fraction(weights[0]), Fraction(weights[1])
    if not 0 < C <= D < 1:
        raise InvalidParameter(f"weights must satisfy 0 < C <= D < 1, got ({C}, {D})")

    p_b = _largest_prime_factor(b)
    p_h = _largest_prime_factor(h)
    need = max(p for p in (p_b, p_h) if p is not None)
    r0_prime = next((r for r, q in enumerate(s.q, start=1) if q >= need), None)
    if r0_prime is None:
        raise ScheduleTooShort(f"no schedule prime reaches {need}")

    # saturation index: past n0, every prime of N_{r0'} that b contributes to
    # has hit its exponent cap in h * b^n, so the gcd below is stable in n
    n0 = 1
    for i in range(r0_prime):
        p, cap = s.q[i], s.ell[i]
        v_b = _valuation(b, p)
        if v_b == 0:
            continue
        v_h = _valuation(h, p)
        if v_h < cap:
            n0 = max(n0, -((v_h - cap) // v_b))
    Q = math.gcd(abs(h) * b**n0, s.N[r0_prime])
    q_vals = tuple(_valuation(Q, p) if i < r0_prime else 0 for i, p in enumerate(s.q))

    k = tuple(
        0 if r <= r0_prime else k_of(b, s.q[r - 1]) for r in range(1, len(s.q) + 1)
    )
    j = tuple(m - kk for m, kk in zip(s.ell, k))

    # smallest r whose whole stored tail has positive free suffixes
    r0_dp = None
    for r in range(len(j), 0, -1):
        if j[r - 1] <= 0:
            break
        r0_dp = r
    if r0_dp is None:
        raise ScheduleTooShort("no block with a positive free suffix at the schedule tail")
    r0 = max(r0_prime, r0_dp)
    if r0 >= len(s.q):
        raise ScheduleTooShort(
            f"r0 = {r0} leaves no later block inside the {len(s.q)}-prime schedule"
        )

    gamma = math.sqrt(1 - float(C * (1 - D)))
    return BaseContext(
        b=b,
        h=h,
        schedule=s,
        weights=(C, D),
        r0_prime=r0_prime,
        n0=n0,
        Q=Q,
        Q_valuations=q_vals,
        k=k,
        j=j,
        r0=r0,
        gamma=gamma,
        alpha=alpha_constant(),
        r1=r0 + max(6000, round_threshold()),
    )


def reduced_modulus(ctx: BaseContext, s_index: int, j: int) -> Factorization:
    """Factorization of N_s * q_{s+1}^j / Q for r0' <= s, 0 <= j <= ell_{s+1}."""
    sch = ctx.schedule
    if not ctx.r0_prime <= s_index <= len(sch.q):
        raise OutOfRange(f"s = {s_index} outside r0' = {ctx.r0_prime} .. {len(sch.q)}")
    if j < 0:
        raise OutOfRange(f"j = {j} negative")
    if j > 0 and s_index >= len(sch.q):
        raise OutOfRange(f"block {s_index + 1} beyond the schedule")
    if j > 0 and j > sch.ell[s_index]:
        raise OutOfRange(f"j = {j} exceeds ell_{s_index + 1} = {sch.ell[s_index]}")
    exps = {sch.q[i]: sch.ell[i] for i in range(s_index)}
    if j > 0:
        exps[sch.q[s_index]] = exps.get(sch.q[s_index], 0) + j
    for p, v in zip(sch.q, ctx.Q_valuations):
        if v:
            exps[p] = exps.get(p, 0) - v
            if exps[p] < 0:
                raise CounterexampleFound(f"Q does not divide the modulus at prime {p}")
    return Factorization.from_map(exps)


def order_mod_reduced(ctx: BaseContext, s_index: int, j: int) -> int:
    """ord of b modulo N_s * q_{s+1}^j / Q (1 when the modulus collapses to 1)."""
    return order_by_crt(ctx.b, reduced_modulus(ctx, s_index, j))


def ord_ratio_check(ctx: BaseContext, s_index: int) -> tuple[int, int]:
    """Both sides of the order recursion at block s -> s+1:

        ord_{N_{s+1}/Q}(b)  vs  q_{s+1}^{j_{s+1}} * ord_{N_s q_{s+1}^{k_{s+1}}/Q}(b)

    The caller asserts equality; valid for r0 <= s < last block.
    """
    sch = ctx.schedule
    if not ctx.r0 <= s_index < len(sch.q):
        raise OutOfRange(f"s = {s_index} outside r0 = {ctx.r0} .. {len(sch.q) - 1}")
    lhs = order_mod_reduced(ctx, s_index + 1, 0)
    rhs = sch.q[s_index] ** ctx.j[s_index] * order_mod_reduced(ctx, s_index, ctx.k[s_index])
    return lhs, rhs


def y_product(ctx: BaseContext, r: int) -> int:
    """#Y_{r0,r} = prod_{i=r0+1..r} q_i^{j_i}, the number of free-suffix digit
    strings of blocks r0+1 .. r (1 for r = r0)."""
    q, j = ctx.schedule.q, ctx.j
    return math.prod(q[i] ** j[i] for i in range(ctx.r0, r))


def integer_J(ctx: BaseContext, r: int) -> int:
    """ord_{N_r/Q}(b) divided by prod_{i=r0+1..r} q_i^{j_i}; always a positive integer."""
    if not ctx.r0 <= r <= len(ctx.schedule.q):
        raise OutOfRange(f"r = {r} outside r0 = {ctx.r0} .. {len(ctx.schedule.q)}")
    order = order_mod_reduced(ctx, r, 0)
    div = y_product(ctx, r)
    quotient, rem = divmod(order, div)
    if rem != 0 or quotient <= 0:
        raise CounterexampleFound(
            f"ord_(N_{r}/Q)(b) = {order} is not a positive multiple of {div}"
        )
    return quotient
