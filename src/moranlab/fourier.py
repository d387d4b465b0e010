"""Certified-interval Fourier analysis of Cantor-Moran measures.

The measure mu attached to a MoranSystem is the infinite convolution of the
per-level digit distributions scaled by 1/(M_1 ... M_n); its transform is the
infinite product of level masks

    mu_hat(xi) = prod_n M_n(xi / (M_1 ... M_n)),
    M_n(t) = sum_d omega_{d,n} e^(-2 pi i d t).

Frequencies are astronomically large integers, so every argument is reduced
exactly, as an integer residue r = xi mod M_1...M_n, before any floating-point
trigonometry sees the correctly rounded quotient r / (M_1...M_n);
the float work is wrapped in outward-rounded intervals and the unevaluated
tail of the product is bounded by a closed-form inequality chain. The result
is a certified enclosure of |mu_hat(xi)|, not an estimate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from .errors import InvalidParameter, OutOfRange, TailNotCertifiable
from .numtheory import BaseContext
from .radix import PrimeSchedule
from .rng import cumulative_thresholds

# cos/sin of a double in [0, 2 pi) are correct to a couple of ulps; 2^-48 over-
# covers the 4-ulp argument-scaled worst case and stays negligible vs any eps
_TRIG_PAD = 2.0**-48

_UP = math.inf
_DOWN = -math.inf


def _up(x: float) -> float:
    return math.nextafter(x, _UP)


def _down(x: float) -> float:
    return math.nextafter(x, _DOWN)


def _imul(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    candidates = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return _down(min(candidates)), _up(max(candidates))


def _iadd(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    return _down(a[0] + b[0]), _up(a[1] + b[1])


def _cos_tau(t: float) -> tuple[float, float]:
    # cos(2 pi t) for t in [0, 1), the correctly rounded image of an exact value
    c = math.cos(2.0 * math.pi * t)
    return max(-1.0, c - _TRIG_PAD), min(1.0, c + _TRIG_PAD)


def _sin_tau(t: float) -> tuple[float, float]:
    s = math.sin(2.0 * math.pi * t)
    return max(-1.0, s - _TRIG_PAD), min(1.0, s + _TRIG_PAD)


def _fraction_interval(w: Fraction) -> tuple[float, float]:
    f = float(w)
    return _down(f), _up(f)


def _half_mask(w: tuple[Fraction, ...]) -> tuple[float, float]:
    # {0,1} digits at t = 1/2: cos is exactly -1, no trigonometric error to pad
    m2 = float(1 - 4 * w[0] * w[1])
    root = math.sqrt(max(0.0, m2))
    return max(0.0, _down(root)), min(1.0, _up(root))


def _binary_mask(gain: tuple[float, float], t: float) -> tuple[float, float]:
    # {0,1} digits: |M|^2 = 1 - gain (1 - cos 2 pi t), gain enclosing 2 w0 w1.
    # Bit for bit the _cos_tau / _imul / _up / _down composition, written out
    # because this is the transform's hottest kernel; the conditionals are
    # max/min with the same argument order. All four gain products are kept:
    # 1 - c_hi rounded down can be -5e-324, so a sign shortcut is not exact.
    nextafter = math.nextafter
    c = math.cos(2.0 * math.pi * t)
    c_lo = c - _TRIG_PAD
    c_hi = c + _TRIG_PAD
    o_lo = nextafter(1.0 - (c_hi if c_hi < 1.0 else 1.0), _DOWN)
    o_hi = nextafter(1.0 - (c_lo if c_lo > -1.0 else -1.0), _UP)
    g_lo, g_hi = gain
    prods = (g_lo * o_lo, g_lo * o_hi, g_hi * o_lo, g_hi * o_hi)
    m2_lo = nextafter(1.0 - nextafter(max(prods), _UP), _DOWN)
    m2_hi = nextafter(1.0 - nextafter(min(prods), _DOWN), _UP)
    lo = nextafter(math.sqrt(m2_lo if m2_lo > 0.0 else 0.0), _DOWN)
    hi = nextafter(math.sqrt(m2_hi if m2_hi < 1.0 else 1.0), _UP)
    return lo, (hi if hi < 1.0 else 1.0)


def _digit_sum_mask(
    terms: Iterable[tuple[float, tuple[float, float]]],
) -> tuple[float, float]:
    # |sum_d w_d e^(-2 pi i t_d)| from (t_d, enclosure of w_d) pairs
    re: tuple[float, float] = (0.0, 0.0)
    im: tuple[float, float] = (0.0, 0.0)
    for arg, wiv in terms:
        re = _iadd(re, _imul(wiv, _cos_tau(arg)))
        im = _iadd(im, _imul(wiv, _sin_tau(arg)))
    re_mag = max(abs(re[0]), abs(re[1]))
    im_mag = max(abs(im[0]), abs(im[1]))
    re_mig = 0.0 if re[0] <= 0.0 <= re[1] else min(abs(re[0]), abs(re[1]))
    im_mig = 0.0 if im[0] <= 0.0 <= im[1] else min(abs(im[0]), abs(im[1]))
    lo = _down(math.hypot(re_mig, im_mig))
    hi = _up(math.hypot(re_mag, im_mag))
    return max(0.0, lo), min(1.0, hi)


@dataclass(frozen=True, slots=True)
class _Level:
    """One level's mask data, rounded outward once.

    {0,1} levels carry the enclosure of 2 w0 w1 and of |M(1/2)|; other
    levels carry their digits and weight enclosures.
    """

    digits: tuple[int, ...]
    weights: tuple[tuple[float, float], ...]
    gain: tuple[float, float] | None
    half: tuple[float, float] | None


def _build_level(digits: tuple[int, ...], w: tuple[Fraction, ...]) -> _Level:
    if digits == (0, 1):
        return _Level(digits, (), _fraction_interval(2 * w[0] * w[1]), _half_mask(w))
    return _Level(digits, tuple(_fraction_interval(x) for x in w), None, None)


def _level_mask(level: _Level, r: int, P: int) -> tuple[float, float]:
    """mask_interval at t = r / P for integers 0 <= r < P, bit for bit.

    Floats see only correctly rounded quotients of exact residues, which is
    what float() of the reduced Fraction yields."""
    if r == 0:
        return 1.0, 1.0
    if level.gain is not None:
        if 2 * r == P:
            return level.half
        return _binary_mask(level.gain, r / P)
    return _digit_sum_mask(
        (((d * r) % P) / P, wiv) for d, wiv in zip(level.digits, level.weights)
    )


# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MoranSystem:
    """A mixed-radix digit system: per-level digit sets and exact weights.

    Level n (1-based) contributes digits digit_sets[n-1] inside
    {0, ..., M_n - 1} with positive rational weights summing to 1.
    """

    schedule: PrimeSchedule
    digit_sets: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        depth = self.schedule.depth
        if len(self.digit_sets) != depth or len(self.weights) != depth:
            raise InvalidParameter(
                f"need digit sets and weights for all {depth} levels, got "
                f"{len(self.digit_sets)} and {len(self.weights)}"
            )
        for n, base in enumerate(self.schedule.bases(), start=1):
            digits = self.digit_sets[n - 1]
            w = self.weights[n - 1]
            if not digits:
                raise InvalidParameter(f"level {n} has an empty digit set")
            if len(w) != len(digits):
                raise InvalidParameter(f"level {n}: {len(digits)} digits, {len(w)} weights")
            prev = -1
            for d in digits:
                if not prev < d < base:
                    raise InvalidParameter(
                        f"level {n}: digits must strictly increase within [0, {base})"
                    )
                prev = d
            total = Fraction(0)
            for x in w:
                if not isinstance(x, Fraction) or x <= 0:
                    raise InvalidParameter(f"level {n}: weights must be positive rationals")
                total += x
            if total != 1:
                raise InvalidParameter(f"level {n}: weights sum to {total}, not 1")

    @property
    def depth(self) -> int:
        return self.schedule.depth

    @cached_property
    def is_binary(self) -> bool:
        return all(d == (0, 1) for d in self.digit_sets)

    @cached_property
    def _levels(self) -> tuple[_Level, ...]:
        # built on the first transform; cached_property keeps it out of eq/hash
        return tuple(_build_level(d, w) for d, w in zip(self.digit_sets, self.weights))

    @cached_property
    def _thresholds(self) -> tuple[tuple[int, ...], ...]:
        # per-level cumulative_thresholds, built on the first sample
        return tuple(cumulative_thresholds(w) for w in self.weights)

    @cached_property
    def avoidance_lo(self) -> Fraction:
        """Left end 2 sup_n max(D_n)/M_n of the avoidance interval (lo, 1)."""
        return 2 * max(
            Fraction(max(d), base) for d, base in zip(self.digit_sets, self.schedule.bases())
        )

    def binary_omegas(self) -> tuple[Fraction, ...]:
        """Per-level weight of digit 0 for a {0,1} system."""
        if not self.is_binary:
            raise InvalidParameter("not a binary-digit system")
        return tuple(w[0] for w in self.weights)


def binary_system(
    schedule: PrimeSchedule,
    omega: Fraction | Sequence[Fraction] = Fraction(1, 2),
) -> MoranSystem:
    """The {0,1}-digit system with weights (omega_n, 1 - omega_n)."""
    depth = schedule.depth
    if isinstance(omega, (Fraction, int)):
        omegas = [Fraction(omega)] * depth
    else:
        omegas = [Fraction(o) for o in omega]
        if len(omegas) != depth:
            raise InvalidParameter(f"need {depth} weights, got {len(omegas)}")
    for o in omegas:
        if not 0 < o < 1:
            raise InvalidParameter(f"weights must lie strictly inside (0, 1), got {o}")
    return MoranSystem(
        schedule=schedule,
        digit_sets=tuple((0, 1) for _ in range(depth)),
        weights=tuple((o, 1 - o) for o in omegas),
    )


@dataclass(frozen=True)
class CertifiedModulus:
    """Enclosure of |mu_hat(xi)|: the true modulus lies in [lo, hi]."""

    lo: float
    hi: float
    truncation_level: int
    tail_bound_log: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lo <= self.hi <= 1.0:
            raise InvalidParameter(f"invalid enclosure [{self.lo}, {self.hi}]")
        if self.tail_bound_log > 0.0:
            raise InvalidParameter("tail bound must not exceed 1")

    @property
    def width(self) -> float:
        return self.hi - self.lo


# --------------------------------------------------------------------------
# level masks


def mask_interval(level_n: int, t: Fraction, sys: MoranSystem) -> tuple[float, float]:
    """Outward-rounded enclosure of |M_n(t)|, argument reduced mod 1 exactly."""
    if not 1 <= level_n <= sys.depth:
        raise OutOfRange(f"level {level_n} outside 1 .. {sys.depth}")
    t = Fraction(t)
    t -= math.floor(t)
    if t == 0:
        return 1.0, 1.0
    digits = sys.digit_sets[level_n - 1]
    w = sys.weights[level_n - 1]
    if digits == (0, 1):
        if t == Fraction(1, 2):
            return _half_mask(w)
        return _binary_mask(_fraction_interval(2 * w[0] * w[1]), float(t))
    return _digit_sum_mask(
        (float((d * t) % 1), _fraction_interval(wd)) for d, wd in zip(digits, w)
    )


def mask_modulus(level_n: int, t: Fraction, sys: MoranSystem) -> float:
    """Point value of |M_n(t)| (midpoint of the certified enclosure)."""
    lo, hi = mask_interval(level_n, t, sys)
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# the full transform


def _tail_log_bound(t: float, binary: bool) -> float:
    """Upper bound y for -log of the tail product past a level with frac t.

    Valid once xi < M_1...M_n, so that every deeper t_k equals t_(k-1)/M_k.
    With bases >= 7, sum_(k>n) t_k^2 <= t_n^2 / 48, and the mask curvature
    constant c_k = sum_(d,d') w_d w_d' (d-d')^2 obeys

        c_k t_k^2 <= (M_k t_k)^2 = t_(k-1)^2      (any digit set in [0, M_k)),
        c_k <= 1/2                                 ({0,1} digits),

    so -log(tail) <= 2 pi^2 sum_(k>n) c_k t_k^2 is at most y below. The bound
    therefore covers any continuation of the schedule by larger primes >= 7
    (with arbitrary digit sets, or any binary weights in the binary case).
    """
    tf = _up(t)
    if binary:
        y = math.pi * math.pi * tf * tf / 48.0
    else:
        y = 2.0 * math.pi * math.pi * (49.0 / 48.0) * tf * tf
    return _up(y * (1.0 + 1e-9))


def check_eps(eps: float) -> None:
    """Reject a bracket-width budget outside (0, 1] (NaN included)."""
    if not 0.0 < eps <= 1.0:
        raise InvalidParameter(f"eps must lie in (0, 1], got {eps}")


def mu_hat_modulus(xi: int, sys: MoranSystem, eps: float) -> CertifiedModulus:
    """Certified enclosure of |mu_hat(xi)| of width <= eps.

    Finite factors are evaluated at exactly reduced arguments (the integer
    residue of xi modulo each prefix product P_n); the cut level
    is the first where the closed-form tail bound costs less than eps/2 of
    width (the finite factors' float width then honors the rest of the budget
    down to the double-precision floor). |mu_hat| is even, so xi enters by
    absolute value.
    """
    if not isinstance(xi, int):
        raise InvalidParameter(f"frequency must be an integer, got {type(xi).__name__}")
    check_eps(eps)
    xi = abs(xi)
    if xi == 0:
        return CertifiedModulus(lo=1.0, hi=1.0, truncation_level=0, tail_bound_log=0.0)
    tail_budget = eps / 2.0
    nextafter = math.nextafter
    f_lo, f_hi = 1.0, 1.0
    prefixes = sys.schedule.prefix_products()
    for n, (P, level) in enumerate(zip(prefixes, sys._levels), start=1):
        r = xi % P
        # a {0,1} level off t = 0 and t = 1/2 goes straight to the kernel
        if r and level.gain is not None and 2 * r != P:
            m_lo, m_hi = _binary_mask(level.gain, r / P)
        else:
            m_lo, m_hi = _level_mask(level, r, P)
        f_lo = nextafter(f_lo * m_lo, _DOWN)
        f_lo = f_lo if f_lo > 0.0 else 0.0
        f_hi = nextafter(f_hi * m_hi, _UP)
        f_hi = f_hi if f_hi < 1.0 else 1.0
        if xi < P:
            y = _tail_log_bound(r / P, sys.is_binary)
            if y <= tail_budget:
                e_lo = _down(_down(math.exp(-y)))
                lo = max(0.0, _down(f_lo * e_lo))
                return CertifiedModulus(
                    lo=lo, hi=f_hi, truncation_level=n, tail_bound_log=-y
                )
    raise TailNotCertifiable(
        f"schedule exhausted at depth {sys.depth} before the tail bound beat {eps / 2}"
    )


# --------------------------------------------------------------------------
# digit-window decay


@lru_cache(maxsize=64)
def _window_sup_certified(sys: MoranSystem, gamma: float) -> bool:
    """Numerical check that every level class has sup |M(t)| <= gamma on the
    window [1/6, 5/6] that middle-third digits force the argument into
    (1024-point grid per distinct (base, digit set, weights) class)."""
    seen: set[tuple] = set()
    for n, base in enumerate(sys.schedule.bases(), start=1):
        key = (base, sys.digit_sets[n - 1], sys.weights[n - 1])
        if key in seen:
            continue
        seen.add(key)
        for i in range(1024):
            t = Fraction(1, 6) + Fraction(2, 3) * Fraction(i, 1023)
            _, hi = mask_interval(n, t, sys)
            if hi > gamma + 1e-12:
                return False
    return True


def digit_decay_bound(xi: int, sys: MoranSystem, ctx: BaseContext) -> tuple[int, float]:
    """(w, gamma^w): w counts digit positions of xi in the middle-third window.

    Position p (0-based) holds the level-(p+1) digit of xi; it is counted when
    floor(q/3) <= digit <= 2 floor(q/3) for the level base q. Each such
    position forces the corresponding mask below gamma, so gamma^w is an
    upper bound for |mu_hat(xi)|; the enclosure from mu_hat_modulus satisfies
    lo <= gamma^w + width.
    """
    if not isinstance(xi, int) or xi < 0:
        raise InvalidParameter(f"frequency must be a non-negative integer, got {xi!r}")
    if not sys.is_binary and not _window_sup_certified(sys, ctx.gamma):
        raise InvalidParameter(
            "window decay not emitted: a level mask exceeds gamma on [1/6, 5/6]"
        )
    w = 0
    rest = xi
    for q in sys.schedule.bases():
        if rest == 0:
            break
        rest, d = divmod(rest, q)
        third = q // 3
        if third <= d <= 2 * third:
            w += 1
    return w, ctx.gamma**w


# --------------------------------------------------------------------------
# batch evaluation


def write_batch_csv(
    path: str,
    xis: Iterable[int],
    sys: MoranSystem,
    ctx: BaseContext,
    eps: float = 1e-9,
) -> None:
    """Evaluate a batch of frequencies and write one CSV row per frequency.

    Rows are emitted in input order.
    """
    rows = []
    for xi in xis:
        cert = mu_hat_modulus(xi, sys, eps)
        w, gw = digit_decay_bound(abs(xi), sys, ctx)
        rows.append((str(xi), repr(cert.lo), repr(cert.hi), cert.truncation_level, w, repr(gw)))
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["xi", "lo", "hi", "truncation_level", "w", "gamma_pow_w"])
        out.writerows(rows)
