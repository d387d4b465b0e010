"""Certified-interval Fourier analysis of Cantor-Moran measures.

The measure mu of a digit system (moranlab.system) is the infinite
convolution of the per-level digit distributions scaled by 1/(M_1 ... M_n);
its transform is the infinite product of level masks

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
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mod
from typing import TYPE_CHECKING, Iterable

from ._record import Record
from .errors import InvalidParameter, OutOfRange, TailNotCertifiable

if TYPE_CHECKING:  # annotations only
    from .system import MoranSystem

# certificates take cos/sin of fl(fl(2 pi) t), t in [0, 1), within 2^-48 of the
# true values: |fl(2 pi) - 2 pi| t <= 2.5e-16, the product's rounding 4.4e-16 and
# libm's 1 ulp, 2.2e-16, sum to 9.1e-16, a quarter of the pad (checked in tests)
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
    # Bit for bit the _cos_tau / _imul / _up / _down composition, written out;
    # the conditionals are max/min with the same argument order. All four gain
    # products are kept: 1 - c_hi rounded down can be -5e-324, so a sign
    # shortcut is not exact here. mu_hat_modulus inlines the levels where it is.
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


class _Level(Record):
    """One level's mask data, rounded outward once.

    {0,1} levels carry the enclosure of 2 w0 w1; other levels carry their
    digits and weight enclosures.
    """

    __slots__ = _fields = ("digits", "weights", "gain")


def _build_level(digits: tuple[int, ...], w: tuple[Fraction, ...]) -> _Level:
    if digits == (0, 1):
        return _Level(digits, (), _fraction_interval(2 * w[0] * w[1]))
    return _Level(digits, tuple(_fraction_interval(x) for x in w), None)


def _level_mask(level: _Level, r: int, P: int) -> tuple[float, float]:
    """mask_interval at t = r / P for integers 0 <= r < P, 2 r != P, bit for bit.

    Prefix products are odd (schedule primes are >= 7) and the window grid
    (1023 + 4 i) / 6138 skips 1/2, so mask_interval's exact-half path has no
    counterpart here. Floats see only correctly rounded quotients of exact
    residues, which is what float() of the reduced Fraction yields."""
    if r == 0:
        return 1.0, 1.0
    if level.gain is not None:
        return _binary_mask(level.gain, r / P)
    return _digit_sum_mask(
        (((d * r) % P) / P, wiv) for d, wiv in zip(level.digits, level.weights)
    )


class CertifiedModulus(Record):
    """Enclosure of |mu_hat(xi)|: the true modulus lies in [lo, hi]."""

    _fields = ("lo", "hi", "truncation_level", "tail_bound_log")

    def __init__(self, lo: float, hi: float, truncation_level: int, tail_bound_log: float) -> None:
        if not 0.0 <= lo <= hi <= 1.0:
            raise InvalidParameter(f"invalid enclosure [{lo}, {hi}]")
        if tail_bound_log > 0.0:
            raise InvalidParameter("tail bound must not exceed 1")
        self.__dict__.update(
            lo=lo, hi=hi, truncation_level=truncation_level, tail_bound_log=tail_bound_log
        )


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


# the largest finite double's bit pattern; _tail_cut bisects below it
_MAX_BITS = 0x7FEFFFFFFFFFFFFF


def _float_at(bits: int) -> float:
    # the non-negative finite double whose IEEE 754 bit pattern is bits
    e, m = divmod(bits, 1 << 52)
    return math.ldexp(m + (1 << 52), e - 1075) if e else math.ldexp(m, -1074)


@lru_cache(maxsize=256)
def _tail_cut(budget: float, binary: bool) -> float:
    """The largest double t >= 0 with _tail_log_bound(t, binary) <= budget.

    -inf when no t fits (budget below the bound at t = 0) and inf when every
    finite t does. The bound is monotone non-decreasing in t, and so in the
    bit pattern of a non-negative t, so bisection over the patterns finds
    the threshold in 63 steps for any budget, subnormal ones included.
    """
    if not _tail_log_bound(0.0, binary) <= budget:
        return -math.inf
    if _tail_log_bound(_float_at(_MAX_BITS), binary) <= budget:
        return math.inf
    lo, hi = 0, _MAX_BITS  # the bound fits at lo and exceeds budget at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _tail_log_bound(_float_at(mid), binary) <= budget:
            lo = mid
        else:
            hi = mid
    return _float_at(lo)


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

    The tail bound grows with the argument t = r / P_n, so one threshold
    _tail_cut(eps/2, binary), cached per budget and kind, decides at which
    levels past xi < P_n it can fit: the bound is evaluated only where
    t <= t_cut, once per certified frequency, and its own comparison with
    eps/2 still decides the cut. The levels come from the system's cached
    table of (n, P_n, level, g_lo, g_hi), with gain ends only where the
    inline two-product kernel is exact, {0,1} levels with g_lo > 0. Those
    run inline where c + pad < 1, the rest (r = 0 too, as c = 1) via
    _level_mask.
    """
    if not isinstance(xi, int) or isinstance(xi, bool):
        raise InvalidParameter(f"frequency must be an integer, got {type(xi).__name__}")
    check_eps(eps)
    xi = abs(xi)
    if xi == 0:
        return CertifiedModulus(lo=1.0, hi=1.0, truncation_level=0, tail_bound_log=0.0)
    tail_budget = eps / 2.0
    binary = sys.is_binary
    t_cut = _tail_cut(tail_budget, binary)
    cos, sqrt, nextafter = math.cos, math.sqrt, math.nextafter
    tau, pad, down, up = 2.0 * math.pi, _TRIG_PAD, _DOWN, _UP
    f_lo, f_hi = 1.0, 1.0
    # the residues xi mod P_n: xi itself once P_n > xi. Below that level,
    # past two 30-bit digits, they are found top-down: P_n divides P_{n+1},
    # so each is the residue of the level above reduced mod P_n, a division
    # of a number one level wide instead of xi. A smaller xi is reduced
    # directly, which costs less than building the list. The schedule's
    # tuple holds P_n at index n after P_0 = 1, whose residue 0 ends the chain
    residues = None
    if xi >> 60:
        prefix = sys.schedule._prefix
        top = bisect_right(prefix, xi) - 1
        residues = list(accumulate(map(prefix.__getitem__, range(top, -1, -1)), mod, initial=xi))
        residues.reverse()
    for n, P, level, g_lo, g_hi in sys._transform_levels:
        past = xi < P
        r = xi if past else residues[n] if residues else xi % P
        t = r / P
        if g_lo is not None and (c := cos(tau * t)) + pad < 1.0:
            # _binary_mask inlined. With c + pad < 1 and the table's g_lo > 0
            # both 1 - cos ends are positive, and rounded products are monotone
            # on positive operands, so the extreme ones are g_lo o_lo, g_hi o_hi
            c_lo = c - pad
            o_lo = nextafter(1.0 - (c + pad), down)
            o_hi = nextafter(1.0 - (c_lo if c_lo > -1.0 else -1.0), up)
            m2_lo = nextafter(1.0 - nextafter(g_hi * o_hi, up), down)
            m2_hi = nextafter(1.0 - nextafter(g_lo * o_lo, down), up)
            m_lo = nextafter(sqrt(m2_lo if m2_lo > 0.0 else 0.0), down)
            m_hi = nextafter(sqrt(m2_hi if m2_hi < 1.0 else 1.0), up)
            if m_hi > 1.0:
                m_hi = 1.0
        else:
            m_lo, m_hi = _level_mask(level, r, P)
        f_lo = nextafter(f_lo * m_lo, down)
        f_lo = f_lo if f_lo > 0.0 else 0.0
        f_hi = nextafter(f_hi * m_hi, up)
        f_hi = f_hi if f_hi < 1.0 else 1.0
        if past and t <= t_cut:
            y = _tail_log_bound(t, binary)
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


def digit_decay_bound(xi: int, sys: MoranSystem) -> tuple[int, float]:
    """(w, gamma^w): w counts digit positions of xi in the middle-third window.

    Position p (0-based) holds the level-(p+1) digit of xi; it is counted when
    floor(q/3) <= digit <= 2 floor(q/3) for the level base q. Each such
    position puts the level-(p+1) argument inside [1/6, 5/6], where the mask
    is at most the system's own gamma (MoranSystem._window_gamma), so gamma^w
    bounds |mu_hat(xi)| from above, up to the few ulps of the unrounded float
    power. Off {0,1} the mask bound is sampled once (_window_bounded), and
    the window ends come from a cached per-level table (_decay_windows).
    """
    if not isinstance(xi, int) or isinstance(xi, bool) or xi < 0:
        raise InvalidParameter(f"frequency must be a non-negative integer, got {xi!r}")
    if not sys._window_bounded:
        raise InvalidParameter(
            "window decay not emitted: a level mask exceeds gamma on [1/6, 5/6]"
        )
    w = 0
    rest = xi
    for q, lo, hi in sys._decay_windows:
        if rest == 0:
            break
        rest, d = divmod(rest, q)
        if lo <= d <= hi:
            w += 1
    return w, sys._window_gamma**w


# --------------------------------------------------------------------------
# batch evaluation


def _batch_table(xis: Iterable[int], sys: MoranSystem, eps: float) -> list:
    # the CSV rows of write_batch_csv, header first, all evaluated before any
    # file is opened
    rows: list = [["xi", "lo", "hi", "truncation_level", "w", "gamma_pow_w"]]
    for xi in xis:
        cert = mu_hat_modulus(xi, sys, eps)
        w, gw = digit_decay_bound(abs(xi), sys)
        rows.append((str(xi), repr(cert.lo), repr(cert.hi), cert.truncation_level, w, repr(gw)))
    return rows


def write_batch_csv(
    path: str,
    xis: Iterable[int],
    sys: MoranSystem,
    eps: float = 1e-9,
) -> None:
    """Evaluate a batch of frequencies and write one CSV row per frequency.

    Rows are emitted in input order. gamma is computed once, on the first
    row, and cached on the system.
    """
    rows = _batch_table(xis, sys, eps)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
