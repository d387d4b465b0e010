"""Certified-interval Fourier analysis of Cantor-Moran measures.

The measure mu of a digit system (moranlab.system) is the infinite
convolution of the per-level digit distributions scaled by 1/(M_1 ... M_n);
its transform is the infinite product of level masks

    mu_hat(xi) = prod_n M_n(xi / (M_1 ... M_n)),
    M_n(t) = sum_d omega_{d,n} e^(-2 pi i d t).

Levels come in the two kinds the constructions build: {0,1} digits weighted
(w0, w1), and their sums with uniform digits {0, s, ..., s(K-1)}, whose mask
is the {0,1} one times a Dirichlet factor,
|M(t)| = |w0 + w1 e^(-2 pi i t)| |sin(pi K s t)| / (K |sin(pi s t)|).
Any other level makes mu_hat_modulus, mask_interval and digit_decay_bound
raise InvalidParameter (exit 2); such a system still samples.

Frequencies are astronomically large integers, so every argument is reduced
exactly, as an integer residue r = xi mod M_1...M_n (and s r, K s r), before
any floating-point trigonometry sees the correctly rounded quotient;
the float work is wrapped in outward-rounded intervals and the unevaluated
tail of the product is bounded by a closed-form inequality chain. The result
is a certified enclosure of |mu_hat(xi)|, not an estimate.

One kernel, _moduli, evaluates a batch and mu_hat_modulus a batch of one.
Frequencies with equal residues mod P_k <= xi share their running product
through level k, a level where no tail bound is tried.
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
    # The cosine is padded by _TRIG_PAD and every step rounded outward; the
    # conditionals are max/min with a fixed argument order. All four gain
    # products are kept: 1 - c_hi rounded down can be -5e-324, so a sign
    # shortcut is not exact here. _moduli inlines the levels where it is.
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


# the Dirichlet factor's quotient q of two libm sines lies within 14 * 2^-53
# of its exact value, relatively. Each sine of fl(pi) fl(m / P), with m / P in
# [2^-900, 1/2], carries 2.35 * 2^-53 from its argument (the quotient, fl(pi)
# and the product), enlarged at most pi/2 times as sin(pi y) >= 2 y there, and
# libm's 1 ulp, 2 * 2^-53; the product with K and the division add 2^-53
# each. That is under a quarter of the pad (checked in tests)
_SIN_PAD = 2.0**-47

_ONE_DOWN = math.nextafter(1.0, _DOWN)


def _dirichlet(v: int, K: int, P: int) -> tuple[float, float]:
    """Enclosure of |sin(pi K v / P)| / (K |sin(pi v / P)|) for v = s r mod P:
    the Dirichlet factor of K uniform digits at step s. Both arguments are
    reduced and folded into [0, P/2] as integers before a float sees them
    (|sin(pi x)| is even and has period 1)."""
    if v + v > P:
        v = P - v
    if (K * v) << 32 < P:
        # the removable singularity and its neighbourhood: with a = pi v / P,
        # 1 - (K a)^2 / 6 <= sin(K a) / (K sin a) <= 1, and K a < 2^-30
        return _ONE_DOWN, 1.0
    u = K * v % P
    if u + u > P:
        u = P - u
    if u << 900 < P:
        # at or next to a zero: the factor is at most pi u / (2 K v) < 2^-866,
        # as sin(pi v / P) >= 2 v / P and K v / P >= 2^-32 past the branch above
        return 0.0, 2.0**-866
    q = math.sin(math.pi * (u / P)) / (K * math.sin(math.pi * (v / P)))
    return _down(q * (1.0 - _SIN_PAD)), min(1.0, _up(q * (1.0 + _SIN_PAD)))


class _Level(Record):
    """One level's mask data: the {0,1} factor's exact weights `pair` and
    the enclosure `gain` of 2 w0 w1, rounded outward once, and the Dirichlet
    factor of `count` uniform digits at `step` (count 1 for a {0,1} level)."""

    __slots__ = _fields = ("pair", "gain", "step", "count")


def _build_level(digits: tuple[int, ...], w: tuple[Fraction, ...]) -> _Level:
    """The level's two factors, found by matching its digit polynomial
    sum_d w_d z^d exactly against (w0 + w1 z)(1 + z^s + ... + z^(s(K-1))) / K:
    the pairs {s j, s j + 1} for s >= 2, or {0, ..., K} for s = 1.
    InvalidParameter for any other level. The mask of a sum is the product
    of the masks even where sums collide, and the kind is read from the
    level's own digits and weights, so a plain MoranSystem on the sum sets
    transforms as its ConvolvedSystem does."""
    n = len(digits)
    s = digits[2] if n >= 3 else 0
    if digits == (0, 1):
        s, K, pair = 1, 1, w
    elif (
        s >= 2
        and n % 2 == 0
        and digits == tuple(d for e in range(0, s * (n // 2), s) for d in (e, e + 1))
        and w == w[:2] * (n // 2)
    ):
        K = n // 2
        pair = (K * w[0], K * w[1])
    elif n >= 3 and digits[-1] == n - 1 and w[1:-1] == (Fraction(1, n - 1),) * (n - 2):
        s, K = 1, n - 1
        pair = (K * w[0], K * w[-1])
    else:
        raise InvalidParameter(
            f"level digits {digits[:4]}{'...' if n > 4 else ''} with their weights are "
            "neither {0,1} nor {0,1} plus a uniform progression {0, s, ..., s(K-1)}, "
            "the two kinds the transform takes"
        )
    return _Level(pair, _fraction_interval(2 * pair[0] * pair[1]), s, K)


def _level_mask(level: _Level, r: int, P: int) -> tuple[float, float]:
    """mask_interval at t = r / P for integers 0 <= r < P, r + r != P, bit for
    bit: floats see only the correctly rounded quotients float() would."""
    if r == 0:
        return 1.0, 1.0
    return _times_dirichlet(level, r, P, *_binary_mask(level.gain, r / P))


def _times_dirichlet(level: _Level, r: int, P: int, lo: float, hi: float) -> tuple[float, float]:
    # the level's mask at t = r / P from the enclosure [lo, hi] of its {0,1} factor
    if level.count == 1:
        return lo, hi
    f_lo, f_hi = _dirichlet(level.step * r % P, level.count, P)
    return max(0.0, _down(lo * f_lo)), min(1.0, _up(hi * f_hi))


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
    """Outward-rounded enclosure of |M_n(t)|, argument reduced mod 1 exactly;
    InvalidParameter on a system with a level of neither kind."""
    if not 1 <= level_n <= sys.depth:
        raise OutOfRange(f"level {level_n} outside 1 .. {sys.depth}")
    level = sys._levels[level_n - 1]
    t = Fraction(t)
    t -= math.floor(t)
    r, P = t.numerator, t.denominator
    if r + r == P:  # t = 1/2, never a transform's argument: every P_n is odd
        return _times_dirichlet(level, r, P, *_half_mask(level.pair))
    return _level_mask(level, r, P)


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
    run inline where c + pad < 1, the rest (r = 0 too, as c = 1, and every
    convolved level) via _level_mask. InvalidParameter, for any xi, on a
    system with a level of neither kind.

    This is a batch of one of the kernel _moduli. The running product through
    level k depends on xi only through r_k = xi mod P_k, memoised for the call
    at each k with P_k <= len(xis). A frequency with P_top <= xi < P_(top+1)
    resumes from its deepest hit at a level k <= top and stores only there,
    where no tail bound is tried, so its bits are those of xi alone.
    """
    return CertifiedModulus(*_moduli([xi], sys, eps)[0])


def _moduli(xis: list[int], sys: MoranSystem, eps: float) -> list[tuple[float, float, int, float]]:
    # (lo, hi, truncation_level, tail_bound_log) of mu_hat_modulus for each
    # xi of xis, in order, bit for bit; every xi is checked before the first
    check_eps(eps)
    levels = sys._transform_levels  # InvalidParameter on a level of neither kind
    for xi in xis:
        if not isinstance(xi, int) or isinstance(xi, bool):
            raise InvalidParameter(f"frequency must be an integer, got {type(xi).__name__}")
    tail_budget = eps / 2.0
    binary = sys.is_binary
    t_cut = _tail_cut(tail_budget, binary)
    prefix = sys.schedule._prefix  # P_n at index n after P_0 = 1
    K = bisect_right(prefix, len(xis)) - 1
    memo: list[dict] = [{} for _ in range(K + 1)]
    cos, sqrt, nextafter = math.cos, math.sqrt, math.nextafter
    tau, pad, down, up = 2.0 * math.pi, _TRIG_PAD, _DOWN, _UP
    out = []
    for xi in map(abs, xis):
        if xi == 0:
            out.append((1.0, 1.0, 0, 0.0))
            continue
        top = bisect_right(prefix, xi) - 1
        # the residues xi mod P_n: xi itself once P_n > xi. Below that level,
        # past two 30-bit digits, they are found top-down: P_n divides
        # P_{n+1}, so each is the residue of the level above reduced mod P_n,
        # a division of a number one level wide instead of xi. A smaller xi
        # is reduced directly, which costs less than building the list
        residues = None
        if xi >> 60:
            residues = list(accumulate(map(prefix.__getitem__, range(top, -1, -1)), mod, initial=xi))
            residues.reverse()
        store = k = min(K, top)
        r = residues[k] if residues else xi % prefix[k]
        while k and (hit := memo[k].get(r)) is None:
            k -= 1
            r %= prefix[k]
        f_lo, f_hi = hit if k else (1.0, 1.0)
        for n, P, level, g_lo, g_hi in levels[k:]:
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
                    out.append((max(0.0, _down(f_lo * e_lo)), f_hi, n, -y))
                    break
            elif n <= store:  # so n <= top, not past
                memo[n][r] = f_lo, f_hi
        else:
            raise TailNotCertifiable(
                f"schedule exhausted at depth {sys.depth} before the tail bound beat {eps / 2}"
            )
    return out


# --------------------------------------------------------------------------
# digit-window decay


def digit_decay_bound(xi: int, sys: MoranSystem) -> tuple[int, float]:
    """(w, gamma^w): w counts digit positions of xi in the middle-third window.

    Position p (0-based) holds the level-(p+1) digit of xi; it is counted when
    floor(q/3) <= digit <= 2 floor(q/3) for the level base q. Each such
    position puts the level-(p+1) argument inside [1/6, 5/6], where the mask
    is at most the system's own gamma (MoranSystem._window_gamma), so gamma^w
    bounds |mu_hat(xi)| from above, up to the few ulps of the unrounded float
    power. gamma is proven for both level kinds, and InvalidParameter
    refuses any other level; the window ends come from a cached per-level
    table (_decay_windows).
    """
    if not isinstance(xi, int) or isinstance(xi, bool) or xi < 0:
        raise InvalidParameter(f"frequency must be a non-negative integer, got {xi!r}")
    gamma = sys._window_gamma
    w = 0
    rest = xi
    for q, lo, hi in sys._decay_windows:
        if rest == 0:
            break
        rest, d = divmod(rest, q)
        if lo <= d <= hi:
            w += 1
    return w, gamma**w


# --------------------------------------------------------------------------
# batch evaluation


def _batch_table(xis: Iterable[int], sys: MoranSystem, eps: float) -> list:
    # the CSV rows of write_batch_csv, header first, all evaluated before any
    # file is opened; eps and the system's levels are checked before xis is
    # drawn, and every frequency before the first is evaluated
    check_eps(eps)
    sys._transform_levels  # InvalidParameter on a level of neither kind
    xis = list(xis)
    rows: list = [["xi", "lo", "hi", "truncation_level", "w", "gamma_pow_w"]]
    powers: dict[int, str] = {}  # repr(gamma^w), once per distinct w
    for xi, (lo, hi, n, _) in zip(xis, _moduli(xis, sys, eps)):
        w, gw = digit_decay_bound(abs(xi), sys)
        if w not in powers:
            powers[w] = repr(gw)
        rows.append((str(xi), repr(lo), repr(hi), n, w, powers[w]))
    return rows


def write_batch_csv(
    path: str,
    xis: Iterable[int],
    sys: MoranSystem,
    eps: float = 1e-9,
) -> None:
    """Evaluate a batch of frequencies and write one CSV row per frequency.

    Rows are emitted in input order, and no file is opened before the last.
    gamma is computed once, on the first row, and cached on the system.
    """
    rows = _batch_table(xis, sys, eps)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
