"""Independent oracles the tests trust instead of the library under test.

Everything here is deliberately naive: brute-force power loops, direct
products over truncated levels, plain triple-loop summation, and a rational
log with explicit series tails. Slow is fine; independent is the point.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import NamedTuple

import mpmath
import numpy as np


def brute_order(a: int, n: int) -> int:
    """Smallest m >= 1 with a^m = 1 mod n, by repeated multiplication."""
    x = a % n
    m = 1
    while x != 1:
        x = (x * a) % n
        m += 1
        if m > n:
            raise AssertionError(f"no order for a={a}, n={n}")
    return m


def brute_totient(n: int) -> int:
    """Euler's phi(n) as the count of 1 <= k <= n coprime to n."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def brute_orders_vector(a: int, n_max: int) -> dict[int, int]:
    """Orders of a modulo every coprime n in [2, n_max], vectorized."""
    n = np.arange(2, n_max + 1, dtype=np.int64)
    n = n[np.gcd(np.int64(a), n) == 1]
    cur = np.mod(np.int64(a), n)
    order = np.zeros(n.shape, dtype=np.int64)
    step = 1
    unresolved = order == 0
    while unresolved.any():
        hit = unresolved & (cur == 1)
        order[hit] = step
        unresolved &= ~hit
        cur[unresolved] = (cur[unresolved] * a) % n[unresolved]
        step += 1
        if step > n_max + 1:
            raise AssertionError("order loop exceeded modulus bound")
    return dict(zip(n.tolist(), order.tolist()))


def sieve_is_prime(limit: int) -> list[bool]:
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(flags[p * p :: p])
    return flags


def round_threshold_holds(x: int) -> bool:
    """(1001/1000)^x >= x^2, in exact integers."""
    return 1001**x >= x * x * 1000**x


def round_threshold_search() -> int:
    """Smallest integer R with (1001/1000)^x >= x^2 for every integer x >= R.

    On the tail x >= 2002, f(x) = x ln(1.001) - 2 ln(x) is increasing (its
    critical point is 2/ln(1.001), just above 2001) and convex, so Newton's
    method started right of the root converges to it monotonically. The
    float root only seeds the search: exact big-integer stepping moves it to
    the boundary, and the minimality of the result is re-verified directly.
    """
    lo = 2002  # predicate is monotone false -> true from here on
    if round_threshold_holds(lo):
        raise AssertionError("round threshold search assumes failure at x = 2002")
    a = math.log1p(0.001)
    x = 1e6  # f(x) > 0 here
    for _ in range(100):
        step = (x * a - 2.0 * math.log(x)) / (a - 2.0 / x)
        x -= step
        if abs(step) < 1e-6:
            break
    R = max(lo + 1, math.ceil(x))
    while not round_threshold_holds(R):
        R += 1
    while R - 1 > lo and round_threshold_holds(R - 1):
        R -= 1
    if not (round_threshold_holds(R) and not round_threshold_holds(R - 1)):
        raise AssertionError("round threshold minimality check failed")
    return R


def naive_mu_hat(xi: int, sys, depth: int | None = None) -> float:
    """|product over the first `depth` levels| in plain complex arithmetic."""
    if depth is None:
        depth = sys.depth
    xi = abs(int(xi))
    prod = 1.0 + 0.0j
    P = 1
    for n in range(1, depth + 1):
        P *= sys.schedule.base_at(n)
        t = float(Fraction(xi % P, P))
        prod *= sum(
            float(w) * cmath.exp(-2j * math.pi * d * t)
            for d, w in zip(sys.digit_sets[n - 1], sys.weights[n - 1])
        )
    return abs(prod)


def mp_level_mask(digits, weights, r: int, P: int, dps: int = 40):
    """|sum_d w_d e^(-2 pi i d r / P)| in mpmath, for any digit set: each
    argument d r is reduced mod P exactly before mpmath sees it, and the sum
    runs at `dps` digits plus the digits of P, so that `dps` digits survive
    its cancellation next to a zero (the mask there is about 1/P or more,
    unless it vanishes). At most 1, as the weights sum to 1."""
    with mpmath.workdps(dps + len(str(P))):
        mask = mpmath.mpc(0)
        for d, w in zip(digits, weights):
            arg = mpmath.mpf(d * r % P) / P
            weight = mpmath.mpf(w.numerator) / w.denominator
            mask += weight * mpmath.expjpi(-2 * arg)
        return min(abs(mask), 1)


def mp_mu_hat(xi: int, sys, dps: int = 50):
    """|product over all schedule levels| in mpmath at `dps` digits, each
    level by mp_level_mask at the exact residue xi mod P_n."""
    xi = abs(int(xi))
    with mpmath.workdps(dps):
        prod = mpmath.mpf(1)
        P = 1
        for n in range(1, sys.depth + 1):
            P *= sys.schedule.base_at(n)
            prod *= mp_level_mask(sys.digit_sets[n - 1], sys.weights[n - 1], xi % P, P, dps)
        return +prod


def mp_dirichlet(v: int, K: int, P: int, dps: int = 40):
    """|sin(pi K v / P)| / (K |sin(pi v / P)|) in mpmath, 1 where v = 0 mod P.
    Both arguments are reduced mod P and folded into [0, P/2] as integers
    first, so a zero of the numerator is an exact 0 and no argument loses
    relative precision next to 1. At most 1, as |sin(K x)| <= K |sin(x)|."""
    v %= P
    if v == 0:
        return mpmath.mpf(1)
    u = K * v % P
    u, v = min(u, P - u), min(v, P - v)
    with mpmath.workdps(dps):
        return min(mpmath.sinpi(mpmath.mpf(u) / P) / (K * mpmath.sinpi(mpmath.mpf(v) / P)), 1)


def mp_convolved_mask(pair, step: int, count: int, r: int, P: int, dps: int = 40):
    """|w0 + w1 e^(-2 pi i r / P)| times mp_dirichlet(step r, count, P): the
    closed form of the mask of {0,1} + {0, s, ..., s(K-1)}, exact 0 at the
    Dirichlet factor's zeros."""
    with mpmath.workdps(dps):
        w0, w1 = (mpmath.mpf(w.numerator) / w.denominator for w in pair)
        binary = abs(w0 + w1 * mpmath.expjpi(-2 * mpmath.mpf(r % P) / P))
        return binary * mp_dirichlet(step * r, count, P, dps)


def convolution(pair, step: int, count: int) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    """(digits, weights) of {0,1} with weights pair plus the uniform
    {0, step, ..., step (count - 1)}, summed digit by digit."""
    acc: dict[int, Fraction] = {}
    for e in range(0, step * count, step):
        for d, w in zip((0, 1), pair):
            acc[d + e] = acc.get(d + e, Fraction(0)) + w / count
    items = sorted(acc.items())
    return tuple(d for d, _ in items), tuple(w for _, w in items)


def mp_window_sup(sys, points: int = 1024, dps: int = 40):
    """max |M_n(t)| over the grid t = 1/6 + (2/3) i / (points - 1) of exact
    Fractions, i < points, by mp_level_mask, once per distinct (digit set,
    weights) class of levels."""
    out = mpmath.mpf(0)
    for key in dict.fromkeys(zip(sys.digit_sets, sys.weights)):
        for i in range(points):
            t = Fraction(1, 6) + Fraction(2, 3) * Fraction(i, points - 1)
            out = max(out, mp_level_mask(*key, t.numerator, t.denominator, dps))
    return out


def naive_del_sum(sys, b: int, h: int, N_max: int, mu) -> float:
    """Triple loop, no memo, no compensation: sum (1/N^3) sum_m sum_n |mu^|."""
    total = 0.0
    for N in range(1, N_max + 1):
        inner = 0.0
        for m in range(N):
            for n in range(N):
                inner += mu(abs(h * (b**n - b**m)))
        total += inner / N**3
    return total


def _atanh_bounds(z: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    # partial sum plus a geometric tail cap; needs 0 <= z < 1
    s = Fraction(0)
    zp = z
    z2 = z * z
    for k in range(terms):
        s += zp / (2 * k + 1)
        zp *= z2
    tail = zp / ((2 * terms + 1) * (1 - z2))
    return s, s + tail


def ln_bounds(x: Fraction, terms: int = 14) -> tuple[Fraction, Fraction]:
    """Exact rationals lo <= ln x <= hi."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("ln_bounds needs x > 0")
    if x < 1:
        lo, hi = ln_bounds(1 / x, terms)
        return -hi, -lo
    e = 0
    m = x
    while m >= 2:
        m /= 2
        e += 1
    ln2_lo, ln2_hi = _atanh_bounds(Fraction(1, 3), terms)
    m_lo, m_hi = _atanh_bounds((m - 1) / (m + 1), terms)
    return 2 * (e * ln2_lo + m_lo), 2 * (e * ln2_hi + m_hi)


def long_division_digits(x: Fraction, b: int, count: int) -> tuple[int, ...]:
    """First `count` base-b digits of x in [0, 1), one big-int divmod per digit."""
    num, den = x.numerator, x.denominator
    digits = []
    for _ in range(count):
        num *= b
        d, num = divmod(num, den)
        digits.append(d)
    return tuple(digits)


def remainder_walk_bins(x: Fraction, b: int, steps: int) -> list[int]:
    """The 64-bin counts of {b^k x}, k < steps, walking the exact remainders
    num b^k mod den."""
    counts = [0] * 64
    cur, den = x.numerator, x.denominator
    for _ in range(steps):
        counts[(64 * cur) // den] += 1
        cur = (cur * b) % den
    return counts


def remainder_walk_discrepancy(x: Fraction, b: int, steps: int) -> Fraction:
    """Max deviation from uniform of the remainder walk's 64-bin counts."""
    if steps <= 0:
        return Fraction(1)
    counts = remainder_walk_bins(x, b, steps)
    return max(abs(Fraction(c, steps) - Fraction(1, 64)) for c in counts)


def _terminates(den: int, b: int) -> bool:
    # den divides a power of b iff stripping b's common factors leaves 1
    while (g := math.gcd(den, b)) > 1:
        den //= g
    return den == 1


def _log_floor(n: int, b: int) -> int:
    # floor(log_b n) for n >= 1 by repeated multiplication
    t, power = 0, b
    while power <= n:
        power *= b
        t += 1
    return t


def reference_trusted(den: int, b: int, count: int, guard: int = 8) -> int:
    """Trusted digit count: all of `count` when den divides a power of b,
    else count capped at floor(log_b den) - guard (never negative)."""
    if _terminates(den, b):
        return count
    return max(0, min(count, _log_floor(den, b) - guard))


def reference_normality(x: Fraction, bases, guard: int = 8, count=None) -> list[tuple]:
    """(base, trusted, frequencies, max_deviation, discrepancy) per base from
    long division and the remainder walk; the default window is 64 digits
    for a terminating expansion, else the full trust capacity."""
    out = []
    for b in bases:
        if count is not None:
            n_digits = count
        elif _terminates(x.denominator, b):
            n_digits = 64
        else:
            n_digits = max(0, _log_floor(x.denominator, b) - guard)
        trusted = reference_trusted(x.denominator, b, n_digits, guard)
        window = long_division_digits(x, b, n_digits)[:trusted]
        if trusted > 0:
            freqs = tuple(Fraction(sum(1 for d in window if d == v), trusted) for v in range(b))
            max_dev = max(abs(f - Fraction(1, b)) for f in freqs)
        else:
            freqs = tuple(Fraction(0) for _ in range(b))
            max_dev = Fraction(1)
        out.append((b, trusted, freqs, max_dev, remainder_walk_discrepancy(x, b, trusted)))
    return out


def sparse_max_deviation(digits, b: int) -> Fraction:
    """max_v |freq_v - 1/b| over the digit values 0 .. b-1, from a dict of
    the values that occur: every absent value deviates by exactly 1/b, so b
    may be far larger than the window. 1 on an empty window."""
    if not digits:
        return Fraction(1)
    seen: dict[int, int] = {}
    for d in digits:
        seen[d] = seen.get(d, 0) + 1
    deviations = [abs(Fraction(c, len(digits)) - Fraction(1, b)) for c in seen.values()]
    if len(seen) < b:
        deviations.append(Fraction(1, b))
    return max(deviations)


# --------------------------------------------------------------------------
# kernels as they stood before they were flattened or tabulated; the library
# must keep matching them bit for bit


def _ref_up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _ref_down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _ref_imul(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    candidates = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return _ref_down(min(candidates)), _ref_up(max(candidates))


def _ref_cos_tau(t: float, pad: float) -> tuple[float, float]:
    c = math.cos(2.0 * math.pi * t)
    return max(-1.0, c - pad), min(1.0, c + pad)


def reference_binary_mask(
    gain: tuple[float, float], t: float, pad: float = 2.0**-48
) -> tuple[float, float]:
    """|M(t)| of a {0,1} level from interval helpers: |M|^2 = 1 - gain (1 - cos 2 pi t)."""
    c_lo, c_hi = _ref_cos_tau(t, pad)
    omc = (_ref_down(1.0 - c_hi), _ref_up(1.0 - c_lo))
    prod = _ref_imul(gain, omc)
    m2_lo = max(0.0, _ref_down(1.0 - prod[1]))
    m2_hi = min(1.0, _ref_up(1.0 - prod[0]))
    return _ref_down(math.sqrt(m2_lo)), min(1.0, _ref_up(math.sqrt(m2_hi)))


def level_mask_mu_hat(xi: int, sys, eps: float) -> tuple[float, float, int]:
    """(lo, hi, truncation_level) of the transform loop with every level
    through fourier._level_mask and every rounding through max/min."""
    from moranlab.fourier import _level_mask, _tail_log_bound

    xi = abs(xi)
    if xi == 0:
        return 1.0, 1.0, 0
    f_lo, f_hi = 1.0, 1.0
    for n, (P, level) in enumerate(zip(sys.schedule.prefix_products(), sys._levels), start=1):
        r = xi % P
        m_lo, m_hi = _level_mask(level, r, P)
        f_lo = max(0.0, _ref_down(f_lo * m_lo))
        f_hi = min(1.0, _ref_up(f_hi * m_hi))
        if xi < P:
            y = _tail_log_bound(r / P, sys.is_binary)
            if y <= eps / 2.0:
                e_lo = _ref_down(_ref_down(math.exp(-y)))
                return max(0.0, _ref_down(f_lo * e_lo)), f_hi, n
    raise AssertionError("schedule exhausted")


def reference_digit_decay_bound(xi: int, sys) -> tuple[int, float]:
    """digit_decay_bound's (w, gamma^w) from a loop over the schedule's bases
    with floor(q/3) taken per level, and no window check."""
    w = 0
    rest = xi
    for q in sys.schedule.bases():
        if rest == 0:
            break
        rest, d = divmod(rest, q)
        third = q // 3
        if third <= d <= 2 * third:
            w += 1
    return w, sys._window_gamma**w


def exact_float_sum(xs) -> float:
    """The exact rational sum of the doubles xs, rounded once to a double."""
    return float(sum(map(Fraction, xs), Fraction(0)))


def left_to_right_slop(xs) -> float:
    """4 * 2^-53 times the float sum of xs, added term by term from the left."""
    mass = 0.0
    for x in xs:
        mass += x
    return 4.0 * 2.0**-53 * mass


def triple_loop_del_partial(sys, b: int, h: int, N_max: int, eps: float):
    """delsum.del_partial as an (N, m, n) loop that recomputes h (b^n - b^m)
    and certifies it on first use; every value is an exact Fraction sum
    rounded once, and every slop a left-to-right mass."""
    from moranlab.delsum import DelReport
    from moranlab.fourier import mu_hat_modulus

    table: dict[int, tuple[float, float]] = {}

    def modulus(m: int, n: int) -> tuple[float, float]:
        xi = abs(h * (b**n - b**m))
        if xi not in table:
            cert = mu_hat_modulus(xi, sys, eps / N_max**3)
            table[xi] = (cert.lo, cert.hi)
        return table[xi]

    increments, radii, diag, off = [], [], [], []
    for N in range(1, N_max + 1):
        cube = float(N) ** 3
        mids, halves = [], []
        for m in range(N):
            for n in range(N):
                lo, hi = modulus(m, n)
                mids.append(0.5 * (lo + hi))
                halves.append(0.5 * (hi - lo))
        increments.append(exact_float_sum(mids) / cube)
        radii.append(
            (exact_float_sum(halves) + left_to_right_slop(halves) + left_to_right_slop(mids)) / cube
        )
        diag.append(N / cube)
        upper = []
        for m in range(N):
            for n in range(m + 1, N):
                lo, hi = modulus(m, n)
                upper.append(0.5 * (lo + hi))
        off.append(2.0 * exact_float_sum(upper) / cube)
    blocks = []
    sch = sys.schedule
    for r in range(1, len(sch.q) + 1):
        lo_N, hi_N = sch.N[r - 1], sch.N[r]
        if lo_N >= N_max:
            break
        block = [increments[N - 1] for N in range(lo_N + 1, min(hi_N, N_max) + 1)]
        blocks.append((r, exact_float_sum(block)))
    return DelReport(
        N_max=N_max,
        partial_sum=exact_float_sum(increments),
        radius=exact_float_sum(radii) + left_to_right_slop(radii) + left_to_right_slop(increments),
        increments=tuple(increments),
        diagonal_sum=exact_float_sum(diag),
        offdiagonal_sum=exact_float_sum(off),
        block_sums=tuple(blocks),
    )


# --------------------------------------------------------------------------
# the digit projections Phi_N and Pi_{c,d}, one digit string per n


class DigitProjection(NamedTuple):
    """The map n -> h*b^n - h*b^m that Phi_N reads digits of."""

    m: int
    h: int
    b: int


def prefix_projection(ctx, m: int | None = None) -> DigitProjection:
    """The context's projection, at m = n0 - 1 unless m is given."""
    return DigitProjection(m=ctx.n0 - 1 if m is None else m, h=ctx.h, b=ctx.b)


def phi_map(n: int, proj: DigitProjection, N_digits: int, sch) -> tuple[int, ...]:
    """Phi_N(n): the first N_digits mixed-radix digits of h*b^n - h*b^m, read
    by divmod from a residue mod M_1 ... M_N."""
    bases = sch.bases(N_digits)
    modulus = math.prod(bases)
    value = proj.h * (pow(proj.b, n, modulus) - pow(proj.b, proj.m, modulus)) % modulus
    digits = []
    for base in bases:
        value, digit = divmod(value, base)
        digits.append(digit)
    return tuple(digits)


def free_suffix_positions(ctx, c: int, d: int) -> tuple[int, ...]:
    """The 0-based positions L_s + k_{s+1} .. L_{s+1} - 1 of blocks c+1 .. d."""
    L = ctx.schedule.L
    return tuple(p for s in range(c, d) for p in range(L[s] + ctx.k[s], L[s + 1]))


def pi_map(n: int, c: int, d: int, ctx, m: int | None = None) -> tuple[int, ...]:
    """Pi_{c,d}(n): the digits of h*b^n - h*b^m at the free-suffix positions
    of blocks c+1 .. d, a point of Y_{c,d}."""
    sch = ctx.schedule
    digits = phi_map(n, prefix_projection(ctx, m), sch.L[d], sch)
    return tuple(digits[p] for p in free_suffix_positions(ctx, c, d))


def digit_row_fiber_counts(I: tuple[int, int], ctx, s: int, m: int | None = None):
    """distribution.fiber_counts on full digit rows: one modular power and one
    to_digits per n, keys and prefixes sliced from the digit tuples."""
    from moranlab.distribution import FiberTable
    from moranlab.numtheory import order_mod_reduced
    from moranlab.radix import to_digits

    sch = ctx.schedule
    mm = ctx.n0 - 1 if m is None else m
    start, length = I
    depth = sch.L[s + 1]
    modulus = sch.prefix_product(depth)
    rows = [
        to_digits(
            (ctx.h * (pow(ctx.b, n, modulus) - pow(ctx.b, mm, modulus))) % modulus,
            sch,
            length=depth,
        ).digits
        for n in range(start, start + length)
    ]
    pos_s = free_suffix_positions(ctx, ctx.r0, s)
    pos_s1 = free_suffix_positions(ctx, ctx.r0, s + 1)
    q_pow = sch.q[s] ** ctx.j[s]
    coarse: dict = {}
    fine: dict = {}
    for digits in rows:
        coarse_key = tuple(digits[p] for p in pos_s)
        fine_key = tuple(digits[p] for p in pos_s1)
        coarse[coarse_key] = coarse.get(coarse_key, 0) + 1
        fine[fine_key] = fine.get(fine_key, 0) + 1
    for fine_key, count in fine.items():
        assert q_pow * count == coarse[fine_key[: len(pos_s)]]
    image_sizes = []
    for j in range(sch.ell[s] + 1):
        ordj = order_mod_reduced(ctx, s, j)
        prefix_len = sch.L[s] + j
        if prefix_len == 0:
            image_sizes.append((j, 1))
            continue
        assert len({row[:prefix_len] for row in rows}) == ordj
        assert len({row[:prefix_len] for row in rows[:ordj]}) == ordj
        image_sizes.append((j, ordj))
    k_len = sch.L[s] + ctx.k[s]
    joint = {(row[:k_len], tuple(row[p] for p in pos_s1[len(pos_s) :])) for row in rows}
    assert len(joint) == length
    return FiberTable(
        s=s, length=length, fibers=tuple(sorted(fine.items())), image_sizes=tuple(image_sizes)
    )


def running_power_residues(ctx, modulus: int, start: int, length: int, m: int) -> list[int]:
    """Residues of h*b^n - h*b^m mod modulus for n = start..start+length-1,
    from a running power b^n and the fixed b^m (the residue stream before
    the one-step recurrence)."""
    b_red = ctx.b % modulus
    bn = pow(ctx.b, start, modulus)
    bm = pow(ctx.b, m, modulus)
    h_red = ctx.h % modulus
    out = []
    for _ in range(length):
        out.append((h_red * (bn - bm)) % modulus)
        bn = (bn * b_red) % modulus
    return out


def reference_classify_Bk(Lam, ctx, r: int, m: int | None = None) -> tuple[int, ...]:
    """distribution.classify_Bk as one pi_map per member, with each digit's
    middle window [floor(q/3), 2 floor(q/3)] read from its base per member."""
    from moranlab.errors import InvalidRange, NotWellDistributed
    from moranlab.numtheory import y_product

    sch = ctx.schedule
    mm = ctx.n0 - 1 if m is None else m
    members = sorted(set(Lam))
    positions = free_suffix_positions(ctx, ctx.r0, r)
    y_size = y_product(ctx, r)
    if len(members) != y_size:
        raise NotWellDistributed(f"#Lam = {len(members)}, expected {y_size}")
    if members and members[0] <= mm:
        raise InvalidRange(f"Lam contains n = {members[0]} <= m = {mm}")
    counts = [0] * (len(positions) + 1)
    seen = set()
    for n in members:
        digits = pi_map(n, ctx.r0, r, ctx, m=mm)
        if digits in seen:
            raise NotWellDistributed(f"Pi collision at n = {n}")
        seen.add(digits)
        k = 0
        for p, dig in zip(positions, digits):
            third = sch.base_at(p + 1) // 3
            if third <= dig <= 2 * third:
                k += 1
        counts[k] += 1
    return tuple(counts)


# --------------------------------------------------------------------------
# the sampling path as it stood before its integer kernels: Fraction weight
# sums, one value_at and a linear threshold scan per level, and one exact
# remainder per dilation


def reference_pick(u: int, thresholds) -> int:
    """Index of the first threshold exceeding the 64-bit draw u, by scan."""
    from moranlab.errors import InvalidParameter

    for d, t in enumerate(thresholds):
        if u < t:
            return d
    raise InvalidParameter(f"draw {u} outside the 64-bit range")


def reference_cumulative_thresholds(weights) -> tuple[int, ...]:
    """One level of MoranSystem._thresholds, from a running Fraction total
    in place of integer numerators over one denominator; it checks the
    weights itself, where the system relies on its constructor."""
    from moranlab.errors import InvalidParameter

    if not weights:
        raise InvalidParameter("at least one weight is required")
    total = Fraction(0)
    out = []
    for w in weights:
        w = Fraction(w)
        if w <= 0:
            raise InvalidParameter(f"weights must be positive, got {w}")
        total += w
        out.append((total.numerator << 64) // total.denominator)
    if total != 1:
        raise InvalidParameter(f"weights must sum to 1, got {total}")
    out[-1] = 1 << 64
    return tuple(out)


def reference_sample_point(sys, seed: int, depth: int):
    """measure.sample_point drawing level n from value_at(seed, n) and
    reference_pick over reference_cumulative_thresholds."""
    from moranlab.errors import ScheduleTooShort
    from moranlab.measure import SamplePoint
    from moranlab.rng import value_at

    if not 1 <= depth <= sys.depth:
        raise ScheduleTooShort(f"depth {depth} outside 1 .. {sys.depth}")
    digits = []
    num, den = 0, 1
    levels = zip(sys.schedule.bases(depth), sys.weights, sys.digit_sets)
    for n, (base, weights, digit_set) in enumerate(levels):
        d = digit_set[reference_pick(value_at(seed, n), reference_cumulative_thresholds(weights))]
        digits.append(d)
        num = num * base + d
        den *= base
    return SamplePoint(digits=tuple(digits), value=Fraction(num, den), depth=depth, seed=seed)


def reference_convolve(base, base_w, extra):
    """dimension._convolve with Fraction weights w / len(extra) summed per d + e."""
    share = Fraction(1, len(extra))
    acc: dict[int, Fraction] = {}
    for d, w in zip(base, base_w):
        for e in extra:
            acc[d + e] = acc.get(d + e, Fraction(0)) + w * share
    items = sorted(acc.items())
    return tuple(f for f, _ in items), tuple(w for _, w in items)


def reference_avoidance(x, sys, j_max: int):
    """measure.uniqueness_avoidance with one exact remainder (num k) mod den
    per dilation and digits peeled most significant first by big divisions."""
    from moranlab.dimension import ConvolvedSystem
    from moranlab.errors import (
        InvalidInterval,
        InvalidParameter,
        NotInSupport,
        OutOfRange,
    )
    from moranlab.measure import AvoidanceVerdict
    from moranlab.system import MoranSystem

    x = Fraction(x)
    if not 0 <= x < 1:
        raise InvalidParameter(f"x must lie in [0, 1), got {x}")
    if j_max < 1:
        raise InvalidParameter(f"j_max must be >= 1, got {j_max}")
    sch = sys.schedule
    # a ConvolvedSystem is a MoranSystem, so it is tested first
    if isinstance(sys, ConvolvedSystem):
        special = sys.special_levels
        if j_max > len(special):
            raise OutOfRange(f"j_max = {j_max} exceeds the {len(special)} special levels")
        dilations = tuple(sch.prefix_product(n - 1) for n in special[:j_max])
    elif isinstance(sys, MoranSystem):
        if j_max > sys.depth:
            raise OutOfRange(f"j_max = {j_max} exceeds the schedule depth {sys.depth}")
        dilations = sch.prefix_products()[:j_max]
    else:
        raise InvalidParameter(f"unsupported system type {type(sys).__name__}")
    digit_sets = sys.digit_sets

    lo = sys.avoidance_lo
    if lo >= 1:
        raise InvalidInterval(f"avoidance interval ({lo}, 1) is empty")
    depth = sys.depth
    P = sch.prefix_product(depth)
    if (x.numerator * P) % x.denominator != 0:
        raise NotInSupport(
            f"denominator {x.denominator} does not divide the depth-{depth} prefix product"
        )
    t = (x.numerator * P) // x.denominator
    w = P
    for n, base in enumerate(sch.bases(depth), start=1):
        w //= base
        d, t = divmod(t, w)
        if d not in digit_sets[n - 1]:
            raise NotInSupport(f"digit {d} at level {n} outside the level digit set")

    num, den = x.numerator, x.denominator
    for j, k in enumerate(dilations, start=1):
        if lo.numerator * den < lo.denominator * ((num * k) % den):
            return AvoidanceVerdict(passed=False, first_violation_j=j, interval_lo=lo, j_max=j_max)
    return AvoidanceVerdict(passed=True, first_violation_j=None, interval_lo=lo, j_max=j_max)


# --------------------------------------------------------------------------
# ball counts


def uniform_interval_mass(csys, L: int) -> Fraction:
    """Mass of one depth-L basic interval under the uniform measure on the
    F-digit tree: 1 / (|F_1| ... |F_L|), read from the level sets."""
    return Fraction(1, math.prod(len(F) for F in csys.digit_sets[:L]))


def fraction_ball_measure(x, r, csys, h: int) -> Fraction:
    """dimension._ball_measure at level L = h + 1 with the window ends and the
    grid cap in Fraction arithmetic: A = max(0, ceil((x - r) P_L) - 1),
    B = min(P_L - 1, floor((x + r) P_L)) and the cap 2 (r P_L + 1). The
    counts come from the library's _count_below (looked up at call time),
    which test_count_below_matches_enumeration checks by enumeration; the
    cell total is the product of the level set sizes. No domain checks."""
    from moranlab import dimension
    from moranlab.errors import CounterexampleFound

    x, r = Fraction(x), Fraction(r)
    L = h + 1
    P_L = csys.schedule.prefix_product(L)
    total = math.prod(len(F) for F in csys.digit_sets[:L])
    walk = (csys.digit_sets, csys.schedule.bases(), P_L, total)
    A = max(0, math.ceil((x - r) * P_L) - 1)
    B = min(P_L - 1, math.floor((x + r) * P_L))
    count = dimension._count_below(B, *walk) - dimension._count_below(A - 1, *walk)
    cap_count = 2 * (r * P_L + 1)
    if count > cap_count:
        raise CounterexampleFound(f"interval count {count} exceeds the grid bound {cap_count}")
    return Fraction(count, total)


# --------------------------------------------------------------------------
# records


def rebuild(record, **changes):
    """A record built again through its class's constructor, with `changes`
    applied to its fields. Every record's fields are its constructor's
    parameters, so the constructor's checks run again on the result."""
    values = {name: getattr(record, name) for name in record._fields}
    values.update(changes)
    return type(record)(**values)


def reference_system_error(schedule, digit_sets, weights) -> str | None:
    """The message MoranSystem(schedule, digit_sets, weights) raises, from a
    full per-level check of every level (no level skipped as already seen),
    or None when the data are valid. Fraction sums, not integer numerators."""
    depth = schedule.depth
    if len(digit_sets) != depth or len(weights) != depth:
        return (
            f"need digit sets and weights for all {depth} levels, got "
            f"{len(digit_sets)} and {len(weights)}"
        )
    for n in range(1, depth + 1):
        base = schedule.base_at(n)
        digits, w = digit_sets[n - 1], weights[n - 1]
        if not digits:
            return f"level {n} has an empty digit set"
        if len(w) != len(digits):
            return f"level {n}: {len(digits)} digits, {len(w)} weights"
        if list(digits) != sorted(set(digits)) or not -1 < digits[0] or digits[-1] >= base:
            return f"level {n}: digits must strictly increase within [0, {base})"
        if not all(isinstance(x, Fraction) and x > 0 for x in w):
            return f"level {n}: weights must be positive rationals"
        if sum(w) != 1:
            return f"level {n}: weights sum to {sum(w)}, not 1"
    return None
