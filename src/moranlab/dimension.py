"""Scale geometry of convolved Cantor-Moran measures.

The constructions convolve the base {0,1}-digit measure mu with an auxiliary
even-digit measure nu, producing per-level digit sets F_n = D_n + E_n whose
uniform measure eta obeys a mass-distribution bound against a gauge function.
The convolution is itself a Cantor-Moran measure, so a ConvolvedSystem is
the MoranSystem on the F_n, which also keeps D_n, E_n and the special levels.
Three variants:

  dim-one    every level uses E_n = {0, 2, ..., 2 floor(M_n/4)}; eta then
             satisfies eta(B(x,r)) <= 8 r^(1-eps) for every eps in (0,1).
  gauge      even-digit levels only on a sparse index set N chosen so that
             2^(#A_r) <= g(r) = phi(r)/r; elsewhere E_n = {0,...,M_n-2} fills
             the level; eta(B(x,r)) <= 4 phi(r) on the certified grid.
  extreme    like gauge with g = phi(r)/(r H(r)) and nearly full even sets
             E_n = {0, 2, ..., M_n - 3} off N.

Every ball bound is exact rational arithmetic: the number of level-(h(r)+1)
basic intervals meeting B(x, r) is counted by a most-significant-digit walk
over the contiguous digit sets, never by enumeration.
"""

from __future__ import annotations

import csv
import math
import operator
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterable, Sequence

from ._record import Record
from .errors import (
    CounterexampleFound,
    GaugeTooSmall,
    InvalidInterval,
    InvalidParameter,
    OutOfRange,
    ScheduleTooShort,
)
from .system import MoranSystem, _first_levels, _integer_weights, _shared
from .radix import PrimeSchedule

_LN2 = math.log(2.0)


def _ln_fraction(r: Fraction) -> float:
    # math.log takes arbitrary-size ints, so this never overflows
    return math.log(r.numerator) - math.log(r.denominator)


# --------------------------------------------------------------------------
# gauge functions


# the decade grid r = 10^-k of GaugeFunction.vanishing_ratio_check
_DECADES = tuple(range(3, 121, 3))


class GaugeFunction(Record):
    """phi(r), evaluated in double precision at exact rational arguments.

    Three kinds: power(s) for r^s; r_times_log_power(c) for r (log 1/r)^c;
    r_times_H(c) for r exp(c (log(1/r) / loglog(1/r))^(1/4)).
    """

    _fields = ("kind", "param")

    def __init__(self, kind: str, param: float = 1.0) -> None:
        if kind not in ("power", "r_times_log_power", "r_times_H"):
            raise InvalidParameter(f"unknown gauge kind {kind!r}")
        if not 0 < param < math.inf:  # NaN fails too
            raise InvalidParameter(f"gauge parameter must be positive and finite, got {param}")
        self.__dict__.update(kind=kind, param=param)

    def log_value(self, r: Fraction) -> float:
        """ln phi(r); safe where phi underflows double precision."""
        r = Fraction(r)
        if not 0 < r <= 1:
            raise OutOfRange(f"gauges are evaluated on (0, 1], got {r}")
        ln_r = _ln_fraction(r)
        if self.kind == "power":
            return self.param * ln_r
        L = -ln_r
        if self.kind == "r_times_log_power":
            if L <= 1.0:
                raise OutOfRange(f"r = {r} too large for a log-power gauge")
            return ln_r + self.param * math.log(L)
        if L <= math.e:
            raise OutOfRange(f"r = {r} too large for an H-adjusted gauge")
        return ln_r + self.param * (L / math.log(L)) ** 0.25

    def value(self, r: Fraction) -> float:
        return math.exp(self.log_value(r))

    def vanishing_ratio_check(self) -> bool:
        """Necessary condition for r/phi(r) -> 0, checked on the decade grid
        r = 10^-k, k = 3, 6, ..., 120: the log ratio must strictly decrease
        and lose at least 0.1 over the grid (a constant ratio fails both)."""
        logs = [
            _ln_fraction(Fraction(1, 10**k)) - self.log_value(Fraction(1, 10**k))
            for k in _DECADES
        ]
        decreasing = all(a > b for a, b in zip(logs, logs[1:]))
        return decreasing and logs[0] - logs[-1] >= 0.1


# --------------------------------------------------------------------------
# h(r)


def h_of_r(r: Fraction, sch: PrimeSchedule) -> int:
    """The unique h with 1/(M_1...M_{h+1}) < r <= 1/(M_1...M_h), exactly."""
    r = Fraction(r)
    if r <= 0:
        raise OutOfRange(f"r must be positive, got {r}")
    if r > Fraction(1, sch.base_at(1)):
        raise OutOfRange(f"r = {r} exceeds 1/M_1 = 1/{sch.base_at(1)}")
    prefixes = sch.prefix_products()
    if r * prefixes[-1] < 1:
        raise ScheduleTooShort(f"r = {r} needs depth beyond {sch.depth}")
    # r <= 1/P_n iff the integer P_n <= floor(1/r)
    return bisect_right(prefixes, r.denominator // r.numerator)


# --------------------------------------------------------------------------
# sparse index sets


class SparseCertificate(Record):
    """The special level set N plus the per-band verification grid.

    rows are (m, count, count*ln2, ln g(1/P_m), ok): 2^count <= g at the band
    top, where count = #(N restricted to levels <= m+1). Bands shallower than
    the first special level can have g < 1 = 2^0; those rows carry ok=False
    and the ball bound starts past them.
    """

    _fields = ("levels", "rows")


def sparse_index_set(
    log_g: Callable[[Fraction], float],
    sch: PrimeSchedule,
) -> SparseCertificate:
    """Build N = {h(r_k) + 1} so that 2^(#A_r) <= g(r) on the band-top grid.

    The monotone envelope g~(r) = inf{g(t): t <= r} is taken over the grid of
    band tops r_m = 1/(M_1...M_m) (a running minimum from the deep end; the
    supremum r_k = sup{r : g~(r) >= n_k} then snaps to a band top because the
    envelope is constant on each band of the grid). Thresholds are n_k = 2^k;
    indices are thinned to strictly increasing band positions, so the i-th
    kept threshold has k_i >= i and

        2^(#A_r) <= 2^(k_i) = n_(k_i) <= g~(r) <= g(r)

    holds down the chain. The certificate rows re-verify this against the raw
    g at every band top.
    """
    depth = sch.depth
    raw = [log_g(Fraction(1, P)) for P in sch.prefix_products()]
    env = raw.copy()
    for i in range(depth - 2, -1, -1):
        env[i] = min(env[i], env[i + 1])

    # one pass over bands: band m is kept with the smallest threshold index
    # not yet used, i.e. k = last_k + 1, provided 2^k <= g~ at the band top
    kept: list[tuple[int, int]] = []  # (k, band index m)
    last_k = 0
    for m in range(1, depth + 1):
        e = env[m - 1]
        if (last_k + 1) * _LN2 <= e:
            kept.append((last_k + 1, m))
            last_k = int(e // _LN2) if math.isfinite(e) else 2**62
    if not kept:
        raise GaugeTooSmall("g never reaches 2 on the band grid; the gauge is too small")

    levels = tuple(m + 1 for _, m in kept if m + 1 <= depth)
    rows: list[tuple[int, int, float, float, bool]] = []
    for m in range(1, depth + 1):
        count = sum(1 for _, mi in kept if mi <= m and mi + 1 <= depth)
        lhs = count * _LN2
        ok = lhs <= raw[m - 1] + 1e-9
        if count >= 1 and not ok:
            raise CounterexampleFound(f"band {m}: 2^{count} exceeds g at the band top")
        rows.append((m, count, lhs, raw[m - 1], ok))
    return SparseCertificate(levels=levels, rows=tuple(rows))


# --------------------------------------------------------------------------
# convolved systems


def _even_digit_set(M: int) -> tuple[int, ...]:
    return tuple(range(0, 2 * (M // 4) + 1, 2))


def _convolve(
    base: tuple[int, ...], base_w: tuple[Fraction, ...], extra: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    # distribution of d + e with e uniform on `extra`, summed as integer
    # numerators over the weights' one denominator times len(extra)
    if not extra:
        raise ZeroDivisionError("uniform weight on an empty set")
    den, numerators = _integer_weights(base_w)
    acc: dict[int, int] = {}
    for d, a in zip(base, numerators):
        for e in extra:
            acc[d + e] = acc.get(d + e, 0) + a
    den *= len(extra)
    items = sorted(acc.items())
    return tuple(f for f, _ in items), tuple(Fraction(a, den) for _, a in items)


class ConvolvedSystem(MoranSystem):
    """The digit system of mu * nu on the sums F_n = D_n + E_n (its digit
    sets, with convolution weights). It also keeps the base sets D_n, the
    even sets E_n and the special level set N, whence its avoidance data."""

    _fields = (
        "schedule", "base_sets", "nu_sets", "digit_sets", "weights", "special_levels", "variant"
    )

    def __init__(
        self,
        schedule: PrimeSchedule,
        base_sets: tuple[tuple[int, ...], ...],
        nu_sets: tuple[tuple[int, ...], ...],
        digit_sets: tuple[tuple[int, ...], ...],
        weights: tuple[tuple[Fraction, ...], ...],
        special_levels: tuple[int, ...],
        variant: str,
    ) -> None:
        # checks digit_sets (sorted, inside [0, M_n)) and weights, and sets them
        super().__init__(schedule, digit_sets, weights)
        depth = schedule.depth
        for name, seq in (("base_sets", base_sets), ("nu_sets", nu_sets)):
            if len(seq) != depth:
                raise InvalidParameter(f"{name} must cover all {depth} levels")
        if any(a >= b for a, b in zip(special_levels, special_levels[1:])):
            raise InvalidParameter("special levels must strictly increase")
        # they increase, so the ends suffice
        if special_levels and not (special_levels[0] >= 1 and special_levels[-1] <= depth):
            raise InvalidParameter(f"special levels must lie in 1 .. {depth}")
        special = set(special_levels)
        # a level's checks read only its kind, base and sets
        kinds = [n in special for n in range(1, depth + 1)]
        for n, (is_special, M, E, F, D) in _first_levels(
            kinds, schedule.bases(), nu_sets, digit_sets, base_sets
        ):
            if is_special:
                if E != _even_digit_set(M):
                    raise InvalidParameter(f"level {n} is special but E is not the even set")
                # liminf guard: keeps the avoidance interval non-degenerate
                if Fraction(max(E) + 1, M) > Fraction(1, 2) + Fraction(1, 7):
                    raise CounterexampleFound(f"level {n}: even set too large for {M}")
            if len(E) >= 2 and E[1] - E[0] == 2:
                # even-step levels must have unique sum decompositions
                if len(F) != len(D) * len(E):
                    raise CounterexampleFound(f"level {n}: sums collide on an even-step set")
        self.__dict__.update(
            base_sets=base_sets, nu_sets=nu_sets, special_levels=special_levels, variant=variant
        )

    @cached_property
    def avoidance_lo(self) -> Fraction:
        """Left end 1/6 + max over special levels of max(F_n)/M_n of the
        avoidance interval (lo, 1); InvalidInterval without special levels."""
        if not self.special_levels:
            raise InvalidInterval("no special levels, so the avoidance interval is undefined")
        bases = self.schedule.bases()
        # digit sets strictly increase, so the last sum is the largest
        tops = {(self.digit_sets[n - 1][-1], bases[n - 1]) for n in self.special_levels}
        return Fraction(1, 6) + max(Fraction(top, M) for top, M in tops)

    def _avoidance_levels(self, j_max: int) -> tuple[int, ...]:
        # the levels n_j of the dilations k_j = P_(n_j - 1): the first j_max special levels
        special = self.special_levels
        if j_max > len(special):
            raise OutOfRange(f"j_max = {j_max} exceeds the {len(special)} special levels")
        return special[:j_max]

    @cached_property
    def _cell_counts(self) -> tuple[int, ...]:
        # _cell_counts[n] = |F_1| ... |F_n|, the number of depth-n basic intervals
        return tuple(accumulate(map(len, self.digit_sets), operator.mul, initial=1))

    @cached_property
    def _first_gap(self) -> int:
        """The first level whose digit set is not {0, ..., |F| - 1}, or depth + 1."""
        for k, F in enumerate(self.digit_sets, start=1):
            # F strictly increases from F[0] >= 0, so it is {0..|F|-1} iff F[-1] = |F| - 1
            if F[-1] != len(F) - 1:
                return k
        return self.depth + 1


def build_convolved(
    sys: MoranSystem,
    variant: str,
    phi: GaugeFunction | None = None,
    H_param: float = 1.0,
) -> ConvolvedSystem:
    """Construct the convolution digit system for one of the three variants.

    gauge and extreme require phi; extreme additionally divides the target
    ratio by H(r) = exp(H_param (log(1/r)/loglog(1/r))^(1/4)). The special
    level set is certified by sparse_index_set and GaugeTooSmall propagates.
    """
    if not sys.is_binary:
        raise InvalidParameter("convolution constructions assume {0,1} base digits")
    sch = sys.schedule
    depth = sch.depth
    if variant == "dim-one":
        special = tuple(range(1, depth + 1))
    elif variant in ("gauge", "extreme"):
        if phi is None:
            raise InvalidParameter(f"variant {variant!r} needs a gauge function")
        if not phi.vanishing_ratio_check():
            raise GaugeTooSmall("r/phi(r) does not vanish on the decade grid")
        if variant == "gauge":
            log_g = lambda r: phi.log_value(r) - _ln_fraction(r)
        else:
            if not 0 < H_param < math.inf:  # NaN fails too
                raise InvalidParameter(f"H_param must be positive and finite, got {H_param}")

            def log_g(r: Fraction) -> float:
                L = -_ln_fraction(r)
                if L <= math.e:
                    return -math.inf
                return phi.log_value(r) - _ln_fraction(r) - H_param * (L / math.log(L)) ** 0.25

        special = sparse_index_set(log_g, sch).levels
    else:
        raise InvalidParameter(f"unknown variant {variant!r}")

    special_set = set(special)

    def level(M: int, is_special: bool, D: tuple[int, ...], w: tuple[Fraction, ...]) -> tuple:
        if is_special:
            E = _even_digit_set(M)
        elif variant == "gauge":
            E = tuple(range(M - 1))
        else:
            E = tuple(range(0, M - 2, 2))
        return (E, *_convolve(D, w, E))

    # one convolution per distinct (base, kind, digit set, weights); the
    # levels that share these share its tuples
    kinds = [n in special_set for n in range(1, depth + 1)]
    levels = _shared(level, sch.bases(), kinds, sys.digit_sets, sys.weights)
    nu_sets, digit_sets, weights = zip(*levels)
    return ConvolvedSystem(
        schedule=sch,
        base_sets=sys.digit_sets,
        nu_sets=nu_sets,
        digit_sets=digit_sets,
        weights=weights,
        special_levels=special,
        variant=variant,
    )


# --------------------------------------------------------------------------
# exact ball bounds


def _count_below(X: int, digit_sets: Sequence, bases: Sequence[int], P_L: int, total: int) -> int:
    """#{digit strings d_1..d_L with d_k in F_k = digit_sets[k-1] = {0..|F_k|-1}
    and sum_k d_k P_L/P_k <= X}, where P_k = M_1...M_k and total = prod |F_k|.

    MSD-first walk: the weight P_L/P_k and the number of strings below level
    k are running quotients of P_L by M_k and of total by |F_k|; the walk
    ends at level L, where the weight reaches 1, or at the first digit of X
    past its level's set."""
    if X < 0:
        return 0
    count = 0
    weight, tail, rest = P_L, total, X
    for F, M in zip(digit_sets, bases):
        weight //= M
        tail //= len(F)
        digit, rest = divmod(rest, weight)
        if digit >= len(F):
            return count + len(F) * tail
        count += digit * tail
        if weight == 1:
            break
    return count + 1  # the string equal to X itself


def ball_measure(x: Fraction, r: Fraction, csys: ConvolvedSystem) -> Fraction:
    """Exact eta(B(x, r)) upper bound: (basic intervals met) x (interval mass).

    eta is the uniform measure on the F-digit tree; intervals are counted at
    level h(r) + 1 by digit arithmetic over the contiguous digit sets.
    """
    return _ball_measure(x, r, csys, None)


def _ball_measure(x: Fraction, r: Fraction, csys: ConvolvedSystem, h: int | None) -> Fraction:
    # ball_measure with h = h(r) taken from the caller when it holds it
    # (cmd_dimension's band table), so h_of_r runs once per band
    x = Fraction(x)
    r = Fraction(r)
    if not 0 <= x <= 1:
        raise OutOfRange(f"x must lie in [0, 1], got {x}")
    L = (h_of_r(r, csys.schedule) if h is None else h) + 1
    if L > csys.depth:
        raise ScheduleTooShort(f"need level {L}, schedule covers {csys.depth}")
    if L >= csys._first_gap:
        raise InvalidParameter(f"level {csys._first_gap} digit set is not contiguous from 0")
    P_L = csys.schedule.prefix_product(L)
    total = csys._cell_counts[L]
    walk = (csys.digit_sets, csys.schedule.bases(), P_L, total)
    # the window ends (x -+ r) P_L = (xn rd -+ rn xd) P_L / (xd rd), rounded
    # by integer floor division (ceil n/d = -(-n // d)); no Fraction is built
    xn, xd = x.numerator, x.denominator
    rn, rd = r.numerator, r.denominator
    xr, rx, den = xn * rd, rn * xd, xd * rd
    A = max(0, -((rx - xr) * P_L // den) - 1)
    B = min(P_L - 1, (xr + rx) * P_L // den)
    count = _count_below(B, *walk) - _count_below(A - 1, *walk)
    # a window of length 2r meets at most 2(r P_L + 1) cells of width 1/P_L;
    # count > 2 (rn P_L / rd + 1) iff count rd > 2 (rn P_L + rd), as rd > 0
    if count * rd > 2 * (rn * P_L + rd):
        raise CounterexampleFound(
            f"interval count {count} exceeds the grid bound {2 * (r * P_L + 1)}"
        )
    return Fraction(count, total)


# --------------------------------------------------------------------------
# local dimension and h-rate diagnostics


def local_dim_series(x, csys: ConvolvedSystem, depth: int) -> tuple[float, ...]:
    """Terms sum_{k<=n} -log lambda_k(d_k) / log(M_1...M_n) for n = 1..depth.

    x is a SamplePoint drawn from the convolved system (its digits are looked
    up in the lambda weight tables).
    """
    if depth < 1 or depth > len(x.digits):
        raise OutOfRange(f"depth {depth} outside 1 .. {len(x.digits)}")
    terms: list[float] = []
    num_acc = 0.0
    log_P = 0.0
    for n in range(1, depth + 1):
        d = x.digits[n - 1]
        F = csys.digit_sets[n - 1]
        try:
            idx = F.index(d)
        except ValueError:
            raise InvalidParameter(f"digit {d} at level {n} is not in the digit set")
        lam = csys.weights[n - 1][idx]
        num_acc += math.log(lam.denominator) - math.log(lam.numerator)
        log_P += math.log(csys.schedule.base_at(n))
        terms.append(num_acc / log_P)
    return tuple(terms)


def running_min_after(series: Sequence[float], burn_in: int = 50) -> float:
    """Smallest term from index burn_in on (1-based); the liminf surrogate."""
    if burn_in < 1 or burn_in > len(series):
        raise OutOfRange(f"burn_in {burn_in} outside 1 .. {len(series)}")
    return min(series[burn_in - 1 :])


class HRateRow(Record):
    _fields = ("r", "h_r", "ratio", "band")


def h_rate_report(sch: PrimeSchedule, r_grid: Iterable[Fraction]) -> tuple[HRateRow, ...]:
    """h(r)/log(1/r) per grid point, plus the loglog-corrected band value
    h(r) loglog(1/r)/log(1/r) on cube-window schedules."""
    cube = sch.variant.startswith("cube-window")
    rows: list[HRateRow] = []
    for r in r_grid:
        r = Fraction(r)
        h = h_of_r(r, sch)
        L = -_ln_fraction(r)
        band = h * math.log(L) / L if cube and L > 1.0 else None
        rows.append(HRateRow(r=r, h_r=h, ratio=h / L, band=band))
    return tuple(rows)


# --------------------------------------------------------------------------
# CSV reports


class BallRow(Record):
    _fields = ("x_seed", "r", "h_r", "ball", "phi_r", "ratio")


# each _*_table gives the CSV rows of its writer, header first


def _ball_table(rows: Iterable[BallRow]) -> list:
    out: list = [
        ["x_seed", "r_num", "r_den", "h_r", "ball_measure_num", "ball_measure_den", "phi_r", "ratio"]
    ]
    for row in rows:
        out.append(
            [
                row.x_seed,
                row.r.numerator,
                row.r.denominator,
                row.h_r,
                row.ball.numerator,
                row.ball.denominator,
                repr(row.phi_r),
                repr(row.ratio),
            ]
        )
    return out


def write_ball_csv(path: str, rows: Iterable[BallRow]) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(_ball_table(rows))


def _local_dim_table(series: Sequence[float], burn_in: int) -> list:
    out: list = [["n", "term", "running_min"]]
    rmin: float | None = None
    for n, term in enumerate(series, start=1):
        if n >= burn_in:
            rmin = term if rmin is None else min(rmin, term)
        out.append([n, repr(term), "" if rmin is None else repr(rmin)])
    return out


def write_local_dim_csv(path: str, series: Sequence[float], burn_in: int = 50) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(_local_dim_table(series, burn_in))
