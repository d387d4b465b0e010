"""Partial sums of the normality criterion series and their block structure.

The series is S = sum_N (1/N^3) sum_{m,n < N} |mu_hat(h(b^n - b^m))|; its
convergence for every (b, h) is the criterion's hypothesis, a statement about
infinity. At desk scale this module computes certified partial sums,
per-N increments, the diagonal/off-diagonal decomposition, and per-block sums
paired with the asymptotic bound 2 A N_r e^(-B u_r) evaluated at the derived
constants. The bound rows are diagnostics: the constants are only valid in a
regime (r >= r1) far beyond enumeration, so they are reported side by side
and never asserted.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvalidParameter, TooLarge
from .fourier import MoranSystem, mu_hat_modulus
from .numtheory import BaseContext, build_context, derived_stirling_constants

BLOCK_GUARD = 10**5


def frequency(h: int, b: int, n: int, m: int) -> int:
    """h * (b^n - b^m), exactly."""
    if n < 0 or m < 0:
        raise InvalidParameter(f"exponents must be >= 0, got n = {n}, m = {m}")
    return h * (b**n - b**m)


class _Neumaier:
    """Compensated accumulator: error <= ~2 ulp of the running absolute mass."""

    __slots__ = ("total", "comp", "abs_mass")

    def __init__(self) -> None:
        self.total = 0.0
        self.comp = 0.0
        self.abs_mass = 0.0

    def add(self, x: float) -> None:
        self.abs_mass += abs(x)
        t = self.total + x
        if abs(self.total) >= abs(x):
            self.comp += (self.total - t) + x
        else:
            self.comp += (x - t) + self.total
        self.total = t

    @property
    def value(self) -> float:
        return self.total + self.comp

    @property
    def slop(self) -> float:
        return 4.0 * 2.0**-53 * self.abs_mass


@dataclass(frozen=True)
class DelReport:
    """Certified partial-sum report: the true partial sum of the series up to
    N_max lies within radius of partial_sum."""

    N_max: int
    partial_sum: float
    radius: float
    increments: tuple[float, ...]
    diagonal_sum: float
    offdiagonal_sum: float
    block_sums: tuple[tuple[int, float], ...]

    def cumulative(self) -> tuple[float, ...]:
        out, acc = [], _Neumaier()
        for inc in self.increments:
            acc.add(inc)
            out.append(acc.value)
        return tuple(out)


def _modulus_table(
    sys: MoranSystem, b: int, h: int, N_max: int, eps_term: float
) -> dict[int, tuple[float, float]]:
    """Certified |mu_hat| for every |h(b^n - b^m)| with m, n < N_max, keyed by
    absolute frequency."""
    keys = {abs(frequency(h, b, n, m)) for m in range(N_max) for n in range(N_max)}
    return {xi: _modulus(xi, sys, eps_term) for xi in sorted(keys)}


def _modulus(xi: int, sys: MoranSystem, eps: float) -> tuple[float, float]:
    cert = mu_hat_modulus(xi, sys, eps)
    return cert.lo, cert.hi


def del_partial(
    sys: MoranSystem,
    b: int,
    h: int,
    N_max: int,
    eps: float,
) -> DelReport:
    """Certified partial sum of the criterion series up to N_max.

    Each modulus is certified to width eps/N_max^3 (down to the double-
    precision floor) and memoized by absolute frequency; terms are then summed
    in fixed (N, m, n) order with compensated accumulation, so the result is
    bit-identical from call to call. The reported radius is the exact
    weighted sum of interval half-widths plus the accumulation slop.
    """
    if N_max < 1:
        raise InvalidParameter(f"N_max must be >= 1, got {N_max}")
    if not 0.0 < eps <= 1.0:
        raise InvalidParameter(f"eps must lie in (0, 1], got {eps}")
    table = _modulus_table(sys, b, h, N_max, eps / N_max**3)

    increments: list[float] = []
    total = _Neumaier()
    rad = _Neumaier()
    diag = _Neumaier()
    off = _Neumaier()
    for N in range(1, N_max + 1):
        cube = float(N) ** 3
        inner = _Neumaier()
        inner_rad = _Neumaier()
        for m in range(N):
            for n in range(N):
                lo, hi = table[abs(frequency(h, b, n, m))]
                inner.add(0.5 * (lo + hi))
                inner_rad.add(0.5 * (hi - lo))
        inc = inner.value / cube
        increments.append(inc)
        total.add(inc)
        rad.add((inner_rad.value + inner_rad.slop + inner.slop) / cube)
        diag.add(N / cube)  # xi = 0 terms are exactly 1
        upper = _Neumaier()
        for m in range(N):
            for n in range(m + 1, N):
                lo, hi = table[abs(frequency(h, b, n, m))]
                upper.add(0.5 * (lo + hi))
        off.add(2.0 * upper.value / cube)

    blocks: list[tuple[int, float]] = []
    sch = sys.schedule
    for r in range(1, len(sch.q) + 1):
        lo_N, hi_N = sch.N[r - 1], sch.N[r]
        if lo_N >= N_max:
            break
        acc = _Neumaier()
        for N in range(lo_N + 1, min(hi_N, N_max) + 1):
            acc.add(increments[N - 1])
        blocks.append((r, acc.value))

    return DelReport(
        N_max=N_max,
        partial_sum=total.value,
        radius=rad.value + rad.slop + total.slop,
        increments=tuple(increments),
        diagonal_sum=diag.value,
        offdiagonal_sum=off.value,
        block_sums=tuple(blocks),
    )


# --------------------------------------------------------------------------
# block sums against the asymptotic bound


def asymptotic_constants(gamma: float) -> tuple[float, float]:
    """(A, B) = (max(C_tilde, 1), -max(ln 0.999, ln(gamma)/6))."""
    if not 0.0 < gamma < 1.0:
        raise InvalidParameter(f"gamma must lie in (0, 1), got {gamma}")
    _, c_tilde = derived_stirling_constants()
    A = max(float(c_tilde), 1.0)
    B = -max(math.log(0.999), math.log(gamma) / 6.0)
    return A, B


@dataclass(frozen=True)
class BlockRow:
    r: int
    m: int
    block_sum: float
    bound: float
    flag: str = "asymptotic-regime-only"


def _context_for(sys: MoranSystem, b: int, h: int, ctx: BaseContext | None) -> BaseContext:
    if ctx is not None:
        return ctx
    if not sys.is_binary:
        raise InvalidParameter("pass an explicit context for non-binary digit systems")
    omegas = sys.binary_omegas()
    return build_context(b, h, sys.schedule, weights=(min(omegas), max(omegas)))


def block_trend(
    sys: MoranSystem,
    b: int,
    h: int,
    r_range: Iterable[int],
    m_values: Sequence[int] = (0,),
    *,
    ctx: BaseContext | None = None,
    eps: float = 1e-9,
) -> tuple[BlockRow, ...]:
    """Per-block sums sum_{n=m+1}^{N_r - 1} |mu_hat(h(b^n - b^m))| next to the
    bound 2 A N_r e^(-B u_r), u_r = sum of free-suffix lengths of blocks
    r0+1 .. r.

    Every row is flagged: the bound's constants hold for r >= r1, far beyond
    any enumerable block, so the pairing is a trend diagnostic only.
    """
    context = _context_for(sys, b, h, ctx)
    A, B = asymptotic_constants(context.gamma)
    sch = sys.schedule
    rows: list[BlockRow] = []
    for r in r_range:
        if not 1 <= r <= len(sch.q):
            raise InvalidParameter(f"r = {r} outside 1 .. {len(sch.q)}")
        N_r = sch.N[r]
        if N_r > BLOCK_GUARD:
            raise TooLarge(f"N_{r} = {N_r} exceeds the enumeration guard {BLOCK_GUARD}")
        u_r = sum(context.j[i - 1] for i in range(context.r0 + 1, r + 1))
        bound = 2.0 * A * N_r * math.exp(-B * u_r)
        for m in m_values:
            if m < 0:
                raise InvalidParameter(f"m must be >= 0, got {m}")
            ns = range(m + 1, N_r)
            keys = sorted({abs(frequency(h, b, n, m)) for n in ns})
            table = {xi: _modulus(xi, sys, eps) for xi in keys}
            acc = _Neumaier()
            for n in ns:
                lo, hi = table[abs(frequency(h, b, n, m))]
                acc.add(0.5 * (lo + hi))
            rows.append(BlockRow(r=r, m=m, block_sum=acc.value, bound=bound))
    return tuple(rows)


# --------------------------------------------------------------------------
# CSV reports


def write_del_csv(path: str, report: DelReport) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["N", "increment", "cumulative", "radius"])
        for N, (inc, cum) in enumerate(zip(report.increments, report.cumulative()), start=1):
            out.writerow([N, repr(inc), repr(cum), repr(report.radius)])


def write_block_csv(path: str, rows: Sequence[BlockRow]) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["r", "m", "block_sum", "bound_with_derived_constants", "flag"])
        for row in rows:
            out.writerow([row.r, row.m, repr(row.block_sum), repr(row.bound), row.flag])
