"""Partial sums of the normality criterion series and their block structure.

The series is S = sum_N (1/N^3) sum_{m,n < N} |mu_hat(h(b^n - b^m))|; its
convergence for every (b, h) is the criterion's hypothesis, a statement about
infinity. At desk scale this module computes certified partial sums,
per-N increments, the diagonal/off-diagonal decomposition, and per-block sums
paired with the asymptotic bound 2 A N_r e^(-B u_r) evaluated at the derived
constants. The bound rows are diagnostics: the constants are only valid in a
regime (r >= r1) far beyond enumeration, so they are reported side by side
and never asserted.

Every sum of terms is math.fsum (Shewchuk 1997): the exact sum of the
doubles, rounded once, so each value is independent of summation order and
equals the rounding of the exact rational sum.
"""

from __future__ import annotations

import csv
import math
from functools import reduce
from itertools import chain
from operator import add
from typing import Iterable, Sequence

# numtheory as a module, not names: its body runs only when a block report
# or a context needs it, so del_partial alone never loads it
from . import numtheory
from ._record import Record
from .errors import InvalidParameter, TooLarge
from .fourier import _moduli, check_eps
from .radix import check_pair
from .system import MoranSystem

BLOCK_GUARD = 10**5


def frequency(h: int, b: int, n: int, m: int) -> int:
    """h * (b^n - b^m), exactly."""
    for name, value in (("h", h), ("b", b), ("n", n), ("m", m)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidParameter(f"{name} must be an integer, got {value!r}")
    if n < 0 or m < 0:
        raise InvalidParameter(f"exponents must be >= 0, got n = {n}, m = {m}")
    return h * (b**n - b**m)


def _sum_and_slop(xs: Iterable[float]) -> tuple[float, float]:
    """(math.fsum(xs), 4 * 2^-53 * m), m the left-to-right float sum of xs.

    The terms are finite and non-negative (midpoints and half-widths in
    [0, 1], increments and radii >= 0), so fsum is the correctly rounded
    exact sum and the slop is the radius term each caller adds. The mass is
    a plain reduce, not sum(), which is compensated from Python 3.12 on and
    would move the radius bits with the interpreter.
    """
    xs = list(xs)
    return math.fsum(xs), 4.0 * 2.0**-53 * reduce(add, xs, 0.0)


class DelReport(Record):
    """Certified partial-sum report: the true partial sum of the series up to
    N_max lies within radius of partial_sum."""

    _fields = (
        "N_max", "partial_sum", "radius", "increments", "diagonal_sum", "offdiagonal_sum",
        "block_sums",
    )

    def cumulative(self) -> tuple[float, ...]:
        # the correctly rounded sum of each prefix of the increments
        incs = self.increments
        return tuple(math.fsum(incs[:k]) for k in range(1, len(incs) + 1))


def _modulus_table(
    sys: MoranSystem, xis: Iterable[int], eps: float
) -> dict[int, tuple[float, float]]:
    """Certified (lo, hi) of |mu_hat| for every distinct absolute frequency in
    xis, evaluated in increasing order by one batch of the transform kernel."""
    distinct = sorted(set(xis))
    return {xi: (lo, hi) for xi, (lo, hi, _, _) in zip(distinct, _moduli(distinct, sys, eps))}


def del_partial(
    sys: MoranSystem,
    b: int,
    h: int,
    N_max: int,
    eps: float,
) -> DelReport:
    """Certified partial sum of the criterion series up to N_max.

    Each modulus is certified to width eps/N_max^3 (down to the double-
    precision floor) and memoized by absolute frequency. Every sum is
    math.fsum, the correctly rounded exact sum, so no value depends on the
    summation order. The reported radius is the weighted sum of interval
    half-widths plus a slop of 4 * 2^-53 times each summed mass.
    """
    check_pair(b, h)
    if isinstance(N_max, bool) or not isinstance(N_max, int) or N_max < 1:
        raise InvalidParameter(f"N_max must be an integer >= 1, got {N_max!r}")
    check_eps(eps)
    # the grid holds N_max^2 frequencies; checked before anything is built
    if N_max**2 > BLOCK_GUARD:
        raise TooLarge(f"N_max^2 = {N_max**2} exceeds the enumeration guard {BLOCK_GUARD}")
    powers = [b**k for k in range(N_max)]
    grid = [[abs(h * (bn - bm)) for bn in powers] for bm in powers]
    table = _modulus_table(sys, (xi for row in grid for xi in row), eps / N_max**3)
    cells = [[table[xi] for xi in row] for row in grid]
    mid = [[0.5 * (lo + hi) for lo, hi in row] for row in cells]
    half = [[0.5 * (hi - lo) for lo, hi in row] for row in cells]

    increments: list[float] = []
    radii: list[float] = []
    diag: list[float] = []
    off: list[float] = []
    for N in range(1, N_max + 1):
        cube = float(N) ** 3
        inner, inner_slop = _sum_and_slop(chain.from_iterable(row[:N] for row in mid[:N]))
        inner_rad, rad_slop = _sum_and_slop(chain.from_iterable(row[:N] for row in half[:N]))
        increments.append(inner / cube)
        radii.append((inner_rad + rad_slop + inner_slop) / cube)
        diag.append(N / cube)  # xi = 0 terms are exactly 1
        upper = math.fsum(chain.from_iterable(mid[m][m + 1 : N] for m in range(N)))
        off.append(2.0 * upper / cube)

    blocks: list[tuple[int, float]] = []
    sch = sys.schedule
    for r in range(1, len(sch.q) + 1):
        if sch.N[r - 1] >= N_max:
            break
        blocks.append((r, math.fsum(increments[sch.N[r - 1] : sch.N[r]])))

    partial_sum, total_slop = _sum_and_slop(increments)
    radius, radius_slop = _sum_and_slop(radii)
    return DelReport(
        N_max=N_max,
        partial_sum=partial_sum,
        radius=radius + radius_slop + total_slop,
        increments=tuple(increments),
        diagonal_sum=math.fsum(diag),
        offdiagonal_sum=math.fsum(off),
        block_sums=tuple(blocks),
    )


# --------------------------------------------------------------------------
# block sums against the asymptotic bound


def asymptotic_constants(gamma: float) -> tuple[float, float]:
    """(A, B) = (max(C_tilde, 1), -max(ln 0.999, ln(gamma)/6))."""
    if not 0.0 < gamma < 1.0:
        raise InvalidParameter(f"gamma must lie in (0, 1), got {gamma}")
    _, c_tilde = numtheory.derived_stirling_constants()
    A = max(float(c_tilde), 1.0)
    B = -max(math.log(0.999), math.log(gamma) / 6.0)
    return A, B


class BlockRow(Record):
    _fields = ("r", "m", "block_sum", "bound", "flag")
    _defaults = {"flag": "asymptotic-regime-only"}


def block_trend(
    sys: MoranSystem,
    b: int,
    h: int,
    r_range: Iterable[int],
    m_values: Sequence[int] = (0,),
    *,
    eps: float = 1e-9,
) -> tuple[BlockRow, ...]:
    """Per-block sums sum_{n=m+1}^{N_r - 1} |mu_hat(h(b^n - b^m))| next to the
    bound 2 A N_r e^(-B u_r), u_r = sum of free-suffix lengths of blocks
    r0+1 .. r.

    Every row is flagged: the bound's constants hold for r >= r1, far beyond
    any enumerable block, so the pairing is a trend diagnostic only. The
    context (orders, gamma, free-suffix lengths) is built from the system's
    own schedule and {0,1} weights, so only binary systems have one. eps,
    each r with its block's guard and each m are checked before the context
    is built, whatever the size of the ranges.
    """
    if not sys.is_binary:
        raise InvalidParameter("block trends are defined for binary digit systems only")
    check_eps(eps)
    sch, omegas = sys.schedule, sys.binary_omegas()
    r_range, m_values = list(r_range), list(m_values)
    for r in r_range:
        if isinstance(r, bool) or not isinstance(r, int) or not 1 <= r <= len(sch.q):
            raise InvalidParameter(f"r = {r!r} outside 1 .. {len(sch.q)}")
        if sch.N[r] > BLOCK_GUARD:
            raise TooLarge(f"N_{r} = {sch.N[r]} exceeds the enumeration guard {BLOCK_GUARD}")
    for m in m_values:
        if isinstance(m, bool) or not isinstance(m, int) or m < 0:
            raise InvalidParameter(f"m must be an integer >= 0, got {m!r}")
    context = numtheory.build_context(b, h, sch, weights=(min(omegas), max(omegas)))
    A, B = asymptotic_constants(context.gamma)
    rows: list[BlockRow] = []
    for r in r_range:
        N_r = sch.N[r]
        u_r = sum(context.j[i - 1] for i in range(context.r0 + 1, r + 1))
        bound = 2.0 * A * N_r * math.exp(-B * u_r)
        for m in m_values:
            xis = [abs(frequency(h, b, n, m)) for n in range(m + 1, N_r)]
            table = _modulus_table(sys, xis, eps)
            block_sum = math.fsum(0.5 * (lo + hi) for lo, hi in map(table.__getitem__, xis))
            rows.append(BlockRow(r=r, m=m, block_sum=block_sum, bound=bound))
    return tuple(rows)


# --------------------------------------------------------------------------
# CSV reports


# each _*_table gives the CSV rows of its writer, header first


def _del_table(report: DelReport) -> list:
    rows: list = [["N", "increment", "cumulative", "radius"]]
    for N, (inc, cum) in enumerate(zip(report.increments, report.cumulative()), start=1):
        rows.append([N, repr(inc), repr(cum), repr(report.radius)])
    return rows


def write_del_csv(path: str, report: DelReport) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(_del_table(report))


def _block_table(rows: Sequence[BlockRow]) -> list:
    out: list = [["r", "m", "block_sum", "bound_with_derived_constants", "flag"]]
    for row in rows:
        out.append([row.r, row.m, repr(row.block_sum), repr(row.bound), row.flag])
    return out


def write_block_csv(path: str, rows: Sequence[BlockRow]) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(_block_table(rows))
