"""Acceptance gate: thirteen numbered criteria, one test each.

Every test prints a single "criterion NN ...: PASS (elapsed)" line straight to
the terminal once its checks hold, and enforces its own wall-clock budget.
The headline results being asymptotic, the gate rests on exact verification
of the finite lemmas plus seeded statistical checks at desk scale.
"""

import math
import time
from fractions import Fraction

import pytest

from moranlab.delsum import del_partial
from moranlab.dimension import GaugeFunction, ball_measure, build_convolved, h_rate_report
from moranlab.distribution import (
    C_bound,
    check_peak_bound,
    classify_Bk,
    fiber_counts,
    verify_partition,
)
from moranlab.fourier import mu_hat_modulus
from moranlab.measure import normality_report, sample_batch, uniqueness_avoidance
from moranlab.numtheory import (
    Factorization,
    alpha_constant,
    build_context,
    integer_J,
    multiplicative_order,
    order_by_crt,
    order_mod_reduced,
    ord_ratio_check,
    prime_power_order,
)
from moranlab.radix import PrimeSchedule, build_schedule, to_digits
from moranlab.rng import value_at
from moranlab.system import binary_system

from oracles import brute_orders_vector, ln_bounds, mp_mu_hat

SEED = 20260816

# (q, ell, b, h) configurations spanning Q = 1 and Q > 1, b prime and
# composite, h != 1 (negative included). Every entry admits a full context:
# the largest prime factor of b and h is reached by the schedule and the tail
# blocks keep a positive free suffix.
MATRIX = (
    ((7, 11), (1, 2), 2, 1),  # reference: ord_847(2) = 330, J = 30
    ((7, 11), (1, 3), 3, 1),  # k(3,11) = 2 needs the longer block
    ((7, 11), (1, 2), 2, 2),
    ((7, 11), (1, 2), 14, 1),  # Q = 7
    ((7, 11), (2, 2), 14, 1),  # Q = 49, saturation at n0 = 2
    ((7, 11), (1, 2), 10, 6),
    ((7, 11), (2, 2), 2, 1),  # ord = 2310, J = 210
    ((7, 11, 13), (1, 2, 2), 2, 1),
    ((7, 11, 13), (1, 3, 3), 3, 2),
    ((7, 11, 13), (1, 2, 2), 10, 1),
    ((7, 11, 13), (1, 2, 3), 22, 1),  # Q = 121, r0 = 2
    ((7, 11), (1, 2), 7, 1),  # b equals the first prime
    ((7, 11), (1, 2), 2, -3),
    ((7, 11, 13, 17), (1, 2, 3, 4), 2, 1),
)

# keep exhaustive enumerations to intervals of at most this many points
ENUM_CAP = 100_000


def _contexts():
    for q, ell, b, h in MATRIX:
        sch = PrimeSchedule(d=1, q=q, ell=ell)
        yield sch, build_context(b, h, sch)


def _report(capsys, number: int, label: str, t0: float, limit: float) -> None:
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(f"criterion {number:02d} {label}: PASS ({elapsed:.1f}s, limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s, budget {limit:.0f}s"


def test_criterion_01_order_oracles(capsys):
    t0 = time.perf_counter()
    checked = 0
    for a in range(2, 51):
        brute = brute_orders_vector(a, 2000)
        for n, expected in brute.items():
            assert multiplicative_order(a, n) == expected, (a, n)
            fac = Factorization.of(n)
            assert order_by_crt(a, fac) == expected, (a, n)
            if len(fac.pairs) == 1 and fac.pairs[0][0] != 2:
                p, e = fac.pairs[0]
                assert prime_power_order(a, p, e) == expected, (a, n)
            checked += 1
    assert checked > 50_000
    _report(capsys, 1, "order oracle equivalence", t0, 30.0)


def test_criterion_02_order_recursion_and_integer_J(capsys):
    t0 = time.perf_counter()
    assert len(MATRIX) >= 12
    q_values = set()
    for sch, ctx in _contexts():
        q_values.add(ctx.Q)
        for s in range(ctx.r0, len(sch.q)):
            lhs, rhs = ord_ratio_check(ctx, s)
            assert lhs == rhs, (ctx.b, ctx.h, sch.q, s)
        for r in range(ctx.r0, len(sch.q) + 1):
            assert integer_J(ctx, r) >= 1
    assert any(Q > 1 for Q in q_values) and 1 in q_values
    _report(capsys, 2, "order recursion and J integrality", t0, 10.0)


def _matrix_certificates():
    """Partition certificates for every config at every in-budget depth."""
    out = []
    for sch, ctx in _contexts():
        for r in range(ctx.r0 + 1, len(sch.q) + 1):
            if order_mod_reduced(ctx, r, 0) > ENUM_CAP:
                continue
            cert = verify_partition(ctx.n0, ctx, r)
            out.append((ctx, r, cert))
    return out


def test_criterion_03_well_distributed_partition(capsys):
    t0 = time.perf_counter()
    certs = _matrix_certificates()
    assert len(certs) >= len(MATRIX)
    for ctx, r, cert in certs:
        assert cert.length == order_mod_reduced(ctx, r, 0)
        assert cert.J * cert.y_size == cert.length
        assert len(cert.classes) == cert.J
        if (ctx.b, ctx.h, ctx.schedule.q, ctx.schedule.ell, r) == (2, 1, (7, 11), (1, 2), 2):
            assert cert.length == 330 and cert.J == 30  # ord_847(2) = 330
    _report(capsys, 3, "well-distributed partition", t0, 60.0)


def test_criterion_04_fiber_counts(capsys):
    t0 = time.perf_counter()
    tables = 0
    for sch, ctx in _contexts():
        for s in range(ctx.r0, len(sch.q)):
            length = order_mod_reduced(ctx, s + 1, 0)
            if length > ENUM_CAP:
                continue
            tab = fiber_counts((ctx.n0, length), ctx, s)
            for j, size in tab.image_sizes:
                assert size == order_mod_reduced(ctx, s, j)
            counts = {count for _, count in tab.fibers}
            assert counts == {integer_J(ctx, s + 1)}
            tables += 1
    assert tables >= len(MATRIX)
    _report(capsys, 4, "fiber counts", t0, 60.0)


def test_criterion_05_digit_count_bound(capsys):
    t0 = time.perf_counter()
    histograms = 0
    for ctx, r, cert in _matrix_certificates():
        for labels in cert.classes:
            hist = classify_Bk(labels, ctx, r)
            u = len(hist) - 1
            for k, count in enumerate(hist):
                assert count <= C_bound(k, u, ctx, r)
            histograms += 1
    assert histograms > 100
    _report(capsys, 5, "digit-count bound", t0, 30.0)


def test_criterion_06_constants(capsys):
    t0 = time.perf_counter()
    alpha = alpha_constant()
    assert 0.9973 < alpha < 0.9980

    ctx = build_context(2, 1, PrimeSchedule(d=1, q=(7, 11), ell=(1, 2)))
    for u in range(1, 201):
        for k in range(u):
            increasing = C_bound(k, u, ctx, 2) < C_bound(k + 1, u, ctx, 2)
            assert increasing == (7 * k < 3 * u - 4), (u, k)

    lhs, rhs = check_peak_bound(6000)
    assert lhs <= rhs
    _report(capsys, 6, "constants alpha, crossover, peak bound", t0, 120.0)


def test_criterion_07_fourier_certification(capsys, medium_schedule, medium_system):
    t0 = time.perf_counter()
    N3 = medium_schedule.N[3]
    eta = build_convolved(medium_system, "dim-one")
    for i in range(1000):
        xi = value_at(SEED, i) % (N3 + 1)
        wide = mu_hat_modulus(xi, medium_system, 1e-6)
        tight = mu_hat_modulus(xi, medium_system, 1e-12)
        assert wide.hi - wide.lo <= 1e-6
        assert tight.hi - tight.lo <= 1e-12
        assert wide.lo - 1e-12 <= tight.lo <= tight.hi <= wide.hi + 1e-12
        # convolving can only shrink the transform modulus
        conv = mu_hat_modulus(xi, eta, 1e-6)
        assert conv.lo <= wide.hi

    # digit versus exact fractional part, both sides rational
    N7 = medium_schedule.N[len(medium_schedule.q)]
    for i in range(1000):
        N = (value_at(SEED, 4 * i) << 64 | value_at(SEED, 4 * i + 1)) % N7
        s = value_at(SEED, 4 * i + 2) % len(medium_schedule.q)
        k = value_at(SEED, 4 * i + 3) % medium_schedule.ell[s]
        q = medium_schedule.q[s]
        digit = to_digits(N, medium_schedule, medium_schedule.depth).digits[
            medium_schedule.L[s] + k
        ]
        D = medium_schedule.N[s] * q ** (k + 1)
        frac = Fraction(N % D, D)
        assert Fraction(digit, q) <= frac <= Fraction(digit + 1, q), (N, s, k)
    _report(capsys, 7, "Fourier certification", t0, 120.0)


def test_criterion_08_del_plumbing(capsys, medium_system):
    t0 = time.perf_counter()
    first = del_partial(medium_system, 2, 1, 1, 1e-9)
    assert first.partial_sum == 1.0  # the N = 1 term is the exact diagonal
    assert first.radius < 1e-12

    report = del_partial(medium_system, 2, 1, 50, 1e-9)
    assert report.radius <= 1e-12
    assert report.partial_sum == pytest.approx(2.723750835932849, abs=1e-12)
    assert report.partial_sum == pytest.approx(
        report.diagonal_sum + report.offdiagonal_sum, abs=1e-12
    )

    again = del_partial(medium_system, 2, 1, 50, 1e-9)
    assert again.partial_sum == report.partial_sum
    assert again.radius == report.radius
    assert again.increments == report.increments
    _report(capsys, 8, "DEL plumbing", t0, 120.0)


def test_criterion_09_uniqueness_avoidance(capsys, small_schedule, small_system, medium_schedule, medium_system):
    t0 = time.perf_counter()
    passed = 0
    for pt in sample_batch(small_system, SEED, small_schedule.depth, 1000):
        v = uniqueness_avoidance(pt.value, small_system, small_schedule.depth - 1)
        assert v.interval_lo == Fraction(2, 7)
        passed += v.passed
    assert passed == 1000

    conv = build_convolved(medium_system, "dim-one")
    j_max = len(conv.special_levels) - 1
    passed = 0
    for pt in sample_batch(conv, SEED, medium_schedule.depth, 1000):
        v = uniqueness_avoidance(pt.value, conv, j_max)
        assert v.interval_lo == Fraction(55, 78)
        passed += v.passed
    assert passed == 1000
    _report(capsys, 9, "uniqueness avoidance", t0, 60.0)


def test_criterion_10_normality_statistics(capsys):
    t0 = time.perf_counter()
    sch = build_schedule(d=2, count=45)
    sysm = binary_system(sch, Fraction(1, 2))
    hits = {2: 0, 3: 0, 10: 0}
    for pt in sample_batch(sysm, SEED, sch.depth, 64):
        for rep in normality_report(pt.value, bases=(2, 3, 10), guard=8):
            if rep.base == 2:
                assert rep.trusted_digit_count >= 5000
            hits[rep.base] += rep.max_deviation <= Fraction(1, 20)
    for base, count in hits.items():
        assert count >= math.ceil(0.95 * 64), (base, count)
    _report(capsys, 10, "normality statistics", t0, 300.0)


def test_criterion_11_mass_distribution(capsys, medium_schedule, medium_system):
    t0 = time.perf_counter()
    grid = [Fraction(1, medium_schedule.prefix_product(m)) for m in range(1, 21)]

    dim_one = build_convolved(medium_system, "dim-one")
    for pt in sample_batch(dim_one, SEED, medium_schedule.depth, 32):
        for r in grid:
            ball = ball_measure(pt.value, r, dim_one)
            assert ball * ball <= 64 * r  # ball <= 8 r^(1/2), squared exactly

    phi = GaugeFunction(kind="r_times_log_power", param=1.0)
    gauge = build_convolved(medium_system, "gauge", phi)
    for pt in sample_batch(gauge, SEED, medium_schedule.depth, 32):
        for r in grid:
            ball = ball_measure(pt.value, r, gauge)
            ln_lo, _ = ln_bounds(Fraction(r.denominator, r.numerator))
            assert ball <= 4 * r * ln_lo  # certified side of ball <= 4 r log(1/r)
    _report(capsys, 11, "mass distribution", t0, 120.0)


def test_criterion_12_h_rate_trend(capsys):
    t0 = time.perf_counter()
    sch = build_schedule(d=2, count=8)
    assert sch.depth > 30
    grid = [Fraction(1, sch.prefix_product(k)) for k in range(1, 31)]
    rows = h_rate_report(sch, grid)
    assert [row.h_r for row in rows] == list(range(1, 31))
    ratios = [row.ratio for row in rows]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    # the same strict decrease, exactly: k ln P_{k+1} > (k+1) ln P_k
    for k in range(1, 30):
        P_k, P_k1 = sch.prefix_product(k), sch.prefix_product(k + 1)
        assert P_k1**k > P_k ** (k + 1)
    _report(capsys, 12, "h(r) rate trend", t0, 10.0)


def test_criterion_13_no_decay_witness(capsys):
    # |mu^(P_N)| stays near 1 along the prefix products: the DEL criterion
    # holds for these measures, yet their transforms do not decay
    t0 = time.perf_counter()
    sch = build_schedule(d=2, count=14)
    assert sch.depth == 105
    binary = binary_system(sch, Fraction(1, 2))
    dim_one = build_convolved(binary, "dim-one")
    for sysm, floor, levels in ((binary, 0.95, (1, 5, 20, 60, 100)), (dim_one, 0.45, (5, 20, 60))):
        for N in levels:
            cert = mu_hat_modulus(sch.prefix_product(N), sysm, 1e-12)
            assert cert.hi - cert.lo <= 1e-12
            assert cert.lo >= floor, (N, cert)
            if N <= 5:
                true = mp_mu_hat(sch.prefix_product(N), sysm, dps=40)
                assert cert.lo <= true <= cert.hi, (N, cert, true)
    _report(capsys, 13, "no-decay witness", t0, 30.0)
