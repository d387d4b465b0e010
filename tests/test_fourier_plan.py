"""The transform's integer-residue kernel against its references.

`_level_mask` must reproduce `mask_interval` at the same rational argument
bit for bit, and `mu_hat_modulus` must bracket an independent 50-digit
mpmath product within eps.
"""

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranlab import (
    InvalidParameter,
    MoranSystem,
    PrimeSchedule,
    binary_system,
    build_convolved,
    build_schedule,
    mu_hat_modulus,
)
from moranlab import fourier
from moranlab.fourier import _binary_mask, _level_mask, _tail_log_bound, mask_interval

from oracles import level_mask_mu_hat, mp_mu_hat, reference_binary_mask


@lru_cache(maxsize=None)
def _medium() -> PrimeSchedule:
    return build_schedule(d=2, count=7)


@lru_cache(maxsize=None)
def _system(kind: str, k: int) -> MoranSystem:
    """Binary systems with weights near 0, 1/2 and 1, and non-binary ones."""
    sch = _medium()
    if kind == "near0":
        return binary_system(sch, Fraction(1, 10**k))
    if kind == "near1":
        return binary_system(sch, 1 - Fraction(1, 10**k))
    if kind == "half":
        return binary_system(sch, Fraction(1, 2))
    if kind == "mixed":
        # binary levels with distinct weights per level
        omegas = [Fraction(n, 2 * n + k) for n in range(1, sch.depth + 1)]
        return MoranSystem(sch, ((0, 1),) * sch.depth, tuple((o, 1 - o) for o in omegas))
    if kind == "dim-one":
        return build_convolved(binary_system(sch, Fraction(1, 2)), "dim-one")
    if kind == "wide":
        # {0, 1, 2} digits with 1/2 in the middle: {0,1} with skewed weights
        # convolved with uniform {0, 1}
        w = (Fraction(1, k + 2), Fraction(1, 2), Fraction(1, 2) - Fraction(1, k + 2))
        return MoranSystem(sch, ((0, 1, 2),) * sch.depth, (w,) * sch.depth)
    raise AssertionError(kind)


SYSTEMS = st.tuples(
    st.sampled_from(["near0", "near1", "half", "mixed", "dim-one", "wide"]),
    st.integers(1, 12),
).map(lambda kk: _system(*kk))


@st.composite
def residues(draw):
    """(r, P) with 0 <= r < P and P odd, as every prefix product is: prefix
    products and arbitrary odd moduli, with r at 0, 1, P - 1, floor(P/2)
    and near it."""
    sysm = draw(SYSTEMS)
    n = draw(st.integers(1, sysm.depth))
    if draw(st.booleans()):
        P = sysm.schedule.prefix_products()[draw(st.integers(0, sysm.depth - 1))]
    else:
        P = 2 * draw(st.integers(1, 5 * 10**39)) + 1
    half = P // 2
    r = draw(
        st.one_of(
            st.sampled_from([0, 1, P - 1, half]),
            st.integers(-3, 3).map(lambda k: min(P - 1, max(0, half + k))),
            st.integers(0, P - 1),
        )
    )
    return sysm, n, r, P


@settings(max_examples=400, deadline=None)
@given(residues())
def test_level_kernel_matches_mask_interval(case):
    sysm, n, r, P = case
    expected = mask_interval(n, Fraction(r, P), sysm)
    assert _level_mask(sysm._levels[n - 1], r, P) == expected


@pytest.mark.parametrize("P", [2, 10, 2 * 7 * 11 * 13])
def test_mask_interval_exact_half(P):
    # t = 1/2 after reduction mod 1 takes the exact-cosine path on {0,1}
    # levels: |M(1/2)| = |w0 - w1|, enclosed within an ulp or two
    for kind in ("near0", "near1", "half", "mixed"):
        sysm = _system(kind, 3)
        for n in (1, sysm.depth):
            w0, w1 = sysm.weights[n - 1]
            lo, hi = mask_interval(n, Fraction(P // 2 + 5 * P, P), sysm)
            assert (lo, hi) == mask_interval(n, Fraction(1, 2), sysm)
            assert Fraction(lo) <= abs(w0 - w1) <= Fraction(hi)
            assert hi - lo <= 4 * math.ulp(max(hi, 2.0**-1022))


def test_prefix_products_are_odd():
    # schedule primes are >= 7, so no transform level sees t = 1/2 and
    # _level_mask needs no exact-half path
    schedules = [build_schedule(d=d, count=c) for d in (1, 2, 3) for c in (1, 5, 12)]
    schedules += [build_schedule(d=1, count=6, variant="cube-window", offset=k) for k in (1, 4)]
    schedules += [PrimeSchedule(d=2, q=(7, 11, 13), ell=(2, 1, 5))]
    schedules += [PrimeSchedule(d=1, q=q, ell=(1,) * len(q)) for q in ((7,), (7, 11), (11, 101, 103))]
    for sch in schedules:
        assert sch.q[0] >= 7
        for P in sch.prefix_products():
            assert P % 2 == 1
    with pytest.raises(InvalidParameter):
        PrimeSchedule(d=1, q=(2, 7), ell=(1, 1))


def _reference_mu_hat(xi: int, sysm: MoranSystem, eps: float) -> tuple[float, float, int]:
    """The transform loop on reduced Fraction arguments through mask_interval."""
    f_lo, f_hi, P = 1.0, 1.0, 1
    for n in range(1, sysm.depth + 1):
        P *= sysm.schedule.base_at(n)
        t = Fraction(xi % P, P)
        m_lo, m_hi = mask_interval(n, t, sysm)
        f_lo = max(0.0, math.nextafter(f_lo * m_lo, -math.inf))
        f_hi = min(1.0, math.nextafter(f_hi * m_hi, math.inf))
        if xi < P:
            y = _tail_log_bound(float(t), sysm.is_binary)
            if y <= eps / 2.0:
                e_lo = math.nextafter(math.nextafter(math.exp(-y), 0.0), 0.0)
                return max(0.0, math.nextafter(f_lo * e_lo, -math.inf)), f_hi, n
    raise AssertionError("schedule exhausted")


EPS = st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12])
FREQUENCIES = st.one_of(
    st.integers(1, 10**4),
    st.integers(1, 10**12),
    st.integers(1, 10**20),
)


@settings(max_examples=150, deadline=None)
@given(SYSTEMS, FREQUENCIES, EPS)
def test_mu_hat_matches_fraction_reference(sysm, xi, eps):
    cert = mu_hat_modulus(xi, sysm, eps)
    assert (cert.lo, cert.hi, cert.truncation_level) == _reference_mu_hat(xi, sysm, eps)


@settings(max_examples=150, deadline=None)
@given(SYSTEMS, FREQUENCIES, EPS)
def test_mu_hat_brackets_mpmath_oracle(sysm, xi, eps):
    cert = mu_hat_modulus(xi, sysm, eps)
    true = mp_mu_hat(xi, sysm, dps=50)
    assert mpmath.mpf(cert.lo) <= true <= mpmath.mpf(cert.hi)
    assert cert.hi - cert.lo <= eps


def test_mu_hat_brackets_mpmath_oracle_at_deep_frequencies():
    # frequencies with dozens of non-trivial levels before the cut
    sysm = _system("half", 1)
    P = sysm.schedule.prefix_products()
    for xi in (P[19] - 1, P[19] // 2, P[15] * 7 + 3, 3**40):
        cert = mu_hat_modulus(xi, sysm, 1e-9)
        true = mp_mu_hat(xi, sysm, dps=50)
        assert mpmath.mpf(cert.lo) <= true <= mpmath.mpf(cert.hi)
        assert cert.hi - cert.lo <= 1e-9


def test_plan_stays_out_of_equality_and_hash():
    a = binary_system(_medium(), Fraction(1, 3))
    b = binary_system(_medium(), Fraction(1, 3))
    before = hash(a)
    mu_hat_modulus(12345, a, 1e-9)
    assert "_levels" in vars(a) and "_levels" not in vars(b)
    assert a == b and hash(a) == hash(b) == before
    assert "_levels" not in repr(a)


@st.composite
def near_one_residues(draw):
    """(r, P) with P >= 2^60 and r in {P - 1, P - 2, P - floor(P / 2^60)}:
    reduced arguments within about 2^-60 of 1."""
    sysm = draw(SYSTEMS)
    n = draw(st.integers(1, sysm.depth))
    deep = [P for P in sysm.schedule.prefix_products() if P >= 2**60]
    P = draw(st.one_of(st.sampled_from(deep), st.integers(2**60, 2**200)))
    r = P - draw(st.sampled_from([1, 2, P >> 60]))
    return sysm, n, r, P


@settings(max_examples=300, deadline=None)
@given(near_one_residues())
def test_level_kernel_matches_mask_interval_near_one(case):
    sysm, n, r, P = case
    expected = mask_interval(n, Fraction(r, P), sysm)
    assert _level_mask(sysm._levels[n - 1], r, P) == expected


@pytest.mark.parametrize("kind", ["near0", "near1", "half", "mixed", "dim-one", "wide"])
def test_mu_hat_brackets_mpmath_oracle_near_one(kind):
    # xi = P_N - s leaves the argument r / P_N within about 2^-60 of 1 at level
    # N; levels deeper than depth - 5 leave too little schedule for the tail
    sysm = _system(kind, 2)
    for P in sysm.schedule.prefix_products()[: sysm.depth - 5]:
        if P < 2**60:
            continue
        for xi in (P - 1, P - 2, P - (P >> 60)):
            for eps in (1e-6, 1e-12):
                cert = mu_hat_modulus(xi, sysm, eps)
                assert (cert.lo, cert.hi, cert.truncation_level) == _reference_mu_hat(
                    xi, sysm, eps
                )
                true = mp_mu_hat(xi, sysm, dps=50)
                assert mpmath.mpf(cert.lo) <= true <= mpmath.mpf(cert.hi)
                assert cert.hi - cert.lo <= eps


# --------------------------------------------------------------------------
# the flat {0,1} kernel against the interval-helper composition


def _enclosure(g: float) -> tuple[float, float]:
    return math.nextafter(g, -math.inf), math.nextafter(g, math.inf)


# cos(2 pi t) + 2^-48 rounds to 1 (and cos - 2^-48 to -1 near t = 1/2) for
# |t| below about 2.6e-8
_CLAMP = 2.6e-8

GAINS = st.one_of(
    st.sampled_from([5e-324, 2.0**-1074 * 3, 1e-300, 2.0**-53, 0.25, 0.5]).map(_enclosure),
    st.floats(5e-324, 0.5).map(_enclosure),
    st.floats(0.5 - 2.0**-40, 0.5).map(_enclosure),
    st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)).map(sorted).map(tuple),
)
ARGUMENTS = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(5e-324, 1e-6),
    st.floats(0.0, _CLAMP),
    st.floats(-_CLAMP, _CLAMP).map(lambda d: 0.5 + d),
    st.floats(1.0 - 1e-6, 1.0, exclude_max=True),
    st.sampled_from([5e-324, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)]),
    st.sampled_from([math.nextafter(1.0, 0.0), 1.0 - 2.0**-52, _CLAMP, 0.25, 0.75]),
)


@settings(max_examples=800, deadline=None)
@given(GAINS, ARGUMENTS)
def test_binary_kernel_matches_interval_composition(gain, t):
    # repr, not ==, so that a sign of zero counts too
    assert repr(_binary_mask(gain, t)) == repr(reference_binary_mask(gain, t))


def test_binary_kernel_keeps_the_tiny_negative_width():
    # near t = 0 the cosine clamps to 1, so 1 - c_hi rounds down to -5e-324
    # and the gain products straddle zero; hi clamps to 1, lo stays below it
    for gain in (_enclosure(0.5), _enclosure(5e-324), _enclosure(0.25)):
        for t in (5e-324, 1e-20, 1e-9):
            got = _binary_mask(gain, t)
            assert repr(got) == repr(reference_binary_mask(gain, t))
            assert got[1] == 1.0 and got[0] < 1.0


MU_SYSTEMS = st.tuples(
    st.sampled_from(["near0", "near1", "half", "mixed", "dim-one"]),
    st.integers(1, 12),
).map(lambda kk: _system(*kk))


@settings(max_examples=200, deadline=None)
@given(MU_SYSTEMS, FREQUENCIES, EPS)
def test_mu_hat_matches_level_mask_loop(sysm, xi, eps):
    cert = mu_hat_modulus(xi, sysm, eps)
    got = (cert.lo, cert.hi, cert.truncation_level)
    assert repr(got) == repr(level_mask_mu_hat(xi, sysm, eps))


@pytest.mark.parametrize("kind", ["near0", "half", "mixed", "dim-one"])
def test_mu_hat_matches_level_mask_loop_at_structured_frequencies(kind):
    # h (b^n - b^m), the frequencies of the criterion series, and residues
    # next to P/2 and at P - 1 of the (odd) prefix products
    sysm = _system(kind, 3)
    P = sysm.schedule.prefix_products()
    xis = [
        h * (b**n - b**m)
        for b in (2, 3, 10)
        for h in (1, -3)
        for m in (0, 2)
        for n in (5, 17, 24)
    ]
    xis += [P[k] // 2 for k in (1, 9, 19)] + [P[k] - 1 for k in (0, 9, 19)]
    xis += [P[9] * 3 + P[9] // 2]
    for xi in xis:
        for eps in (1e-6, 1e-9, 1e-12):
            cert = mu_hat_modulus(xi, sysm, eps)
            got = (cert.lo, cert.hi, cert.truncation_level)
            assert repr(got) == repr(level_mask_mu_hat(xi, sysm, eps))


# --------------------------------------------------------------------------
# each branch of the fused {0,1} loop in mu_hat_modulus against the loop with
# every level through _level_mask


def _branch_calls(monkeypatch, xi, sysm, eps):
    """(certificate triple, kernel calls, _level_mask calls) of one transform."""
    calls = {"kernel": 0, "level": 0}

    def kernel(gain, t):
        calls["kernel"] += 1
        return _binary_mask(gain, t)

    def level(lvl, r, P):
        calls["level"] += 1
        return _level_mask(lvl, r, P)

    with monkeypatch.context() as m:
        m.setattr(fourier, "_binary_mask", kernel)
        m.setattr(fourier, "_level_mask", level)
        cert = mu_hat_modulus(xi, sysm, eps)
    return (cert.lo, cert.hi, cert.truncation_level), calls["kernel"], calls["level"]


def _assert_matches_loop(got, xi, sysm, eps):
    assert repr(got) == repr(level_mask_mu_hat(xi, sysm, eps))


def test_fused_loop_fast_path(monkeypatch):
    # shallow frequencies off r = 0 stay inline on every level
    sysm = _system("half", 1)
    for xi in (1, 1000, 123456789, 10**12 + 7, 3**25):
        for eps in (1e-6, 1e-12):
            got, kernel, level = _branch_calls(monkeypatch, xi, sysm, eps)
            assert kernel == 0 and level == 0
            _assert_matches_loop(got, xi, sysm, eps)


@pytest.mark.parametrize(
    "which, eps, clamped",
    [("P21-1", 1e-12, 14), ("one", 1e-100, 31)],
)
def test_fused_loop_clamped_cosine(monkeypatch, which, eps, clamped):
    # c + 2^-48 rounds to 1 where r / P lies within about 2.6e-8 of 0 or 1;
    # those levels fall back to _level_mask, which calls _binary_mask
    sysm = binary_system(build_schedule(d=2, count=10), Fraction(1, 2))
    xi = sysm.schedule.prefix_products()[20] - 1 if which == "P21-1" else 1
    got, kernel, level = _branch_calls(monkeypatch, xi, sysm, eps)
    assert kernel == clamped and level == clamped
    _assert_matches_loop(got, xi, sysm, eps)


@pytest.mark.parametrize(
    "omega, gain",
    [(Fraction(1, 10**400), (-5e-324, 5e-324)), (Fraction(1, 2**1075), (0.0, 1e-323))],
)
def test_fused_loop_zero_lower_gain(monkeypatch, omega, gain):
    # 2 w0 w1 rounds to 0 or to 5e-324, whose outward enclosure starts at or
    # below 0: g_lo <= 0 sends every level to _level_mask, which calls
    # _binary_mask on each level off r = 0 (847 = P_3 has r = 0 on three)
    sysm = binary_system(_medium(), omega)
    assert sysm._levels[0].gain == gain
    P = sysm.schedule.prefix_products()
    for xi in (1, 847, 10**12 + 7):
        got, kernel, level = _branch_calls(monkeypatch, xi, sysm, 1e-9)
        assert level == got[2]
        assert kernel == sum(1 for n in range(got[2]) if xi % P[n])
        _assert_matches_loop(got, xi, sysm, 1e-9)


def test_fused_loop_zero_residue(monkeypatch):
    # xi = k P_n has r = 0 on its first n levels, which go through _level_mask
    sysm = _system("mixed", 3)
    P = sysm.schedule.prefix_products()
    for n in (1, 4, 9):
        xi = 5 * P[n - 1]
        got, kernel, level = _branch_calls(monkeypatch, xi, sysm, 1e-9)
        assert level == n and kernel == 0
        _assert_matches_loop(got, xi, sysm, 1e-9)


@pytest.mark.parametrize("every", [2, 3, 5])
def test_fused_loop_mixed_binary_and_wide_levels(monkeypatch, every):
    # {0,1} levels stay inline; every `every`-th level carries the dim-one
    # sum set of its base instead and takes _level_mask, which runs the
    # {0,1} kernel once for its binary factor
    sch = _medium()
    wide = build_convolved(binary_system(sch, Fraction(1, 2)), "dim-one")
    half = (Fraction(1, 2), Fraction(1, 2))
    sysm = MoranSystem(
        sch,
        tuple(wide.digit_sets[n] if n % every == 0 else (0, 1) for n in range(sch.depth)),
        tuple(wide.weights[n] if n % every == 0 else half for n in range(sch.depth)),
    )
    assert not sysm.is_binary
    for xi in (1, 1000, 123456789, 10**12 + 7, 2**60 - 2**7):
        for eps in (1e-6, 1e-12):
            got, kernel, level = _branch_calls(monkeypatch, xi, sysm, eps)
            assert kernel == level and 0 < level < got[2]
            _assert_matches_loop(got, xi, sysm, eps)
