"""The transform loop's precomputed tail cut and per-system level tables.

`_tail_cut(budget, binary)` is the largest double at which the tail bound
still fits the budget, so `mu_hat_modulus` evaluates the bound once per
certified frequency. The loop reads its levels from
`MoranSystem._transform_levels` and `digit_decay_bound` its windows from
`MoranSystem._decay_windows`; both must reproduce the per-level loops they
replace, bit for bit. The window bound `MoranSystem._window_gamma` is proven
for both level kinds and must bound a 40-digit `Fraction` grid; a system with
a level of neither kind is refused, and the bound is computed once.
"""

import json
import math
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath
import pytest

from moranlab import (
    GaugeFunction,
    InvalidParameter,
    MoranSystem,
    PrimeSchedule,
    binary_system,
    build_convolved,
    build_schedule,
    del_partial,
    digit_decay_bound,
    frequency,
    mu_hat_modulus,
)
from moranlab import fourier
from moranlab.fourier import _tail_cut, _tail_log_bound
from moranlab.radix import check_pair

from oracles import level_mask_mu_hat, mp_window_sup, reference_digit_decay_bound

DEEP_CONFIG = Path(__file__).resolve().parent.parent / "bench" / "configs" / "spectrum_deep.json"

EPS_RANGE = tuple(10.0**-k for k in range(6, 16))


# --------------------------------------------------------------------------
# the tail cut


def _budgets() -> list[float]:
    """Budgets from 5e-324 to 10: powers of two and random mantissas at every
    binary exponent, random decades, the eps / 2 of eps 10^-k and the DEL
    budgets 1e-9 / 2 / N^3 for N up to 256."""
    rnd = random.Random(20261018)
    out = [5e-324, 1e-323, 2.5e-323, 10.0, math.nextafter(10.0, 0.0)]
    for k in range(-1074, 4):
        out.append(math.ldexp(1.0, k))
        out.append(math.ldexp(1.0 + rnd.random(), k))
    out += [10.0 ** rnd.uniform(-323.0, 1.0) for _ in range(1000)]
    out += [10.0**-k / 2.0 for k in range(1, 17)]
    out += [1e-9 / 2.0 / N**3 for N in range(1, 257)]
    return sorted({b for b in out if 5e-324 <= b <= 10.0})


BUDGETS = _budgets()


@pytest.mark.parametrize("binary", [True, False])
def test_tail_cut_is_the_threshold(binary):
    # the bound fits at the cut and exceeds the budget one double above it
    assert len(BUDGETS) >= 3000
    for budget in BUDGETS:
        t = _tail_cut(budget, binary)
        if t == -math.inf:
            assert budget < _tail_log_bound(0.0, binary), budget
        elif t == math.inf:
            assert _tail_log_bound(1.7976931348623157e308, binary) <= budget, budget
        else:
            assert 0.0 <= t < math.inf
            assert _tail_log_bound(t, binary) <= budget, (budget, t)
            assert budget < _tail_log_bound(math.nextafter(t, math.inf), binary), (budget, t)


def test_tail_cut_sentinels():
    # a zero budget fits nowhere (the bound is at least 5e-324); the smallest
    # positive budget already fits at t = 0
    for binary in (True, False):
        assert _tail_cut(0.0, binary) == -math.inf
        assert _tail_cut(5e-324, binary) >= 0.0
        assert _tail_cut(math.inf, binary) == math.inf


def test_tail_cut_is_cached_per_budget_and_kind():
    assert _tail_cut(1e-9 / 2.0, True) is _tail_cut(1e-9 / 2.0, True)
    assert _tail_cut(1e-9 / 2.0, True) > _tail_cut(1e-9 / 2.0, False)


def _counted_tail_calls(monkeypatch, cases):
    """(certificates, _tail_log_bound calls) of mu_hat_modulus over
    (xi, system, eps) cases, with every cut computed beforehand."""
    for _, sysm, eps in cases:
        _tail_cut(eps / 2.0, sysm.is_binary)
    calls = []

    def counted(t, binary):
        calls.append(t)
        return _tail_log_bound(t, binary)

    with monkeypatch.context() as m:
        m.setattr(fourier, "_tail_log_bound", counted)
        certs = [mu_hat_modulus(xi, sysm, eps) for xi, sysm, eps in cases]
    return certs, len(calls)


def test_one_tail_bound_per_certified_frequency(monkeypatch):
    cases = [
        (xi, sysm, eps)
        for sysm in (_system("half"), _system("mixed"), _system("wide"), _deep())
        for xi in _structured(sysm)
        for eps in (1e-6, 1e-12)
    ]
    certs, calls = _counted_tail_calls(monkeypatch, cases)
    assert calls == len(cases)
    assert all(c.truncation_level > 0 for c in certs)


def test_an_over_large_cut_only_costs_calls(monkeypatch):
    # the bound's own comparison with eps / 2 decides the cut level, so a cut
    # at +inf evaluates the bound at every level past xi < P_n and changes
    # nothing else
    sysm = _system("half")
    cases = [(xi, sysm, eps) for xi in _structured(sysm) for eps in (1e-6, 1e-12)]
    exact, exact_calls = _counted_tail_calls(monkeypatch, cases)
    monkeypatch.setattr(fourier, "_tail_cut", lambda budget, binary: math.inf)
    loose, loose_calls = _counted_tail_calls(monkeypatch, cases)
    assert repr(loose) == repr(exact)
    assert loose_calls > exact_calls == len(cases)


# --------------------------------------------------------------------------
# the level table against the loop with every level through _level_mask


@lru_cache(maxsize=None)
def _medium() -> PrimeSchedule:
    return build_schedule(d=2, count=7)


@lru_cache(maxsize=None)
def _deep() -> MoranSystem:
    # the schedule of the spectrum_deep and orbit_del benchmark configs
    return binary_system(build_schedule(d=2, count=14), Fraction(1, 2))


@lru_cache(maxsize=None)
def _system(kind: str) -> MoranSystem:
    sch = _medium()
    if kind == "half":
        return binary_system(sch, Fraction(1, 2))
    if kind == "tenth":
        return binary_system(sch, Fraction(1, 10))
    if kind == "mixed":
        omegas = [Fraction(n, 2 * n + 3) for n in range(1, sch.depth + 1)]
        return MoranSystem(sch, ((0, 1),) * sch.depth, tuple((o, 1 - o) for o in omegas))
    if kind == "dim-one":
        return build_convolved(binary_system(sch, Fraction(1, 2)), "dim-one")
    if kind == "wide":
        # {0,1} weighted (2/5, 3/5) convolved with uniform {0, 1}
        w = (Fraction(1, 5), Fraction(1, 2), Fraction(3, 10))
        return MoranSystem(sch, ((0, 1, 2),) * sch.depth, (w,) * sch.depth)
    if kind == "clamped":
        # the clamped-cosine system of test_fourier_plan
        return binary_system(build_schedule(d=2, count=10), Fraction(1, 2))
    if kind == "zero-gain":
        return binary_system(sch, Fraction(1, 10**400))
    if kind == "tiny-gain":
        return binary_system(sch, Fraction(1, 2**1075))
    raise AssertionError(kind)


def _structured(sysm: MoranSystem) -> list[int]:
    """P_n - 1 and k P_n for every fourth n, P_n / 2, and the DEL frequencies
    h (b^n - b^m) for a few (b, h), all below P_(depth - 6)."""
    P = sysm.schedule.prefix_products()
    limit = P[-7]
    xis = {P[n] - 1 for n in range(0, len(P) - 7, 4)}
    xis |= {k * P[n] for n in range(0, len(P) - 10, 4) for k in (1, 5)}
    xis |= {P[n] // 2 for n in range(0, len(P) - 7, 4)}
    for b, h in ((2, 1), (3, 2), (10, -3)):
        xis |= {abs(h * (b**n - b**m)) for n in range(12) for m in range(n)}
    return sorted(xi for xi in xis if 0 < xi < limit)


def _assert_matches_level_mask_loop(xi, sysm, eps):
    cert = mu_hat_modulus(xi, sysm, eps)
    got = (cert.lo, cert.hi, cert.truncation_level)
    assert repr(got) == repr(level_mask_mu_hat(xi, sysm, eps)), (xi, eps)


@pytest.mark.parametrize("kind", ["half", "tenth", "mixed", "dim-one", "wide"])
def test_table_loop_matches_level_mask_loop(kind):
    sysm = _system(kind)
    for xi in _structured(sysm):
        for eps in EPS_RANGE:
            _assert_matches_level_mask_loop(xi, sysm, eps)


def test_table_loop_matches_level_mask_loop_on_a_del_grid():
    # every distinct |2^n - 2^m|, n, m < 64, at the per-term widths of
    # del_partial for N_max 16 and 64
    sysm = _deep()
    grid = sorted({abs(2**n - 2**m) for n in range(64) for m in range(n)})
    for eps in (1e-6, 1e-9 / 16**3, 1e-9 / 64**3, 1e-15):
        for xi in grid:
            _assert_matches_level_mask_loop(xi, sysm, eps)


def test_table_loop_matches_level_mask_loop_at_deep_frequencies():
    # the 1e80-scale frequencies of the spectrum_deep benchmark config
    xis = json.loads(DEEP_CONFIG.read_text())["fourier"]["xis"]
    sysm = _deep()
    for xi in xis[::5]:
        for eps in (1e-6, 1e-9, 1e-12, 1e-15):
            _assert_matches_level_mask_loop(xi, sysm, eps)


@pytest.mark.parametrize("kind", ["half", "mixed", "dim-one", "wide"])
def test_table_loop_matches_level_mask_loop_at_residue_edges(kind):
    # past 2^60 the residues are found top-down: frequencies on both sides of
    # that switch, at prefix products and their neighbours, and sums of
    # prefix products, where a chain of residues runs through 0 and P_n - 1
    sysm = _system(kind)
    P = sysm.schedule.prefix_products()
    xis = {2**60 - 1, 2**60, 2**60 + 1, 2**62 + 3}
    xis |= {P[n] + d for n in range(len(P)) for d in (-1, 0, 1)}
    xis |= {3 * P[n] + P[m] - 1 for n in range(len(P)) for m in range(0, n, 3)}
    for xi in sorted(xi for xi in xis if 2**50 < xi < P[-7]):
        for eps in (1e-6, 1e-12):
            _assert_matches_level_mask_loop(xi, sysm, eps)


@pytest.mark.parametrize(
    "kind, xis, eps",
    [
        ("clamped", "P21-1", 1e-12),
        ("clamped", "one", 1e-100),
        ("zero-gain", "small", 1e-9),
        ("tiny-gain", "small", 1e-9),
    ],
)
def test_table_loop_matches_level_mask_loop_off_the_inline_path(kind, xis, eps):
    # levels whose cosine clamps to 1 and gains whose lower end is <= 0 take
    # _binary_mask from the table loop too
    sysm = _system(kind)
    P = sysm.schedule.prefix_products()
    chosen = {"P21-1": [P[20] - 1], "one": [1], "small": [1, 847, 10**12 + 7, 5 * P[3]]}[xis]
    for xi in chosen:
        _assert_matches_level_mask_loop(xi, sysm, eps)


def test_level_table_rows():
    # one row per level, numbered from 1, on the schedule's own prefix
    # products; gain ends for {0,1} levels and None for convolved ones
    for kind in ("half", "mixed", "wide"):
        sysm = _system(kind)
        rows = sysm._transform_levels
        assert len(rows) == sysm.depth
        for n, (row, P, level) in enumerate(
            zip(rows, sysm.schedule.prefix_products(), sysm._levels), start=1
        ):
            assert row[:3] == (n, P, level) and row[2] is level
            if sysm.digit_sets[n - 1] != (0, 1):
                assert level.count > 1 and row[3:] == (None, None)
            else:
                assert row[3:] == level.gain and row[3] <= row[4]
    assert _system("half")._transform_levels is _system("half")._transform_levels


# --------------------------------------------------------------------------
# digit windows


@pytest.mark.parametrize("kind", ["half", "tenth", "mixed", "dim-one", "wide"])
def test_decay_windows_match_the_per_level_loop(kind):
    sysm = _system(kind)
    rnd = random.Random(kind)
    P = sysm.schedule.prefix_products()
    xis = [0, 1, 2, 3, P[-1] - 1, P[-1], 2 * P[-1] + 5]
    xis += [rnd.randrange(P[n]) for n in range(len(P)) for _ in range(3)]
    xis += _structured(sysm)
    for xi in xis:
        assert digit_decay_bound(xi, sysm) == reference_digit_decay_bound(xi, sysm), xi


def test_decay_windows_share_one_row_per_base():
    sysm = _system("half")
    rows = sysm._decay_windows
    assert [q for q, _, _ in rows] == list(sysm.schedule.bases())
    assert all(lo == q // 3 and hi == 2 * (q // 3) for q, lo, hi in rows)
    assert len({id(row) for row in rows}) == len(set(sysm.schedule.bases()))


# --------------------------------------------------------------------------
# the window bound against a 40-digit Fraction grid


_WINDOW_KINDS = (
    "omega-half", "omega-third", "omega-per-level", "wide", "spread", "late-fail",
    "dim-one", "gauge", "extreme",
)

# kinds with a level that is neither {0,1} nor a convolution of it
_REFUSED = ("wide", "spread", "late-fail")


def _window_system(kind: str) -> MoranSystem:
    """A fresh system, so no bound is cached on it yet."""
    sch = build_schedule(d=2, count=4)
    toy = PrimeSchedule(d=1, q=(7, 11), ell=(1, 2))
    third, half = Fraction(1, 3), Fraction(1, 2)
    if kind == "omega-half":
        return binary_system(sch, half)
    if kind == "omega-third":
        return binary_system(sch, third)
    if kind == "omega-per-level":
        omegas = [Fraction(n, 2 * n + 3) for n in range(1, sch.depth + 1)]
        return MoranSystem(sch, ((0, 1),) * sch.depth, tuple((o, 1 - o) for o in omegas))
    if kind == "wide":
        # uniform {0,1,2} digits, the refused system of test_fourier
        return MoranSystem(toy, ((0, 1, 2),) * 3, ((third,) * 3,) * 3)
    if kind == "spread":
        # {0, 6} digits at level 1 reach modulus 1 inside the window
        return MoranSystem(toy, ((0, 6), (0, 1), (0, 1)), ((half, half),) * 3)
    if kind == "late-fail":
        # level 1 is a {0,1} level, levels 2 and 3 are {0, 6}
        pair = (half, half)
        return MoranSystem(toy, ((0, 1), (0, 6), (0, 6)), (pair,) * 3)
    phi = GaugeFunction(kind="r_times_log_power", param=1.0)
    variant = {"dim-one": ("dim-one", None), "gauge": ("gauge", phi), "extreme": ("extreme", phi)}
    return build_convolved(binary_system(sch, half), *variant[kind])


@pytest.mark.parametrize("kind", _WINDOW_KINDS)
def test_window_verdict_matches_the_fraction_grid(kind):
    # digit_decay_bound emits gamma^w exactly for the two level kinds, and
    # gamma bounds every level mask on the grid t = 1/6 + (2/3) i / 1023 at
    # 40 digits, up to the few ulps of its unrounded square root
    sysm = _window_system(kind)
    if kind in _REFUSED:
        with pytest.raises(InvalidParameter):
            digit_decay_bound(2, sysm)
        return
    gamma = sysm._window_gamma
    assert mp_window_sup(sysm) <= mpmath.mpf(gamma) + 4 * math.ulp(gamma)


def test_window_verdict_sees_a_late_failing_level():
    # level 1 is a {0,1} level, so only a check of every level refuses
    sysm = _window_system("late-fail")
    assert sysm.digit_sets[0] == (0, 1)
    with pytest.raises(InvalidParameter, match="neither"):
        digit_decay_bound(2, sysm)
    with pytest.raises(InvalidParameter, match="neither"):
        mu_hat_modulus(1, sysm, 1e-9)


@pytest.mark.parametrize("kind", _WINDOW_KINDS)
def test_window_grid_level_masks_match_mask_interval(kind):
    # every grid point of every distinct level class, bit for bit, and both
    # refused alike on a system with a level of neither kind
    sysm = _window_system(kind)
    classes = {}
    for n, key in enumerate(zip(sysm.digit_sets, sysm.weights), start=1):
        classes.setdefault(key, n)
    if kind in _REFUSED:
        with pytest.raises(InvalidParameter):
            fourier.mask_interval(1, Fraction(1, 6), sysm)
        return
    for n in classes.values():
        level = sysm._levels[n - 1]
        for i in range(1024):
            t = Fraction(1, 6) + Fraction(2, 3) * Fraction(i, 1023)
            assert fourier._level_mask(level, 1023 + 4 * i, 6138) == fourier.mask_interval(n, t, sysm)


def _forbidden(*args):
    raise AssertionError("must not be called here")


@pytest.mark.parametrize("kind", ["wide", "dim-one"])
def test_window_verdict_is_computed_once_per_system(monkeypatch, kind):
    # a later call reads the cached gamma, or meets the same refusal, and
    # runs no level mask and no hash of the system either way
    sysm = _window_system(kind)
    if kind in _REFUSED:
        monkeypatch.setattr(MoranSystem, "__hash__", _forbidden)
        monkeypatch.setattr(fourier, "_level_mask", _forbidden)
        for _ in range(3):
            with pytest.raises(InvalidParameter):
                digit_decay_bound(2 + 4 * 7, sysm)
        return
    first = digit_decay_bound(2 + 4 * 7, sysm)
    monkeypatch.setattr(MoranSystem, "__hash__", _forbidden)
    monkeypatch.setattr(fourier, "_level_mask", _forbidden)
    monkeypatch.setattr(fourier, "_build_level", _forbidden)
    for _ in range(3):
        assert digit_decay_bound(2 + 4 * 7, sysm) == first


def test_binary_window_verdict_runs_no_grid(monkeypatch):
    # gamma is read off the levels' exact {0,1} weights; no mask is evaluated
    monkeypatch.setattr(fourier, "_level_mask", _forbidden)
    monkeypatch.setattr(fourier, "_binary_mask", _forbidden)
    sysm = _window_system("omega-per-level")
    assert sysm._window_gamma == math.sqrt(1 - float(Fraction(1, 5) * Fraction(4, 5)))


# --------------------------------------------------------------------------
# booleans are not integers here


@pytest.mark.parametrize("flag", [True, False])
def test_boolean_frequency_is_rejected(flag):
    sysm = _system("half")
    with pytest.raises(InvalidParameter, match="frequency must be"):
        mu_hat_modulus(flag, sysm, 1e-9)
    with pytest.raises(InvalidParameter, match="frequency must be"):
        digit_decay_bound(flag, sysm)


@pytest.mark.parametrize("flag", [True, False])
def test_boolean_base_or_h_is_rejected(flag):
    with pytest.raises(InvalidParameter, match="h must be"):
        check_pair(2, flag)
    with pytest.raises(InvalidParameter, match="b must be"):
        check_pair(flag, 1)


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("flag", [True, False])
def test_boolean_frequency_argument_is_rejected(position, flag):
    args = [1, 2, 3, 1]
    args[position] = flag
    with pytest.raises(InvalidParameter, match="must be an integer"):
        frequency(*args)
    args[position] = 1.0
    with pytest.raises(InvalidParameter, match="must be an integer"):
        frequency(*args)


def test_boolean_N_max_is_rejected():
    with pytest.raises(InvalidParameter, match="N_max must be an integer"):
        del_partial(_system("half"), 2, 1, True, 1e-9)
