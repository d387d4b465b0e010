"""The batched transform kernel `fourier._moduli` against one frequency at a time.

The kernel memoises the running product through each level k with
P_k <= len(xis), keyed by r_k = xi mod P_k, and a frequency resumes from its
deepest memoised level at or below top (P_top <= xi < P_(top+1)). So on
batches large enough to fill the memo (900 or more frequencies), the kernel,
`fourier._batch_table` and `delsum._modulus_table` must give exactly the bits
of `mu_hat_modulus` called once per frequency, whose batch of one has no
memo. A frequency below P_1 stored beside one that shares its residues shows
a resume past top; an error mid-batch and a non-integer anywhere must behave
as one frequency at a time would, before any work.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from moranlab import (
    InvalidParameter,
    MoranSystem,
    TailNotCertifiable,
    binary_system,
    build_convolved,
    build_schedule,
    digit_decay_bound,
    mu_hat_modulus,
)
from moranlab import delsum, fourier


@lru_cache(maxsize=None)
def _system(kind: str) -> MoranSystem:
    sch = build_schedule(d=2, count=7)
    if kind == "binary":
        return binary_system(sch, Fraction(1, 2))
    if kind == "mixed":
        # {0,1} levels with a distinct weight per level
        omegas = [Fraction(n, 2 * n + 3) for n in range(1, sch.depth + 1)]
        return MoranSystem(sch, ((0, 1),) * sch.depth, tuple((o, 1 - o) for o in omegas))
    if kind == "convolved":
        return build_convolved(binary_system(sch, Fraction(1, 3)), "dim-one")
    raise AssertionError(kind)


SYSTEMS = ["binary", "mixed", "convolved"]
EPS = [1.0, 1e-6, 1e-12]


def _batch(sysm: MoranSystem, count: int = 1200) -> list[int]:
    """count frequencies: 0, residue 0 on the first levels (multiples of P_k),
    neighbours of prefix products, shallow and past-2^60 random ones, and
    repeats of earlier ones, shuffled."""
    rnd = random.Random(20261021)
    P = sysm.schedule.prefix_products()
    xis = [0, 0, 1, 5]
    xis += [j * P[k] for k in range(4) for j in (1, 2, 3, 7, 11, 49)]
    xis += [P[k] + d for k in range(6) for d in (-2, -1, 1, 5)]
    xis += [rnd.randrange(2 * 10**6) for _ in range(500)]
    xis += [rnd.randrange(2**60, P[16]) for _ in range(150)]
    while len(xis) < count:
        xis.append(rnd.choice(xis))
    rnd.shuffle(xis)
    return xis


def _one_at_a_time(xis, sysm, eps) -> list:
    return [mu_hat_modulus(xi, sysm, eps)._values() for xi in xis]


@pytest.mark.parametrize("eps", EPS)
@pytest.mark.parametrize("kind", SYSTEMS)
def test_kernel_matches_one_frequency_at_a_time(kind, eps):
    sysm = _system(kind)
    xis = _batch(sysm)
    assert len(xis) >= 900 and 0 in xis and len(set(xis)) < len(xis)
    assert repr(fourier._moduli(xis, sysm, eps)) == repr(_one_at_a_time(xis, sysm, eps))


def test_kernel_matches_one_frequency_at_a_time_with_a_four_level_memo():
    # 11011 = P_4 frequencies or more fill the memo through level 4
    sysm = _system("binary")
    xis = _batch(sysm, count=11100)
    assert sysm.schedule.prefix_products()[3] <= len(xis)
    assert repr(fourier._moduli(xis, sysm, 1e-9)) == repr(_one_at_a_time(xis, sysm, 1e-9))


@pytest.mark.parametrize("eps", EPS)
@pytest.mark.parametrize("kind", SYSTEMS)
def test_batch_table_matches_one_frequency_at_a_time(kind, eps):
    sysm = _system(kind)
    xis = _batch(sysm)
    xis = [-xi if i % 3 == 0 else xi for i, xi in enumerate(xis)]  # |mu_hat| is even
    expected = [["xi", "lo", "hi", "truncation_level", "w", "gamma_pow_w"]]
    for xi in xis:
        cert = mu_hat_modulus(xi, sysm, eps)
        w, gw = digit_decay_bound(abs(xi), sysm)
        expected.append((str(xi), repr(cert.lo), repr(cert.hi), cert.truncation_level, w, repr(gw)))
    assert fourier._batch_table(iter(xis), sysm, eps) == expected


@pytest.mark.parametrize("eps", EPS)
@pytest.mark.parametrize("kind", SYSTEMS)
def test_modulus_table_matches_one_frequency_at_a_time(kind, eps):
    sysm = _system(kind)
    xis = _batch(sysm)
    expected = {}
    for xi in sorted(set(xis)):
        cert = mu_hat_modulus(xi, sysm, eps)
        expected[xi] = (cert.lo, cert.hi)
    assert repr(delsum._modulus_table(sysm, xis, eps)) == repr(expected)


@pytest.mark.parametrize("eps, cut", [(1.0, 1), (1e-3, 3)])
def test_a_frequency_resumes_only_at_or_below_its_top_level(eps, cut):
    # P_3 + 5 stores its products through levels 1..3 under r_k = 5, the
    # residues of 5 itself; 5 < P_1 has top = 0 and must try its tail bound
    # from level 1 on, where a resume from the memo would cut it at level 4
    sysm = binary_system(build_schedule(d=2, count=7))
    P3 = sysm.schedule.prefix_products()[2]
    xis = [P3 + 5, *range(1000, 1900), 5]
    assert P3 <= len(xis)
    got = fourier._moduli(xis, sysm, eps)
    assert got[-1][2] == cut
    assert repr(got) == repr(_one_at_a_time(xis, sysm, eps))


def test_the_memo_serves_repeated_low_residues(monkeypatch):
    # multiples of P_3 have r = 0 on levels 1..3, each a _level_mask call
    # (c = 1 is off the inline path); from the second frequency on the memo
    # skips all three
    sysm = _system("binary")
    P3 = sysm.schedule.prefix_products()[2]
    xis = [j * P3 for j in range(1, 1000)]
    calls = []
    level_mask = fourier._level_mask

    def counted(level, r, P):
        calls.append(P)
        return level_mask(level, r, P)

    monkeypatch.setattr(fourier, "_level_mask", counted)
    alone = _one_at_a_time(xis, sysm, 1e-9)
    per_frequency = len(calls)
    calls.clear()
    batched = fourier._moduli(xis, sysm, 1e-9)
    assert repr(batched) == repr(alone)
    assert per_frequency - len(calls) == 3 * (len(xis) - 1)


def _exhausted(sysm: MoranSystem) -> int:
    # at or past P_depth no level is past xi, so no tail bound is ever tried
    return 3 * sysm.schedule.prefix_products()[-1] + 1


@pytest.mark.parametrize("kind", SYSTEMS)
def test_an_uncertifiable_frequency_mid_batch_gives_the_message_of_its_own_call(kind):
    sysm = _system(kind)
    bad = _exhausted(sysm)
    with pytest.raises(TailNotCertifiable) as alone:
        mu_hat_modulus(bad, sysm, 1e-9)
    xis = _batch(sysm, 950)
    xis.insert(500, bad)
    for call in (
        lambda: fourier._moduli(xis, sysm, 1e-9),
        lambda: fourier._batch_table(xis, sysm, 1e-9),
        lambda: delsum._modulus_table(sysm, xis, 1e-9),
    ):
        with pytest.raises(TailNotCertifiable) as batched:
            call()
        assert str(batched.value) == str(alone.value)
        assert batched.value.exit_code == alone.value.exit_code


def _no_work(*args):
    raise AssertionError("a frequency was evaluated before every one was checked")


@pytest.mark.parametrize("bad", [1.5, True, "7", None, Fraction(3)])
def test_a_non_integer_anywhere_is_refused_before_the_first_is_evaluated(monkeypatch, bad):
    sysm = _system("binary")
    monkeypatch.setattr(fourier, "_tail_log_bound", _no_work)
    monkeypatch.setattr(fourier, "_level_mask", _no_work)
    monkeypatch.setattr(fourier, "digit_decay_bound", _no_work)
    xis = [2, 847, 2**70, bad]
    calls = [
        lambda: fourier._moduli(xis, sysm, 1e-9),
        lambda: fourier._batch_table(iter(xis), sysm, 1e-9),
    ]
    if not isinstance(bad, (str, type(None))):  # the table sorts its distinct frequencies first
        calls.append(lambda: delsum._modulus_table(sysm, xis, 1e-9))
    for call in calls:
        with pytest.raises(InvalidParameter, match=f"frequency must be an integer, got {type(bad).__name__}$"):
            call()
