"""Output checks for the benchmark's artifacts.

``artifact_digests`` hashes every artifact an invocation wrote: a CSV from
the line after its timestamp line, a JSON report whole. ``validate`` checks
an invocation's artifacts against facts derived here, without moranlab:
row counts from the config, exact partition bookkeeping, and for ``fourier``
an independent high-precision value of ``|mu_hat(xi)|`` inside each sampled
certified bracket.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import mpmath

ORACLE_ROWS = 16  # fourier rows per artifact checked against mpmath
ORACLE_DPS = 40


def artifact_digests(out_dir: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".csv":
            data = data.split(b"\n", 1)[1]
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def _primes_from_7(count: int) -> list[int]:
    primes: list[int] = []
    n = 7
    while len(primes) < count:
        if all(n % p for p in range(2, int(n**0.5) + 1)):
            primes.append(n)
        n += 1
    return primes


def _schedule(cfg: dict) -> tuple[list[int], list[int]]:
    sc = cfg.get("schedule", {})
    if "q" in sc:
        return list(sc["q"]), list(sc["ell"])
    count, d = sc.get("count", 4), sc.get("d", 2)
    return _primes_from_7(count), [r ** (d - 1) for r in range(1, count + 1)]


def _bases(cfg: dict) -> list[int]:
    q, ell = _schedule(cfg)
    return [p for p, m in zip(q, ell) for _ in range(m)]


def _rows(path: Path) -> list[list[str]]:
    """CSV data rows below the two comment lines and the column header."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[3:]


def _payload(path: Path):
    return json.loads(path.read_text())["payload"]


def binary_modulus(xi: int, bases: list[int]) -> mpmath.mpf:
    """|mu_hat(xi)| of the omega = 1/2 binary measure on the finite schedule:
    prod_n |cos(pi xi / (M_1 ... M_n))|, each argument reduced exactly."""
    with mpmath.workdps(ORACLE_DPS):
        value = mpmath.mpf(1)
        prefix = 1
        for b in bases:
            prefix *= b
            value *= abs(mpmath.cos(mpmath.pi * mpmath.mpf(xi % prefix) / prefix))
        return value


def _check_fourier(cfg: dict, out: Path) -> list[str]:
    fc = cfg["fourier"]
    rows = _rows(out / "fourier.csv")
    problems = []
    expected = [int(x) for x in fc["xis"]] if "xis" in fc else None
    count = fc["xi_count"] if expected is None else len(expected)
    if len(rows) != count:
        problems.append(f"fourier.csv has {len(rows)} rows, expected {count}")
    elif expected is not None and [int(row[0]) for row in rows] != expected:
        problems.append("fourier.csv frequencies differ from the config's xis")
    eps = fc["eps"]
    for row in rows:
        lo, hi = float(row[1]), float(row[2])
        if not (0.0 <= lo <= hi <= 1.0 and hi - lo <= eps):
            problems.append(f"fourier.csv bracket [{lo}, {hi}] for xi={row[0]} is not within eps")
            break
    bases = _bases(cfg)
    for row in rows[:: max(1, len(rows) // ORACLE_ROWS)]:
        value = binary_modulus(int(row[0]), bases)
        if not mpmath.mpf(row[1]) <= value <= mpmath.mpf(row[2]):
            problems.append(f"|mu_hat({row[0]})| = {value} outside [{row[1]}, {row[2]}]")
    return problems


def _check_partition(cfg: dict, out: Path) -> list[str]:
    cert = _payload(out / "partition.json")
    sizes = cert["class_sizes"]
    hist_total = sum(int(row[1]) for row in _rows(out / "partition_hist.csv"))
    if not (
        cert["ok"]
        and len(sizes) == cert["J"]
        and len(set(sizes)) == 1
        and sum(sizes) == cert["length"]
        and hist_total == sizes[0]
    ):
        return [f"partition certificate inconsistent: {cert}, histogram total {hist_total}"]
    return []


def _check_del(cfg: dict, out: Path) -> list[str]:
    dc = cfg["del"]
    rows = _rows(out / "del.csv")
    problems = []
    cumulative = [float(row[2]) for row in rows]
    if len(rows) != dc.get("N_max", 10) or cumulative != sorted(cumulative):
        problems.append("del.csv: wrong row count or decreasing cumulative sum")
    if "r_lo" in dc:
        expected = (dc["r_hi"] - dc["r_lo"] + 1) * len(dc.get("m_values", [0]))
        if len(_rows(out / "del_blocks.csv")) != expected:
            problems.append(f"del_blocks.csv: expected {expected} rows")
    return problems


def _check_count(path: Path, expected: int) -> list[str]:
    n = len(_rows(path))
    return [] if n == expected else [f"{path.name}: {n} rows, expected {expected}"]


def validate(command: str, cfg: dict, out: Path) -> list[str]:
    """Problems found in one invocation's artifacts (empty when correct)."""
    depth = sum(_schedule(cfg)[1])
    if command == "schedule":
        q, ell = _schedule(cfg)
        payload = _payload(out / "schedule.json")
        ok = payload["q"] == q and payload["ell"] == ell
        return [] if ok else [f"schedule.json: q/ell {payload} differ from {q}/{ell}"]
    if command == "context":
        cx = cfg["context"]
        return [] if len(_payload(out / "context.json")) == len(cx["b"]) * len(cx["h"]) else [
            "context.json: wrong number of (b, h) entries"
        ]
    if command == "fourier":
        return _check_fourier(cfg, out)
    if command == "partition":
        return _check_partition(cfg, out)
    if command == "del":
        return _check_del(cfg, out)
    if command == "normality":
        nc = cfg["normality"]
        return _check_count(out / "normality.csv", nc["samples"] * len(nc["bases"]))
    if command == "uniqueness":
        return _check_count(out / "uniqueness.csv", cfg["uniqueness"]["samples"])
    if command == "dimension":
        dc = cfg["dimension"]
        bands = depth - 1 - dc.get("band_lo", 1) + 1
        return _check_count(out / "balls.csv", dc.get("samples", 4) * bands) + _check_count(
            out / "local_dim.csv", depth
        )
    return [f"no check for command {command!r}"]
