"""Configuration-driven command line for reproducible runs.

Every subcommand reads one JSON config file (schema in the README), applies
the --seed/--out overrides, and writes CSV/JSON artifacts into the
output directory. Reports embed the sha256 of the effective config and the
library version; CSV files additionally carry a timestamp comment line that
is excluded from any byte-identity comparison. Exit codes: 0 ok, 2 config
error, 3 precondition error, 4 certification failure, 5 resource guard.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import Any

# the builtin sha256, as random.py takes its sha512: hashlib loads OpenSSL,
# which every process would pay for one digest
try:
    from _sha256 import sha256  # Python 3.11 and earlier
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        from hashlib import sha256

from . import __version__
# modules, not names: a module's body runs only when a subcommand first calls
# into it, and a function rebound in its home module (bench/tracer.py) is
# seen here too
from . import delsum, dimension, distribution, fourier, measure, numtheory, radix, rng, system
from .errors import InvalidParameter, MoranLabError, OutOfRange

OFFSET_FLAG = "offset deviates from reference construction constant"


# --------------------------------------------------------------------------
# config plumbing


def _merged(section: dict, defaults: dict[str, Any], where: str) -> dict[str, Any]:
    if not isinstance(section, dict):
        raise InvalidParameter(
            f"malformed config value: {where} must be an object, got {section!r}"
        )
    unknown = sorted(set(section) - set(defaults))
    if unknown:
        raise InvalidParameter(f"unknown config keys in {where}: {unknown}")
    out = dict(defaults)
    out.update(section)
    return out


def _fraction(value, where: str) -> Fraction:
    try:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return Fraction(_integer(value[0], where), _integer(value[1], where))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameter(f"bad fraction in {where}: {value!r}") from exc
    raise InvalidParameter(f"bad fraction in {where}: {value!r}")


def _integer(value, where: str, low: int | None = None) -> int:
    # int() alone would read 1.7 as 1, true as 1 and "3" as 3 while
    # config_sha256 hashes the value as written
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParameter(
            f"malformed config value: {where} must be an integer, got {value!r}"
        )
    if isinstance(value, float):
        if not value.is_integer():
            raise InvalidParameter(f"{where} must be an integer, got {value!r}")
        value = int(value)
    if low is not None and value < low:
        raise InvalidParameter(f"{where} must be >= {low}, got {value}")
    return value


def _real(value, where: str) -> float:
    # float() alone would read true as 1.0 and "0.5" as 0.5 while config_sha256
    # hashes the value as written; only "nan" and "inf" strings pass, so that
    # they meet the range checks
    try:
        if isinstance(value, str) and not math.isfinite(float(value)):
            return float(value)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    except (ValueError, OverflowError):
        pass
    raise InvalidParameter(f"malformed config value: {where} must be a number, got {value!r}")


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise InvalidParameter(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidParameter(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InvalidParameter("config root must be a JSON object")
    return cfg


_TOP_KEYS = {
    "schedule": {},
    "system": {},
    "context": {},
    "fourier": {},
    "del": {},
    "partition": {},
    "normality": {},
    "uniqueness": {},
    "dimension": {},
    "seed": 0,
    # "workers" drives nothing but stays validated and hashed (1 when null):
    # bench/configs/spectrum_*.json set it and bench/digests.json pins the hashes
    "workers": None,
    "out_dir": None,
}


def _schedule_from(cfg: dict) -> radix.PrimeSchedule:
    sc = _merged(
        cfg.get("schedule", {}),
        {"d": 2, "count": 4, "variant": "nth-prime-from-7", "offset": None, "q": None, "ell": None},
        "schedule",
    )
    d = _integer(sc["d"], "schedule.d")
    if sc["q"] is not None or sc["ell"] is not None:
        if sc["q"] is None or sc["ell"] is None:
            raise InvalidParameter("schedule needs both q and ell when given explicitly")
        q = tuple(_integer(p, "schedule.q") for p in sc["q"])
        ell = tuple(_integer(m, "schedule.ell") for m in sc["ell"])
        return radix.PrimeSchedule(d=d, q=q, ell=ell)
    count = _integer(sc["count"], "schedule.count")
    offset = None if sc["offset"] is None else _integer(sc["offset"], "schedule.offset")
    return radix.build_schedule(d=d, count=count, variant=sc["variant"], offset=offset)


def _system_from(cfg: dict, sch: radix.PrimeSchedule) -> system.MoranSystem:
    sy = _merged(cfg.get("system", {}), {"kind": "binary", "omega": "1/2"}, "system")
    if sy["kind"] != "binary":
        raise InvalidParameter(f"unknown system kind {sy['kind']!r}")
    return system.binary_system(sch, omega=_fraction(sy["omega"], "system.omega"))


def _context_pairs(cfg: dict) -> list[tuple[int, int]]:
    cx = _merged(cfg.get("context", {}), {"b": [2], "h": [1]}, "context")
    bs = cx["b"] if isinstance(cx["b"], list) else [cx["b"]]
    hs = cx["h"] if isinstance(cx["h"], list) else [cx["h"]]
    if not bs or not hs:
        raise InvalidParameter(f"context needs at least one b and one h, got b={bs} h={hs}")
    bs = [_integer(b, "context.b") for b in bs]
    hs = [_integer(h, "context.h") for h in hs]
    return [(b, h) for b in bs for h in hs]


def _config_hash(cfg: dict, seed: int) -> str:
    workers = 1 if cfg["workers"] is None else _integer(cfg["workers"], "workers", low=1)
    canon = json.dumps({"config": cfg, "seed": seed, "workers": workers}, sort_keys=True)
    return sha256(canon.encode()).hexdigest()


def _stamp_csv(path: str, cfg_hash: str, table: list) -> None:
    # the rows of a writer's table (its _*_table) under a timestamp line and
    # a config line, in one pass; everything below the timestamp is
    # deterministic, and lines end in "\n" where the library writers end
    # them in "\r\n". bench/tracer.py times the CSV writes under this name.
    # imported here, so that schedule and context, which write no CSV, never load it
    import csv

    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with open(path, "w") as fh:
        fh.write(f"# generated: {stamp}\n")
        fh.write(f"# config_sha256: {cfg_hash} version: {__version__}\n")
        csv.writer(fh, lineterminator="\n").writerows(table)


def _write_json_report(path: str, cfg_hash: str, command: str, payload) -> None:
    report = {
        "version": __version__,
        "config_sha256": cfg_hash,
        "command": command,
        "payload": payload,
    }
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------------
# subcommands


def cmd_schedule(cfg: dict, out: str, seed: int, cfg_hash: str) -> int:
    sch = _schedule_from(cfg)
    print(f"schedule d={sch.d} variant={sch.variant} depth={sch.depth}")
    if sch.variant.startswith("cube-window"):
        print(OFFSET_FLAG)
    print("n M_n")
    for n in range(1, sch.depth + 1):
        print(f"{n} {sch.base_at(n)}")
    print("r N_r L_r")
    for r in range(1, len(sch.q) + 1):
        print(f"{r} {sch.N[r]} {sch.L[r]}")
    payload = json.loads(sch.to_json())
    if sch.variant.startswith("cube-window"):
        payload["flag"] = OFFSET_FLAG
    _write_json_report(os.path.join(out, "schedule.json"), cfg_hash, "schedule", payload)
    return 0


def cmd_context(cfg: dict, out: str, seed: int, cfg_hash: str) -> int:
    sch = _schedule_from(cfg)
    payload = []
    for b, h in _context_pairs(cfg):
        ctx = numtheory.build_context(b, h, sch)
        payload.append(json.loads(ctx.to_json()))
        print(f"b={b} h={h}: r0={ctx.r0} Q={ctx.Q} gamma={ctx.gamma:.6f} r1={ctx.r1}")
    _write_json_report(os.path.join(out, "context.json"), cfg_hash, "context", payload)
    return 0


def cmd_fourier(cfg: dict, out: str, seed: int, cfg_hash: str) -> int:
    sch = _schedule_from(cfg)
    sysm = _system_from(cfg, sch)
    fc = _merged(
        cfg.get("fourier", {}),
        {"xis": None, "xi_count": 100, "xi_max": None, "eps": 1e-9, "out": "fourier.csv"},
        "fourier",
    )
    eps = _real(fc["eps"], "fourier.eps")
    fourier.check_eps(eps)  # before any frequency is drawn, so an empty batch still rejects it
    if fc["xis"] is not None:
        xis = [_integer(x, "fourier.xis") for x in fc["xis"]]
    else:
        r = min(3, len(sch.q))
        xi_max = (
            sch.N[r] if fc["xi_max"] is None else _integer(fc["xi_max"], "fourier.xi_max", low=0)
        )
        xi_count = _integer(fc["xi_count"], "fourier.xi_count", low=0)
        xis = [rng.value_at(seed, i) % (xi_max + 1) for i in range(xi_count)]
    # gamma comes from the system's weights, so no context is built; the
    # pair is still checked as every single-pair command checks it
    radix.check_pair(*_context_pairs(cfg)[0])
    path = os.path.join(out, fc["out"])
    _stamp_csv(path, cfg_hash, fourier._batch_table(xis, sysm, eps))
    print(f"fourier: {len(xis)} frequencies -> {path}")
    return 0


def cmd_del(cfg: dict, out: str, seed: int, cfg_hash: str) -> int:
    sch = _schedule_from(cfg)
    sysm = _system_from(cfg, sch)
    b, h = _context_pairs(cfg)[0]
    dc = _merged(
        cfg.get("del", {}),
        {
            "N_max": 10,
            "eps": 1e-9,
            "out": "del.csv",
            "blocks_out": "del_blocks.csv",
            "r_lo": None,
            "r_hi": None,
            "m_values": [0],
        },
        "del",
    )
    N_max = _integer(dc["N_max"], "del.N_max")
    eps = _real(dc["eps"], "del.eps")
    r_lo = None if dc["r_lo"] is None else _integer(dc["r_lo"], "del.r_lo")
    r_hi = None if dc["r_hi"] is None else _integer(dc["r_hi"], "del.r_hi")
    m_values = tuple(_integer(m, "del.m_values") for m in dc["m_values"])
    # block_trend checks these too, but only after del_partial has run, and
    # an empty r range would pass it
    for m in m_values:
        _integer(m, "del.m_values", low=0)
    if r_lo is not None and r_hi is not None and not 1 <= r_lo <= r_hi <= len(sch.q):
        raise InvalidParameter(
            f"del.r_lo and del.r_hi must satisfy 1 <= r_lo <= r_hi <= {len(sch.q)}, "
            f"got {r_lo} and {r_hi}"
        )
    report = delsum.del_partial(sysm, b, h, N_max, eps)
    rows = None
    if r_lo is not None and r_hi is not None:
        # before del.csv is written, so that the enumeration guard leaves no file
        rows = delsum.block_trend(sysm, b, h, range(r_lo, r_hi + 1), m_values=m_values, eps=eps)
    path = os.path.join(out, dc["out"])
    _stamp_csv(path, cfg_hash, delsum._del_table(report))
    print(f"del: N_max={report.N_max} sum={report.partial_sum!r} radius={report.radius:.3e}")
    if rows is not None:
        bpath = os.path.join(out, dc["blocks_out"])
        _stamp_csv(bpath, cfg_hash, delsum._block_table(rows))
        print(f"del blocks: {len(rows)} rows -> {bpath}")
    return 0


def cmd_partition(cfg: dict, out: str, seed: int, cfg_hash: str) -> int:
    sch = _schedule_from(cfg)
    sysm = _system_from(cfg, sch)
    b, h = _context_pairs(cfg)[0]
    pc = _merged(
        cfg.get("partition", {}),
        {"r": None, "I_start": 1, "m": None, "out": "partition_hist.csv"},
        "partition",
    )
    r = None if pc["r"] is None else _integer(pc["r"], "partition.r")
    m = None if pc["m"] is None else _integer(pc["m"], "partition.m")
    I_start = _integer(pc["I_start"], "partition.I_start")
    ctx = numtheory.build_context(b, h, sch)
    if r is None:
        r = ctx.r0 + 1
    cert = distribution.verify_partition(I_start, ctx, sysm, r, m=m)
    print(f"partition: certificate ok, J={cert.J} classes={cert.y_size}")
    hist = distribution.classify_Bk(cert.classes[0], ctx, sysm, r, m=m)
    path = os.path.join(out, pc["out"])
    _stamp_csv(path, cfg_hash, distribution._histogram_table(hist, ctx, sysm, r))
    _write_json_report(
        os.path.join(out, "partition.json"), cfg_hash, "partition", json.loads(cert.to_json())
    )
    return 0


def cmd_normality(cfg: dict, out: str, seed: int, cfg_hash: str) -> int:
    sch = _schedule_from(cfg)
    sysm = _system_from(cfg, sch)
    nc = _merged(
        cfg.get("normality", {}),
        {"samples": 8, "depth": None, "bases": [2], "count": None, "guard": 8, "out": "normality.csv"},
        "normality",
    )
    depth = sch.depth if nc["depth"] is None else _integer(nc["depth"], "normality.depth")
    measure._check_depth(sysm, depth)  # checked here too, so that zero samples still reject it
    count = _integer(nc["samples"], "normality.samples", low=0)
    guard = _integer(nc["guard"], "normality.guard", low=0)
    # checked here, not only inside normality_report, so that zero samples
    # still reject a bad config
    bases = tuple(_integer(b, "normality.bases") for b in nc["bases"])
    if not bases:
        raise InvalidParameter("normality.bases needs at least one base")
    for b in bases:
        if b < 2:
            raise InvalidParameter(f"base must be >= 2, got {b}")
    digits = None if nc["count"] is None else _integer(nc["count"], "normality.count", low=0)
    rows = []
    if count > 0:
        for i, pt in enumerate(measure.sample_batch(sysm, seed, depth, count)):
            for rep in measure.normality_report(pt.value, bases=bases, guard=guard, count=digits):
                rows.append((rng.derive_seed(seed, i), depth, rep))
    path = os.path.join(out, nc["out"])
    _stamp_csv(path, cfg_hash, measure._normality_table(rows))
    print(f"normality: {count} samples x {len(bases)} bases -> {path}")
    return 0


def cmd_uniqueness(cfg: dict, out: str, seed: int, cfg_hash: str) -> int:
    sch = _schedule_from(cfg)
    sysm = _system_from(cfg, sch)
    uc = _merged(
        cfg.get("uniqueness", {}),
        {"samples": 16, "kind": "plain", "depth": None, "j_max": None, "out": "uniqueness.csv"},
        "uniqueness",
    )
    depth = sch.depth if uc["depth"] is None else _integer(uc["depth"], "uniqueness.depth")
    j_max = None if uc["j_max"] is None else _integer(uc["j_max"], "uniqueness.j_max")
    count = _integer(uc["samples"], "uniqueness.samples")
    if uc["kind"] == "plain":
        target = sysm
        sampler = sysm
        default_j = sch.depth - 1
    elif uc["kind"] == "dim-one":
        target = dimension.build_convolved(sysm, "dim-one")
        sampler = target.as_moran_system()
        default_j = len(target.special_levels) - 1
    else:
        raise InvalidParameter(f"unknown uniqueness kind {uc['kind']!r}")
    if j_max is None:
        j_max = max(1, default_j)
    levels = measure._avoidance_levels(target, j_max)  # rejects a bad j_max even with zero samples
    measure._check_depth(sampler, depth)  # and a bad depth
    _integer(count, "uniqueness.samples", low=0)  # bounded after both, which it must not hide
    rows = []
    passed = 0
    if count > 0:
        pts = measure.sample_batch(sampler, seed, depth, count)
        lo = measure._avoidance_lo(target)
        # the sampler draws each level's digit from the target's digit set, so
        # the drawn digits are the point's attractor digits; 0 lies in every
        # level's set and pads them to the target's depth
        pad = (0,) * (target.depth - depth)
        for i, pt in enumerate(pts):
            verdict = measure._avoidance_verdict(pt.value, pt.digits + pad, sch, levels, lo, j_max)
            passed += verdict.passed
            rows.append((rng.derive_seed(seed, i), verdict))
    path = os.path.join(out, uc["out"])
    _stamp_csv(path, cfg_hash, measure._uniqueness_table(rows))
    print(f"uniqueness: {passed}/{count} pass -> {path}")
    return 0


def cmd_dimension(cfg: dict, out: str, seed: int, cfg_hash: str) -> int:
    sch = _schedule_from(cfg)
    sysm = _system_from(cfg, sch)
    dc = _merged(
        cfg.get("dimension", {}),
        {
            "variant": "dim-one",
            "eps": 0.5,
            "gauge": None,
            "H_param": 1.0,
            "band_lo": 1,
            "band_hi": None,
            "samples": 4,
            "local_depth": None,
            "burn_in": 50,
            "ball_out": "balls.csv",
            "local_out": "local_dim.csv",
        },
        "dimension",
    )
    phi = None
    if dc["gauge"] is not None:
        gc = _merged(dc["gauge"], {"kind": "power", "param": 1.0}, "dimension.gauge")
        phi = dimension.GaugeFunction(gc["kind"], _real(gc["param"], "dimension.gauge.param"))
    eps = _real(dc["eps"], "dimension.eps")
    # r / phi(r) -> 0 for phi(r) = r^(1 - eps) only when 0 < eps < 1 (NaN fails too)
    if not 0.0 < eps < 1.0:
        raise InvalidParameter(
            f"dimension.eps must be a finite number in (0, 1), got {dc['eps']!r}"
        )
    band_lo = _integer(dc["band_lo"], "dimension.band_lo", low=1)
    band_hi = sch.depth - 1
    if dc["band_hi"] is not None:
        band_hi = _integer(dc["band_hi"], "dimension.band_hi")
    if band_lo > band_hi:
        raise InvalidParameter(
            f"dimension.band_lo = {band_lo} exceeds dimension.band_hi = {band_hi}"
        )
    samples = _integer(dc["samples"], "dimension.samples", low=1)
    local_depth = sch.depth
    if dc["local_depth"] is not None:
        local_depth = _integer(dc["local_depth"], "dimension.local_depth", low=1)
    if local_depth > sch.depth:
        raise OutOfRange(
            f"dimension.local_depth = {local_depth} exceeds the schedule depth {sch.depth}"
        )
    H_param = _real(dc["H_param"], "dimension.H_param")
    burn_in = _integer(dc["burn_in"], "dimension.burn_in", low=0)
    variant = dc["variant"]
    if variant == "dim-one":
        csys = dimension.build_convolved(sysm, "dim-one")
        phi_of = lambda r: float(r) ** (1.0 - eps)
        scale = 8.0
    else:
        if phi is None:
            raise InvalidParameter(f"variant {variant!r} needs a dimension.gauge entry")
        csys = dimension.build_convolved(sysm, variant, phi, H_param=H_param)
        phi_of = lambda r: phi.value(r)
        scale = 4.0

    sampler = csys.as_moran_system()
    pts = measure.sample_batch(sampler, seed, sch.depth, samples)
    # one h(r) per band, shared by every sample and by the h_rate payload
    grid = [Fraction(1, sch.prefix_product(m)) for m in range(band_lo, band_hi + 1)]
    hrows = dimension.h_rate_report(sch, grid)
    bands = [(mband, hr.r, hr.h_r, phi_of(hr.r)) for mband, hr in enumerate(hrows, start=band_lo)]
    rows = []
    for i, pt in enumerate(pts):
        for mband, r, h_r, phi_r in bands:
            ball = dimension._ball_measure(pt.value, r, csys, h_r)
            # checked per row: the ball (<= 4 phi(r) on gauge) can underflow
            # at an earlier band than phi(r)
            if phi_r == 0.0 or float(ball) == 0.0:
                raise OutOfRange(
                    f"band {mband}: the ball measure or phi(r) at r = 1/(M_1...M_{mband}) "
                    f"underflows double precision; lower dimension.band_hi"
                )
            rows.append(
                dimension.BallRow(
                    x_seed=rng.derive_seed(seed, i),
                    r=r,
                    h_r=h_r,
                    ball=ball,
                    phi_r=phi_r,
                    ratio=float(ball) / (scale * phi_r),
                )
            )
    bpath = os.path.join(out, dc["ball_out"])
    _stamp_csv(bpath, cfg_hash, dimension._ball_table(rows))

    series = dimension.local_dim_series(pts[0], csys, local_depth)
    lpath = os.path.join(out, dc["local_out"])
    _stamp_csv(lpath, cfg_hash, dimension._local_dim_table(series, min(burn_in, local_depth)))

    payload = {
        "variant": variant,
        "special_levels": list(csys.special_levels),
        "worst_ball_ratio": max((row.ratio for row in rows), default=0.0),
        "h_rate": [
            {"r": f"{hr.r.numerator}/{hr.r.denominator}", "h": hr.h_r, "ratio": hr.ratio, "band": hr.band}
            for hr in hrows
        ],
    }
    _write_json_report(os.path.join(out, "dimension.json"), cfg_hash, "dimension", payload)
    print(f"dimension: variant={variant} worst ball ratio={payload['worst_ball_ratio']:.4f}")
    return 0


_COMMANDS = {
    "schedule": cmd_schedule,
    "context": cmd_context,
    "fourier": cmd_fourier,
    "del": cmd_del,
    "partition": cmd_partition,
    "normality": cmd_normality,
    "uniqueness": cmd_uniqueness,
    "dimension": cmd_dimension,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="moranlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"moranlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="64-bit seed")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        cfg = _merged(cfg, _TOP_KEYS, "top level")
        seed = args.seed if args.seed is not None else _integer(cfg["seed"], "seed")
        if not 0 <= seed < 2**64:
            raise InvalidParameter(f"seed must fit in 64 bits, got {seed}")
        cfg_hash = _config_hash(cfg, seed)
        out = args.out or os.environ.get("MORANLAB_OUT") or cfg["out_dir"] or "."
        os.makedirs(out, exist_ok=True)
        return _COMMANDS[args.command](cfg, out, seed, cfg_hash)
    except MoranLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (TypeError, ValueError) as exc:
        # a bad shape inside a section, such as "bases": 2 where a list is
        # iterated; every scalar and section reader raises InvalidParameter
        print(f"error: malformed config value: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
