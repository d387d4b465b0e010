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
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction
from typing import Any

from . import __version__
from .delsum import block_trend, del_partial, write_block_csv, write_del_csv
from .dimension import (
    BallRow,
    GaugeFunction,
    ball_measure,
    build_convolved,
    h_rate_report,
    local_dim_series,
    write_ball_csv,
    write_local_dim_csv,
)
from .distribution import classify_Bk, verify_partition, write_histogram_csv
from .errors import InvalidParameter, MoranLabError, OutOfRange
from .fourier import MoranSystem, binary_system, check_eps, write_batch_csv
from .measure import (
    avoidance_dilations,
    normality_report,
    sample_batch,
    uniqueness_avoidance,
    write_normality_csv,
    write_uniqueness_csv,
)
from .numtheory import build_context
from .radix import PrimeSchedule, build_schedule
from .rng import derive_seed, value_at

OFFSET_FLAG = "offset deviates from reference construction constant"


# --------------------------------------------------------------------------
# config plumbing


def _merged(section: dict, defaults: dict[str, Any], where: str) -> dict[str, Any]:
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
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return Fraction(int(value[0]), int(value[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameter(f"bad fraction in {where}: {value!r}") from exc
    raise InvalidParameter(f"bad fraction in {where}: {value!r}")


def _nonnegative(value, where: str) -> int:
    n = int(value)
    if n < 0:
        raise InvalidParameter(f"{where} must be >= 0, got {n}")
    return n


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


def _schedule_from(cfg: dict) -> PrimeSchedule:
    sc = _merged(
        cfg.get("schedule", {}),
        {"d": 2, "count": 4, "variant": "nth-prime-from-7", "offset": None, "q": None, "ell": None},
        "schedule",
    )
    if sc["q"] is not None or sc["ell"] is not None:
        if sc["q"] is None or sc["ell"] is None:
            raise InvalidParameter("schedule needs both q and ell when given explicitly")
        return PrimeSchedule(d=int(sc["d"]), q=tuple(sc["q"]), ell=tuple(sc["ell"]))
    return build_schedule(
        d=int(sc["d"]), count=int(sc["count"]), variant=sc["variant"], offset=sc["offset"]
    )


def _system_from(cfg: dict, sch: PrimeSchedule) -> MoranSystem:
    sy = _merged(cfg.get("system", {}), {"kind": "binary", "omega": "1/2"}, "system")
    if sy["kind"] != "binary":
        raise InvalidParameter(f"unknown system kind {sy['kind']!r}")
    return binary_system(sch, omega=_fraction(sy["omega"], "system.omega"))


def _context_pairs(cfg: dict) -> list[tuple[int, int]]:
    cx = _merged(cfg.get("context", {}), {"b": [2], "h": [1]}, "context")
    bs = cx["b"] if isinstance(cx["b"], list) else [cx["b"]]
    hs = cx["h"] if isinstance(cx["h"], list) else [cx["h"]]
    if not bs or not hs:
        raise InvalidParameter(f"context needs at least one b and one h, got b={bs} h={hs}")
    # int() would truncate 2.5 to 2 while config_sha256 hashes 2.5
    for key, values in (("b", bs), ("h", hs)):
        for v in values:
            if isinstance(v, float) and not v.is_integer():
                raise InvalidParameter(f"context.{key} must be an integer, got {v!r}")
    return [(int(b), int(h)) for b in bs for h in hs]


def _config_hash(cfg: dict, seed: int) -> str:
    workers = 1 if cfg["workers"] is None else int(cfg["workers"])
    if workers < 1:
        raise InvalidParameter(f"workers must be >= 1, got {workers}")
    canon = json.dumps({"config": cfg, "seed": seed, "workers": workers}, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def _stamp_csv(path: str, cfg_hash: str) -> None:
    # timestamp line first; everything below it is deterministic
    with open(path) as fh:
        body = fh.read()
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    with open(path, "w") as fh:
        fh.write(f"# generated: {stamp}\n")
        fh.write(f"# config_sha256: {cfg_hash} version: {__version__}\n")
        fh.write(body)


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
        ctx = build_context(b, h, sch)
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
    eps = float(fc["eps"])
    check_eps(eps)  # before any frequency is drawn, so an empty batch still rejects it
    if fc["xis"] is not None:
        xis = [int(x) for x in fc["xis"]]
    else:
        r = min(3, len(sch.q))
        xi_max = sch.N[r] if fc["xi_max"] is None else _nonnegative(fc["xi_max"], "fourier.xi_max")
        xi_count = _nonnegative(fc["xi_count"], "fourier.xi_count")
        xis = [value_at(seed, i) % (xi_max + 1) for i in range(xi_count)]
    b, h = _context_pairs(cfg)[0]
    ctx = build_context(b, h, sch)
    path = os.path.join(out, fc["out"])
    write_batch_csv(path, xis, sysm, ctx, eps=eps)
    _stamp_csv(path, cfg_hash)
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
    report = del_partial(sysm, b, h, int(dc["N_max"]), float(dc["eps"]))
    path = os.path.join(out, dc["out"])
    write_del_csv(path, report)
    _stamp_csv(path, cfg_hash)
    print(f"del: N_max={report.N_max} sum={report.partial_sum!r} radius={report.radius:.3e}")
    if dc["r_lo"] is not None and dc["r_hi"] is not None:
        rows = block_trend(
            sysm,
            b,
            h,
            range(int(dc["r_lo"]), int(dc["r_hi"]) + 1),
            m_values=tuple(int(m) for m in dc["m_values"]),
            eps=float(dc["eps"]),
        )
        bpath = os.path.join(out, dc["blocks_out"])
        write_block_csv(bpath, rows)
        _stamp_csv(bpath, cfg_hash)
        print(f"del blocks: {len(rows)} rows -> {bpath}")
    return 0


def cmd_partition(cfg: dict, out: str, seed: int, cfg_hash: str) -> int:
    sch = _schedule_from(cfg)
    sysm = _system_from(cfg, sch)
    b, h = _context_pairs(cfg)[0]
    ctx = build_context(b, h, sch)
    pc = _merged(
        cfg.get("partition", {}),
        {"r": None, "I_start": 1, "m": None, "out": "partition_hist.csv"},
        "partition",
    )
    r = int(pc["r"]) if pc["r"] is not None else ctx.r0 + 1
    m = int(pc["m"]) if pc["m"] is not None else None
    cert = verify_partition(int(pc["I_start"]), ctx, sysm, r, m=m)
    print(f"partition: certificate ok, J={cert.J} classes={cert.y_size}")
    hist = classify_Bk(cert.classes[0], ctx, sysm, r, m=m)
    path = os.path.join(out, pc["out"])
    write_histogram_csv(path, hist, ctx, sysm, r)
    _stamp_csv(path, cfg_hash)
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
    depth = int(nc["depth"]) if nc["depth"] is not None else sch.depth
    count = _nonnegative(nc["samples"], "normality.samples")
    guard = _nonnegative(nc["guard"], "normality.guard")
    # checked here, not only inside normality_report, so that zero samples
    # still reject a bad config
    bases = tuple(int(b) for b in nc["bases"])
    if not bases:
        raise InvalidParameter("normality.bases needs at least one base")
    for b in bases:
        if b < 2:
            raise InvalidParameter(f"base must be >= 2, got {b}")
    digits = None if nc["count"] is None else _nonnegative(nc["count"], "normality.count")
    rows = []
    if count > 0:
        for i, pt in enumerate(sample_batch(sysm, seed, depth, count)):
            for rep in normality_report(pt.value, bases=bases, guard=guard, count=digits):
                rows.append((derive_seed(seed, i), depth, rep))
    path = os.path.join(out, nc["out"])
    write_normality_csv(path, rows)
    _stamp_csv(path, cfg_hash)
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
    if uc["kind"] == "plain":
        target = sysm
        sampler = sysm
        default_j = sch.depth - 1
    elif uc["kind"] == "dim-one":
        target = build_convolved(sysm, "dim-one")
        sampler = target.as_moran_system()
        default_j = len(target.special_levels) - 1
    else:
        raise InvalidParameter(f"unknown uniqueness kind {uc['kind']!r}")
    depth = int(uc["depth"]) if uc["depth"] is not None else sch.depth
    j_max = int(uc["j_max"]) if uc["j_max"] is not None else max(1, default_j)
    avoidance_dilations(target, j_max)  # rejects a bad j_max even with zero samples
    count = _nonnegative(uc["samples"], "uniqueness.samples")
    rows = []
    passed = 0
    if count > 0:
        for i, pt in enumerate(sample_batch(sampler, seed, depth, count)):
            verdict = uniqueness_avoidance(pt.value, target, j_max)
            passed += verdict.passed
            rows.append((derive_seed(seed, i), verdict))
    path = os.path.join(out, uc["out"])
    write_uniqueness_csv(path, rows)
    _stamp_csv(path, cfg_hash)
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
        phi = GaugeFunction(kind=gc["kind"], param=float(gc["param"]))
    eps = float(dc["eps"])
    # r / phi(r) -> 0 for phi(r) = r^(1 - eps) only when 0 < eps < 1 (NaN fails too)
    if not 0.0 < eps < 1.0:
        raise InvalidParameter(
            f"dimension.eps must be a finite number in (0, 1), got {dc['eps']!r}"
        )
    variant = dc["variant"]
    if variant == "dim-one":
        csys = build_convolved(sysm, "dim-one")
        phi_of = lambda r: float(r) ** (1.0 - eps)
        scale = 8.0
    else:
        if phi is None:
            raise InvalidParameter(f"variant {variant!r} needs a dimension.gauge entry")
        csys = build_convolved(sysm, variant, phi, H_param=float(dc["H_param"]))
        phi_of = lambda r: phi.value(r)
        scale = 4.0

    band_hi = int(dc["band_hi"]) if dc["band_hi"] is not None else sch.depth - 1
    band_lo = max(int(dc["band_lo"]), 1)
    sampler = csys.as_moran_system()
    pts = sample_batch(sampler, seed, sch.depth, int(dc["samples"]))
    # one h(r) per band, shared by every sample and by the h_rate payload
    grid = [Fraction(1, sch.prefix_product(m)) for m in range(band_lo, band_hi + 1)]
    hrows = h_rate_report(sch, grid)
    bands = [(mband, hr.r, hr.h_r, phi_of(hr.r)) for mband, hr in enumerate(hrows, start=band_lo)]
    rows = []
    for i, pt in enumerate(pts):
        for mband, r, h_r, phi_r in bands:
            ball = ball_measure(pt.value, r, csys)
            # checked per row: the ball (<= 4 phi(r) on gauge) can underflow
            # at an earlier band than phi(r)
            if phi_r == 0.0 or float(ball) == 0.0:
                raise OutOfRange(
                    f"band {mband}: the ball measure or phi(r) at r = 1/(M_1...M_{mband}) "
                    f"underflows double precision; lower dimension.band_hi"
                )
            rows.append(
                BallRow(
                    x_seed=derive_seed(seed, i),
                    r=r,
                    h_r=h_r,
                    ball=ball,
                    phi_r=phi_r,
                    ratio=float(ball) / (scale * phi_r),
                )
            )
    bpath = os.path.join(out, dc["ball_out"])
    write_ball_csv(bpath, rows)
    _stamp_csv(bpath, cfg_hash)

    local_depth = int(dc["local_depth"]) if dc["local_depth"] is not None else sch.depth
    series = local_dim_series(pts[0], csys, local_depth)
    lpath = os.path.join(out, dc["local_out"])
    write_local_dim_csv(lpath, series, burn_in=min(int(dc["burn_in"]), local_depth))
    _stamp_csv(lpath, cfg_hash)

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
        seed = args.seed if args.seed is not None else int(cfg["seed"])
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
        # malformed config values surface here from int()/float() coercions
        print(f"error: malformed config value: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
