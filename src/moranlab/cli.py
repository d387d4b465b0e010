"""Configuration-driven command line for reproducible runs.

Every subcommand reads one JSON config file (schema in the README), applies
the --seed/--out overrides, and writes CSV/JSON artifacts into the
output directory. Reports embed the sha256 of the effective config and the
library version; CSV files additionally carry a timestamp comment line that
is excluded from any byte-identity comparison. Exit codes: 0 ok, 2 config
error, 3 precondition error, 4 certification failure, 5 resource guard.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import sys
import time
from typing import Any, NoReturn

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
# config plumbing: a reader per kind of value, and the table of keys


def _fraction(value, where: str) -> Fraction:
    # imported here, so that schedule, the one command that reads no fraction,
    # never loads fractions (and decimal and numbers with it)
    from fractions import Fraction

    try:
        if isinstance(value, str) or isinstance(value, int) and not isinstance(value, bool):
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
        raise InvalidParameter(f"malformed config value: {where} must be an integer, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise InvalidParameter(f"{where} must be an integer, got {value!r}")
        value = int(value)
    if low is not None and value < low:
        raise InvalidParameter(f"{where} must be >= {low}, got {value}")
    return value


def _integers(value, where: str, low: int | None = None) -> tuple[int, ...]:
    # a string or a number would otherwise be iterated as it is; every entry
    # is read before any is bounded
    if not isinstance(value, list):
        raise InvalidParameter(f"malformed config value: {where} must be a list, got {value!r}")
    values = tuple(_integer(v, where) for v in value)
    for v in values:
        _integer(v, where, low)
    return values


def _integer_or_integers(value, where: str) -> tuple[int, ...]:
    return _integers(value if isinstance(value, list) else [value], where)


def _real(value, where: str, within: tuple[float, float] | None = None) -> float:
    # float() alone would read true as 1.0 and "0.5" as 0.5 while config_sha256
    # hashes the value as written; only "nan" and "inf" strings pass, so that
    # they meet the range checks
    number = None
    try:
        if isinstance(value, str) and not math.isfinite(float(value)):
            number = float(value)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            number = float(value)
    except (ValueError, OverflowError):
        pass
    if number is None:
        raise InvalidParameter(f"malformed config value: {where} must be a number, got {value!r}")
    if within is not None and not within[0] < number < within[1]:  # NaN fails too
        interval = f"({within[0]:g}, {within[1]:g})"
        raise InvalidParameter(f"{where} must be a finite number in {interval}, got {value!r}")
    return number


def _string(value, where: str):
    # a choice, checked where it is used: by its section's rule or the library
    return value


def _path(value, where: str) -> str:
    # os.makedirs would reject a number naming no key, and --out would hide it
    if not isinstance(value, str):
        raise InvalidParameter(f"malformed config value: {where} must be a string, got {value!r}")
    return value


def _name(value, where: str) -> str:
    # an artifact goes to os.path.join(out, name), which must stay in out
    if not isinstance(value, str):
        raise InvalidParameter(
            f"malformed config value: {where} must be a file name, got {value!r}"
        )
    if value in ("", ".", "..") or os.path.basename(value) != value:
        raise InvalidParameter(f"{where} must be a plain file name, got {value!r}")
    return value


# Every config key, per section in the order its command reads them:
# (key, default, kind[, bound]). The kind is the reader that checks the
# value, or "object" for a nested section; a None default means the command
# or its section's rule derives the value. tests/test_config_table.py holds
# the README to it.
_KEYS = {
    "": (
        ("seed", 0, _integer),
        # drives nothing but stays validated and hashed (1 when null):
        # bench/configs/spectrum_*.json set it and bench/digests.json pins the hashes
        ("workers", None, _integer, 1),
        ("out_dir", None, _path),
    ),
    "schedule": (
        ("d", 2, _integer), ("q", None, _integers), ("ell", None, _integers),
        ("count", 4, _integer), ("offset", None, _integer),
        ("variant", "nth-prime-from-7", _string),
    ),
    "system": (("kind", "binary", _string), ("omega", "1/2", _fraction)),
    "context": (("b", [2], _integer_or_integers), ("h", [1], _integer_or_integers)),
    "fourier": (
        ("eps", 1e-9, _real), ("xis", None, _integers), ("xi_max", None, _integer, 0),
        ("xi_count", 100, _integer, 0), ("out", "fourier.csv", _name),
    ),
    "del": (
        ("N_max", 10, _integer), ("eps", 1e-9, _real),
        ("r_lo", None, _integer), ("r_hi", None, _integer), ("m_values", [0], _integers, 0),
        ("out", "del.csv", _name), ("blocks_out", "del_blocks.csv", _name),
    ),
    "partition": (
        ("r", None, _integer), ("m", None, _integer), ("I_start", 1, _integer),
        ("out", "partition_hist.csv", _name),
    ),
    "normality": (
        ("depth", None, _integer), ("samples", 8, _integer, 0), ("guard", 8, _integer, 0),
        ("bases", [2], _integers), ("count", None, _integer), ("out", "normality.csv", _name),
    ),
    "uniqueness": (
        ("depth", None, _integer), ("j_max", None, _integer), ("samples", 16, _integer),
        ("kind", "plain", _string), ("out", "uniqueness.csv", _name),
    ),
    "dimension": (
        ("gauge", None, "object"),
        # r / phi(r) -> 0 for phi(r) = r^(1 - eps) only when 0 < eps < 1
        ("eps", 0.5, _real, (0.0, 1.0)),
        ("band_lo", 1, _integer, 1), ("band_hi", None, _integer), ("samples", 4, _integer, 1),
        ("local_depth", None, _integer, 1), ("H_param", 1.0, _real), ("burn_in", 50, _integer, 0),
        ("variant", "dim-one", _string),
        ("ball_out", "balls.csv", _name), ("local_out", "local_dim.csv", _name),
    ),
    "dimension.gauge": (("kind", "power", _string), ("param", 1.0, _real)),
}


# The rules that a key's reader cannot apply, as they tie keys together or to
# the schedule: per section, the keys its rule reads, in the order it checks
# them, and the rule, which _section runs once every key is read. A rule gets
# the values, which it may complete from the schedule, and the schedule (None
# where it needs none). Every other check is the library's.
# tests/test_config_table.py holds the README to this table.


def _choice(section: str, *choices: str):
    def rule(values: dict, sch) -> None:
        if values["kind"] not in choices:
            raise InvalidParameter(f"unknown {section} kind {values['kind']!r}")
    return rule


def _block_range(values: dict, sch) -> None:
    r_lo, r_hi = values["r_lo"], values["r_hi"]
    if r_lo is not None and r_hi is not None and not 1 <= r_lo <= r_hi <= len(sch.q):
        raise InvalidParameter(
            f"del.r_lo and del.r_hi must satisfy 1 <= r_lo <= r_hi <= {len(sch.q)}, "
            f"got {r_lo} and {r_hi}"
        )


def _bases(values: dict, sch) -> None:
    # an empty list would give a run with no rows; count is bounded after the bases
    if not values["bases"]:
        raise InvalidParameter("normality.bases needs at least one base")
    measure._checked(0, values["bases"], None, 0)
    if values["count"] is not None:
        _integer(values["count"], "normality.count", low=0)


def _dimension(values: dict, sch) -> None:
    # the ball at band m counts level-(m + 1) cells; past the depth,
    # prefix_product or ball_measure would fail later, naming no key
    depth, band_lo, band_hi = sch.depth, values["band_lo"], values["band_hi"]
    band_hi = values["band_hi"] = depth - 1 if band_hi is None else band_hi
    local_depth = values["local_depth"] = values["local_depth"] or depth  # read as >= 1
    if band_lo > band_hi:
        raise InvalidParameter(
            f"dimension.band_lo = {band_lo} exceeds dimension.band_hi = {band_hi}"
        )
    if band_hi >= depth:
        raise OutOfRange(
            f"dimension.band_hi = {band_hi} must be below the schedule depth {depth}"
        )
    if local_depth > depth:
        raise OutOfRange(
            f"dimension.local_depth = {local_depth} exceeds the schedule depth {depth}"
        )
    if values["variant"] != "dim-one" and values["gauge"] is None:
        raise InvalidParameter(f"variant {values['variant']!r} needs a dimension.gauge entry")


_RULES = {
    "system": (("kind",), _choice("system", "binary")),
    "del": (("r_lo", "r_hi"), _block_range),
    "normality": (("bases", "count"), _bases),
    "uniqueness": (("kind",), _choice("uniqueness", "plain", "dim-one")),
    "dimension": (("band_lo", "band_hi", "local_depth", "variant", "gauge"), _dimension),
}

# the sections whose command also writes a fixed <section>.json report
_REPORTS = ("partition", "dimension")


def _section(cfg: dict, name: str, sch: radix.PrimeSchedule | None = None) -> dict[str, Any]:
    """Config section ``name`` ("" for the top level), its defaults filled in,
    each value checked by its row of ``_KEYS`` and then the section by its
    ``_RULES``, which read the schedule ``sch``. The top level leaves the
    sections as written: only the commands that read one check it."""
    section = cfg.get(name.rpartition(".")[2], {}) if name else cfg
    if not isinstance(section, dict):
        raise InvalidParameter(f"malformed config value: {name} must be an object, got {section!r}")
    rows = _KEYS[name]
    values = {key: default for key, default, *_ in rows}
    if not name:
        values.update((other, {}) for other in _KEYS if other and "." not in other)
    unknown = sorted(set(section) - set(values))
    if unknown:
        raise InvalidParameter(f"unknown config keys in {name or 'top level'}: {unknown}")
    values.update(section)
    names = {f"{name}.json": f"the {name} report"} if name in _REPORTS else {}
    for key, default, kind, *bound in rows:
        value, where = values[key], f"{name}.{key}" if name else key
        if value is None and default is None:
            continue
        values[key] = _section(values, where) if kind == "object" else kind(value, where, *bound)
        if kind is _name:
            if value in names:
                raise InvalidParameter(f"{where} names the same file as {names[value]}: {value!r}")
            names[value] = where
    if name in _RULES:
        _RULES[name][1](values, sch)
    return values


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


def _schedule_from(cfg: dict) -> radix.PrimeSchedule:
    sc = _section(cfg, "schedule")
    if sc["q"] is not None or sc["ell"] is not None:
        if sc["q"] is None or sc["ell"] is None:
            raise InvalidParameter("schedule needs both q and ell when given explicitly")
        return radix.PrimeSchedule(d=sc["d"], q=sc["q"], ell=sc["ell"])
    return radix.build_schedule(
        d=sc["d"], count=sc["count"], variant=sc["variant"], offset=sc["offset"]
    )


def _system_from(cfg: dict, sch: radix.PrimeSchedule) -> system.MoranSystem:
    return system.binary_system(sch, omega=_section(cfg, "system")["omega"])


def _context_pairs(cfg: dict) -> list[tuple[int, int]]:
    # every pair is checked here, before any work: a command that needs one
    # pair takes the first, and context builds them one after another
    cx = _section(cfg, "context")
    bs, hs = list(cx["b"]), list(cx["h"])
    if not bs or not hs:
        raise InvalidParameter(f"context needs at least one b and one h, got b={bs} h={hs}")
    pairs = [(b, h) for b in bs for h in hs]
    for b, h in pairs:
        radix.check_pair(b, h)
    return pairs


def _config_hash(cfg: dict, top: dict, seed: int) -> str:
    # top is _section(cfg, ""); the config is hashed as written, over its defaults
    workers = 1 if top["workers"] is None else top["workers"]
    canon = json.dumps({"config": {**top, **cfg}, "seed": seed, "workers": workers}, sort_keys=True)
    return sha256(canon.encode()).hexdigest()


def _stamp_csv(path: str, cfg_hash: str, table: list) -> None:
    # the rows of a writer's table (its _*_table) under a timestamp line and
    # a config line, in one pass; everything below the timestamp is
    # deterministic, and lines end in "\n" where the library writers end
    # them in "\r\n". bench/tracer.py times the CSV writes under this name.
    # imported here, so that schedule and context, which write no CSV, never load it
    import csv

    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    try:
        with open(path, "w") as fh:
            fh.write(f"# generated: {stamp}\n")
            fh.write(f"# config_sha256: {cfg_hash} version: {__version__}\n")
            csv.writer(fh, lineterminator="\n").writerows(table)
    except OSError as exc:
        raise InvalidParameter(f"cannot write {path}: {exc}") from exc


def _write_json_report(path: str, cfg_hash: str, command: str, payload) -> None:
    report = dict(version=__version__, config_sha256=cfg_hash, command=command, payload=payload)
    try:
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise InvalidParameter(f"cannot write {path}: {exc}") from exc


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
    fc = _section(cfg, "fourier")
    _context_pairs(cfg)  # read as in every single-pair command; gamma needs no context
    xis = fc["xis"]
    if xis is None:  # drawn by _batch_table once it has checked its arguments
        xi_max = sch.N[min(3, len(sch.q))] if fc["xi_max"] is None else fc["xi_max"]
        xis = (rng.value_at(seed, i) % (xi_max + 1) for i in range(fc["xi_count"]))
    table = fourier._batch_table(xis, sysm, fc["eps"])
    path = os.path.join(out, fc["out"])
    _stamp_csv(path, cfg_hash, table)
    print(f"fourier: {len(table) - 1} frequencies -> {path}")
    return 0


def cmd_del(cfg: dict, out: str, seed: int, cfg_hash: str) -> int:
    sch = _schedule_from(cfg)
    sysm = _system_from(cfg, sch)
    b, h = _context_pairs(cfg)[0]
    dc = _section(cfg, "del", sch)
    r_lo, r_hi, eps = dc["r_lo"], dc["r_hi"], dc["eps"]
    report = delsum.del_partial(sysm, b, h, dc["N_max"], eps)
    rows = None
    if r_lo is not None and r_hi is not None:
        # before del.csv is written, so that the enumeration guard leaves no file
        rows = delsum.block_trend(
            sysm, b, h, range(r_lo, r_hi + 1), m_values=dc["m_values"], eps=eps
        )
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
    # the partition reads only (b, h) and the schedule, but the system
    # section is checked as in every command
    _system_from(cfg, sch)
    b, h = _context_pairs(cfg)[0]
    pc = _section(cfg, "partition")
    r, m = pc["r"], pc["m"]
    ctx = numtheory.build_context(b, h, sch)
    if r is None:
        r = ctx.r0 + 1
    cert = distribution.verify_partition(pc["I_start"], ctx, r, m=m)
    print(f"partition: certificate ok, J={cert.J} classes={cert.y_size}")
    hist = distribution.classify_Bk(cert.classes[0], ctx, r, m=m)
    path = os.path.join(out, pc["out"])
    _stamp_csv(path, cfg_hash, distribution._histogram_table(hist, ctx, r))
    _write_json_report(
        os.path.join(out, "partition.json"), cfg_hash, "partition", json.loads(cert.to_json())
    )
    return 0


def cmd_normality(cfg: dict, out: str, seed: int, cfg_hash: str) -> int:
    sch = _schedule_from(cfg)
    sysm = _system_from(cfg, sch)
    nc = _section(cfg, "normality")
    depth = sch.depth if nc["depth"] is None else nc["depth"]
    count, bases = nc["samples"], nc["bases"]
    rows = measure._normality_batch(sysm, seed, depth, count, bases, nc["guard"], nc["count"])
    path = os.path.join(out, nc["out"])
    _stamp_csv(path, cfg_hash, measure._normality_table(rows))
    print(f"normality: {count} samples x {len(bases)} bases -> {path}")
    return 0


def cmd_uniqueness(cfg: dict, out: str, seed: int, cfg_hash: str) -> int:
    sch = _schedule_from(cfg)
    sysm = _system_from(cfg, sch)
    uc = _section(cfg, "uniqueness")
    depth = sch.depth if uc["depth"] is None else uc["depth"]
    j_max, count = uc["j_max"], uc["samples"]
    default_j = sch.depth - 1
    if uc["kind"] == "dim-one":
        sysm = dimension.build_convolved(sysm, "dim-one")
        default_j = len(sysm.special_levels) - 1
    if j_max is None:
        j_max = max(1, default_j)
    rows = measure._uniqueness_batch(sysm, seed, depth, count, j_max)
    path = os.path.join(out, uc["out"])
    _stamp_csv(path, cfg_hash, measure._uniqueness_table(rows))
    print(f"uniqueness: {sum(v.passed for _, v in rows)}/{count} pass -> {path}")
    return 0


def cmd_dimension(cfg: dict, out: str, seed: int, cfg_hash: str) -> int:
    from fractions import Fraction

    sch = _schedule_from(cfg)
    sysm = _system_from(cfg, sch)
    dc = _section(cfg, "dimension", sch)
    gauge, eps, variant = dc["gauge"], dc["eps"], dc["variant"]
    band_lo, band_hi, local_depth = dc["band_lo"], dc["band_hi"], dc["local_depth"]
    phi = None if gauge is None else dimension.GaugeFunction(gauge["kind"], gauge["param"])
    csys = dimension.build_convolved(sysm, variant, phi, H_param=dc["H_param"])
    if variant == "dim-one":
        phi_of, scale = lambda r: float(r) ** (1.0 - eps), 8.0
    else:
        phi_of, scale = phi.value, 4.0

    pts = measure.sample_batch(csys, seed, sch.depth, dc["samples"])
    # one h(r) per band, shared by every sample and by the h_rate payload
    grid = [Fraction(1, sch.prefix_product(m)) for m in range(band_lo, band_hi + 1)]
    hrows = dimension.h_rate_report(sch, grid)
    bands = [(mband, hr.r, hr.h_r, phi_of(hr.r)) for mband, hr in enumerate(hrows, start=band_lo)]
    rows = []
    for pt in pts:
        for mband, r, h_r, phi_r in bands:
            ball = dimension._ball_measure(pt.value, r, csys, h_r)
            # checked per row: the ball (<= 4 phi(r) on gauge) can underflow
            # at an earlier band than phi(r)
            if phi_r == 0.0 or float(ball) == 0.0:
                raise OutOfRange(
                    f"band {mband}: the ball measure or phi(r) at r = 1/(M_1...M_{mband}) "
                    f"underflows double precision; lower dimension.band_hi"
                )
            ratio = float(ball) / (scale * phi_r)
            rows.append(
                dimension.BallRow(x_seed=pt.seed, r=r, h_r=h_r, ball=ball, phi_r=phi_r, ratio=ratio)
            )
    bpath = os.path.join(out, dc["ball_out"])
    _stamp_csv(bpath, cfg_hash, dimension._ball_table(rows))

    series = dimension.local_dim_series(pts[0], csys, local_depth)
    lpath = os.path.join(out, dc["local_out"])
    _stamp_csv(lpath, cfg_hash, dimension._local_dim_table(series, min(dc["burn_in"], local_depth)))

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


def _parse_args(argv: list[str]) -> tuple[str, str | None, str | None, int | None]:
    """(command, config, out, seed) from ``argv``; a flag not given is None.

    ``<command> [--config FILE] [--out DIR] [--seed N]``, each flag as
    ``--flag value`` or ``--flag=value``, the last occurrence winning; -h,
    --help and --version (before the command) print and exit 0. A usage
    error prints the usage line and exits 2, before any config is read.
    A flag is never abbreviated, and the argument after a flag is its value
    even when it begins with "-".
    """
    usage = f"usage: moranlab {{{','.join(_COMMANDS)}}} [--config FILE] [--out DIR] [--seed N]"

    def fail(message: str) -> NoReturn:
        print(f"{usage}\nmoranlab: error: {message}", file=sys.stderr)
        raise SystemExit(2)

    command, stray, flags = None, None, {"--config": None, "--out": None, "--seed": None}
    args = iter(argv)
    for arg in args:
        flag, eq, value = arg.partition("=")
        if arg in ("-h", "--help") or arg == "--version" and command is None:
            print(f"moranlab {__version__}" if arg == "--version" else f"{usage}\n\n{__doc__}")
            raise SystemExit(0)
        if command is None and not arg.startswith("-"):
            if arg not in _COMMANDS:
                fail(f"unknown command {arg!r}; choose from {', '.join(_COMMANDS)}")
            command = arg
        elif command is not None and flag in flags:
            value = value if eq else next(args, None)
            if value is None:
                fail(f"{flag} expects a value")
            if flag == "--seed":
                try:
                    value = int(value)
                except ValueError:
                    fail(f"--seed expects an integer, got {value!r}")
            flags[flag] = value
        else:
            # reported after the loop, so that a later -h still prints help
            # and a bad command or flag value is reported first
            stray = stray or arg
    if command is None:
        fail("a command is required")
    if stray is not None:
        fail(f"unrecognized argument {stray!r}")
    return command, flags["--config"], flags["--out"], flags["--seed"]


def main(argv: list[str] | None = None) -> int:
    command, config, out, seed = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        cfg = load_config(config)
        top = _section(cfg, "")
        seed = top["seed"] if seed is None else seed
        if not 0 <= seed < 2**64:
            raise InvalidParameter(f"seed must fit in 64 bits, got {seed}")
        cfg_hash = _config_hash(cfg, top, seed)
        out = out or os.environ.get("MORANLAB_OUT") or top["out_dir"] or "."
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise InvalidParameter(f"cannot write {exc.filename or out}: {exc}") from exc
        try:
            return _COMMANDS[command](cfg, out, seed, cfg_hash)
        except OSError as exc:
            # the artifact writers report their own failures, so this one is
            # a failed write to stdout (a closed pipe, a full device); it
            # exits with the interpreter's status for that, 120
            try:
                print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
            except OSError:  # stderr may be the same closed pipe
                pass
            return 120
    except MoranLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (TypeError, ValueError) as exc:
        # a value that no reader checks, such as an output name holding a NUL
        # byte reaching open(); every other reader raises InvalidParameter
        print(f"error: malformed config value: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Process entry point (``python -m moranlab``, ``python -m moranlab.cli``
    and the ``moranlab`` script): exit with ``main()``'s code.

    Once ``main()`` returns, the atexit callbacks run and stdout and stderr
    are flushed, then ``os._exit`` ends the process without tearing the
    interpreter down: every artifact is already closed by its ``with`` block.
    A usage exit or an exception from ``main()``, and any run under a tracer,
    profiler or ``sys.monitoring`` tool (``python -m cProfile``), take the
    normal exit instead.
    """
    code = main()
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12 and later; tool ids 0-5
    if (
        sys.gettrace() is not None
        or sys.getprofile() is not None
        or monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))
    ):
        raise SystemExit(code)
    atexit._run_exitfuncs()
    os._exit(_flush_std_files(code))


def _flush_std_files(code: int) -> int:
    # the interpreter's exit flush: stdout, a failure reported as an ignored
    # exception, then stderr silently; either failure makes the status 120.
    # Leaving a failed flush to the normal exit would hide it: TextIOWrapper
    # drops the chunk its failed flush was writing, so the second flush can
    # succeed and the process would exit 0 with no message
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None and not stream.closed:
                stream.flush()
        except Exception as exc:
            code = 120
            if stream is sys.stdout and sys.stderr is not None:
                import traceback

                lines = traceback.format_exception_only(type(exc), exc)
                try:  # stderr may be the same closed pipe
                    sys.stderr.write(f"Exception ignored in: {stream!r}\n{''.join(lines)}")
                except Exception:
                    pass
    return code


if __name__ == "__main__":
    run()
