#!/usr/bin/env python3
"""Generate the config-fault corpus that ``tests/test_config_corpus.py`` replays.

    PYTHONPATH=src python3 tools/config_corpus.py [OUTPUT]

For every config key it builds single-fault configs (one bad or edge value
on a small config that runs) and two-fault configs (two keys of one command
bad at once, so the order of the checks shows). Then, for the rule of each
section in ``moranlab.cli._RULES``, it builds configs that break the rule
once, twice (so the order of its own checks shows), and beside one other key
of its section (so its order against the section's keys shows). The rule
cases come last, so that the cases of the keys keep their places in the
file. Each config runs in process through ``moranlab.cli.main`` with
``--out`` in a fresh temporary directory, and the corpus records its exit
code and stderr bytes, with that directory written as ``<out>``. An
exception that escapes ``main`` is recorded as ``"raises <type>"``. A case
that exits 0 counts no faults, and a single-fault case that exits non-zero
counts its one value. A case of two values counts a value as a fault when it
exits non-zero alone and still does beside the other value's keys set to
values that pass (``_repaired``): a value that the other's keys make
unread, such as a schedule variant beside ``q``, is no fault there. So a
case with ``"faults": 2`` pins the order of two checks. OUTPUT defaults to
``tests/config_corpus.json``, one case per line. The corpus pins behaviour
as it is: regenerate it only for a change that means to move an exit code
or a message, and name each moved case where the change is described.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "config_corpus.json"
OUT = "<out>"

TOY = {"d": 1, "q": [7, 11], "ell": [1, 2]}
GAUGE = {"kind": "r_times_log_power", "param": 1.0}

# a small config per command that exits 0
BASE = {
    "schedule": {},
    "context": {"schedule": TOY},
    "fourier": {"fourier": {"xi_count": 2}},
    "del": {"del": {"N_max": 2, "r_lo": 1, "r_hi": 1}},
    "partition": {"schedule": TOY, "partition": {"r": 2}},
    "normality": {"schedule": TOY, "normality": {"samples": 2}},
    "uniqueness": {"schedule": TOY, "uniqueness": {"samples": 2}},
    "dimension": {"dimension": {"samples": 1, "band_hi": 3, "variant": "extreme", "gauge": GAUGE}},
}

# the sections each command reads ("" is the top level)
READS = {
    "schedule": ("", "schedule"),
    "context": ("", "schedule", "context"),
    "fourier": ("", "schedule", "system", "fourier", "context"),
    "del": ("", "schedule", "system", "context", "del"),
    "partition": ("", "schedule", "system", "context", "partition"),
    "normality": ("", "schedule", "system", "normality"),
    "uniqueness": ("", "schedule", "system", "uniqueness"),
    "dimension": ("", "schedule", "system", "dimension"),
}
SECTIONS = ("schedule", "system", "context", "fourier", "del", "partition", "normality",
            "uniqueness", "dimension")

# faults every key of a kind gets; the first is the kind's type fault
KIND_FAULTS = {
    "integer": [True, "3", 1.7, None, [1], -1, 0, 2.0],
    "real": [True, "0.5", "x", None, [1], "nan", "inf", -1, 0, 2],
    "fraction": [True, "x", "1/0", [1.5, 2], [1], [1, 0], 0, 1, "3/2", None, 0.5, "1/3"],
    "string": [True, 3, "bogus", None, []],
    "integers": [True, "x", 3, None, [], [True], [1.7], [-1], [2.0]],
    "integer or integers": [True, "3", 1.7, None, [], [1.7], [True], 2.0, [2, 2.5], 0, -2],
    "object": [True, 3, [1], "power", {"bogus": 1}, None],
    "name": [True, 3, None, "", "sub/x.csv", "..", ".", "x.csv"],
}

# (command, section, key, kind, key faults); the key faults come first, and
# the first fault of a key is its primary one, used in the two-fault configs
KEYS = [
    ("schedule", "", "seed", "integer", [-1, 2**64]),
    ("schedule", "", "workers", "integer", [0]),
    ("schedule", "", "out_dir", "string", []),
    ("schedule", "schedule", "d", "integer", []),
    ("schedule", "schedule", "count", "integer", []),
    ("schedule", "schedule", "variant", "string", ["cube-window"]),
    ("schedule", "schedule", "offset", "integer", []),
    ("schedule", "schedule", "q", "integers", [[7]]),
    ("schedule", "schedule", "ell", "integers", [[1]]),
    ("fourier", "system", "kind", "string", ["ternary"]),
    ("fourier", "system", "omega", "fraction", []),
    ("context", "context", "b", "integer or integers", [1]),
    ("context", "context", "h", "integer or integers", []),
    ("fourier", "fourier", "xis", "integers", []),
    ("fourier", "fourier", "xi_count", "integer", []),
    ("fourier", "fourier", "xi_max", "integer", []),
    ("fourier", "fourier", "eps", "real", [5]),
    ("fourier", "fourier", "out", "name", ["sub/x.csv"]),
    ("del", "del", "N_max", "integer", []),
    ("del", "del", "eps", "real", [5]),
    ("del", "del", "r_lo", "integer", []),
    ("del", "del", "r_hi", "integer", [9]),
    ("del", "del", "m_values", "integers", []),
    ("del", "del", "out", "name", ["del_blocks.csv"]),
    ("del", "del", "blocks_out", "name", ["del.csv"]),
    ("partition", "partition", "r", "integer", []),
    ("partition", "partition", "m", "integer", [5]),
    ("partition", "partition", "I_start", "integer", []),
    ("partition", "partition", "out", "name", ["partition.json"]),
    ("normality", "normality", "depth", "integer", [999]),
    ("normality", "normality", "samples", "integer", []),
    ("normality", "normality", "guard", "integer", []),
    ("normality", "normality", "bases", "integers", [[1]]),
    ("normality", "normality", "count", "integer", []),
    ("normality", "normality", "out", "name", ["sub/x.csv"]),
    ("uniqueness", "uniqueness", "depth", "integer", [999]),
    ("uniqueness", "uniqueness", "j_max", "integer", [999]),
    ("uniqueness", "uniqueness", "samples", "integer", []),
    ("uniqueness", "uniqueness", "kind", "string", ["dim-one"]),
    ("uniqueness", "uniqueness", "out", "name", ["sub/x.csv"]),
    ("dimension", "dimension", "gauge", "object", []),
    ("dimension", "dimension.gauge", "kind", "string", ["power"]),
    ("dimension", "dimension.gauge", "param", "real", []),
    ("dimension", "dimension", "eps", "real", []),
    ("dimension", "dimension", "band_lo", "integer", [5]),
    ("dimension", "dimension", "band_hi", "integer", [999]),
    ("dimension", "dimension", "samples", "integer", []),
    ("dimension", "dimension", "local_depth", "integer", [999]),
    ("dimension", "dimension", "H_param", "real", []),
    ("dimension", "dimension", "burn_in", "integer", []),
    ("dimension", "dimension", "variant", "string", ["dim-one", "gauge"]),
    ("dimension", "dimension", "ball_out", "name", ["local_dim.csv"]),
    ("dimension", "dimension", "local_out", "name", ["dimension.json"]),
]

# keys read only beside these others
PARTNERS = {
    ("schedule", "q"): {"ell": [1, 2]},
    ("schedule", "ell"): {"q": [7, 11]},
    ("schedule", "offset"): {"variant": "cube-window"},
}


# per section of moranlab.cli._RULES: the command that reads it and section
# values that break its rule once each, the first of them the primary fault
# used beside the section's other keys
RULE_FAULTS = {
    "system": ("fourier", [{"kind": "ternary"}, {"kind": True}]),
    "del": ("del", [{"r_lo": 2, "r_hi": 1}, {"r_lo": 0}, {"r_hi": 9}]),
    "normality": ("normality", [{"bases": [2, 1]}, {"bases": []}, {"count": -1}]),
    "uniqueness": ("uniqueness", [{"kind": "bogus"}, {"kind": True}]),
    "dimension": (
        "dimension",
        [
            {"band_lo": 4},
            {"band_hi": 999},
            {"band_hi": None, "band_lo": 10},
            {"local_depth": 11},
            {"gauge": None},
            {"variant": "bogus", "gauge": None},
            {"variant": "dim-one", "H_param": -1},
            {"variant": "gauge", "H_param": "inf"},
        ],
    ),
}


def _faults(kind: str, extra: list) -> list:
    # JSON text tells true from 1 and 2 from 2.0
    faults = list(extra)
    for value in KIND_FAULTS[kind]:
        if json.dumps(value) not in map(json.dumps, faults):
            faults.append(value)
    return faults


def _with(config: dict, section: str, key: str, value) -> dict:
    config = json.loads(json.dumps(config))
    node = config
    for part in filter(None, section.split(".")):
        if not isinstance(node.get(part), dict):
            node[part] = {}
        node = node[part]
    for partner, good in PARTNERS.get((section, key), {}).items():
        node.setdefault(partner, good)
    node[key] = value
    return config


def _with_values(config: dict, section: str, values: dict) -> dict:
    # values set as they are, without the partners of _with
    config = json.loads(json.dumps(config))
    config[section] = {**config.get(section, {}), **values}
    return config


def _leaves(config: dict, path: tuple = ()):
    for key, value in config.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


_MISSING = object()


def _at(config: dict, path: tuple):
    for part in path:
        if not isinstance(config, dict) or part not in config:
            return _MISSING
        config = config[part]
    return config


# a value that passes for each key some base config sets
GOOD = {path: value for base in BASE.values() for path, value in _leaves(base)}


def _repaired(config: dict, part: dict, kept: dict, base: dict) -> dict:
    """config with every key that part sets apart from base, and kept does
    not, put back to a value that passes: the one a base config gives it, or
    its default."""
    config = json.loads(json.dumps(config))
    for path, value in _leaves(part):
        if _at(base, path) == value or _at(kept, path) != _at(base, path):
            continue
        node = _at(config, path[:-1])
        if path in GOOD:
            node[path[-1]] = GOOD[path]
        else:
            node.pop(path[-1], None)
    return config


def cases() -> list[tuple[str, dict, tuple[dict, ...]]]:
    """(command, config, the one-value configs it joins) per case: none for a
    base config, the config itself for a single fault."""
    out = []

    def single(command: str, config: dict) -> None:
        out.append((command, config, (config,)))

    # the whole config, and sections that are not objects or hold unknown keys
    for command, base in BASE.items():
        out.append((command, base, ()))
        single(command, {**base, "bogus": 1})
        for section in SECTIONS:
            for value in (3, None, {"bogus": 1}):
                single(command, {**base, section: value})
    # single faults
    for command, section, key, kind, extra in KEYS:
        for value in _faults(kind, extra):
            single(command, _with(BASE[command], section, key, value))
    # two faults in one command's keys: both primary, and both type faults
    by_command: dict[str, list] = {}
    for command, section, key, kind, extra in KEYS:
        by_command.setdefault(command, []).append((section, key, _faults(kind, extra)))
    for command, keys in by_command.items():
        for (s1, k1, f1), (s2, k2, f2) in combinations(keys, 2):
            for v1, v2 in ((f1[0], f2[0]), (True, True)):
                parts = (_with(BASE[command], s1, k1, v1), _with(BASE[command], s2, k2, v2))
                out.append((command, _with(_with(BASE[command], s1, k1, v1), s2, k2, v2), parts))
    # a type fault upstream of each primary fault, in the sections read first
    for command, section, key, kind, extra in KEYS:
        if section in ("", "schedule", "system", "context"):
            continue
        primary = _faults(kind, extra)[0]
        for up_section, up_key in (("schedule", "d"), ("system", "omega"), ("context", "b")):
            if up_section in READS[command]:
                config = _with(BASE[command], up_section, up_key, True)
                parts = (config, _with(BASE[command], section, key, primary))
                out.append((command, _with(config, section, key, primary), parts))
    # each rule broken once, twice where two faults set different keys, then
    # beside a primary fault and a type fault of every other key of its section
    from moranlab.cli import _RULES

    for section, (command, faults) in RULE_FAULTS.items():
        keys = _RULES[section][0]
        broken = [_with_values(BASE[command], section, values) for values in faults]
        for config in broken:
            single(command, config)
        for (first, one), (second, other) in combinations(zip(faults, broken), 2):
            if not set(first) & set(second):
                config = _with_values(BASE[command], section, {**first, **second})
                out.append((command, config, (one, other)))
        for _, other_section, key, kind, extra in KEYS:
            if other_section == section and key not in keys:
                for value in (_faults(kind, extra)[0], True):
                    parts = (broken[0], _with(BASE[command], section, key, value))
                    out.append((command, _with(broken[0], section, key, value), parts))
    return out


def replay(command: str, config: dict, tmp: Path) -> tuple[object, str]:
    """Run one config through ``main`` in process: (exit code, stderr)."""
    from moranlab.cli import main

    path = tmp / "cfg.json"
    path.write_text(json.dumps(config))
    out = tempfile.mkdtemp(dir=tmp)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = main([command, "--config", str(path), "--out", out])
        except Exception as exc:  # recorded, so that a change to it shows
            rc = f"raises {type(exc).__name__}"
    return rc, err.getvalue().replace(out, OUT)


def main(argv: list[str]) -> int:
    target = Path(argv[0]) if argv else CORPUS
    seen = set()
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        alone: dict[str, bool] = {}

        def fails(command: str, part: dict) -> bool:
            key = json.dumps([command, part], sort_keys=True)
            if key not in alone:
                alone[key] = replay(command, part, Path(tmp))[0] != 0
            return alone[key]

        for command, config, parts in cases():
            key = json.dumps([command, config], sort_keys=True)
            if key in seen:
                continue
            seen.add(key)
            rc, err = replay(command, config, Path(tmp))
            if rc == 0 or not parts:
                faults = 0
            elif len(parts) == 1:
                faults = 1
            else:
                base = BASE[command]
                faults = sum(
                    fails(command, one) and fails(command, _repaired(config, other, one, base))
                    for one, other in (parts, parts[::-1])
                )
            case = {"command": command, "faults": faults, "config": config, "rc": rc, "stderr": err}
            lines.append(json.dumps(case))
    target.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"{len(lines)} configs -> {target}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main(sys.argv[1:]))
