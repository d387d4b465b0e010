"""End-to-end checks of the JSON-config command line.

Everything runs in-process through moranlab.cli.main so exit codes, stdout,
and written artifacts can be asserted directly; one subprocess smoke test
covers the ``python -m moranlab`` entry point.
"""

import calendar
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import moranlab
from moranlab import __version__, binary_system, build_schedule, cli
from moranlab.cli import OFFSET_FLAG, main
from moranlab.errors import (
    CounterexampleFound,
    InvalidParameter,
    MoranLabError,
    OutOfRange,
    ScheduleTooShort,
    TooLarge,
)
from moranlab.rng import derive_seed

from oracles import mp_mu_hat

TOY_SCHEDULE = {"d": 1, "q": [7, 11], "ell": [1, 2]}


@pytest.fixture(autouse=True)
def _isolated_env(monkeypatch, tmp_path):
    # keep ambient env vars and the repo cwd out of every test
    monkeypatch.delenv("MORANLAB_OUT", raising=False)
    monkeypatch.chdir(tmp_path)


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def cfg_file(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_report(out_dir, name):
    with open(out_dir / name) as fh:
        return json.load(fh)


def csv_lines(path):
    return path.read_text().splitlines()


# --------------------------------------------------------------------------
# parser level


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0
    assert capsys.readouterr().out.strip() == f"moranlab {__version__}"


def test_subcommand_required(capsys):
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2
    capsys.readouterr()


def _argparse_reference(argv):
    """The argparse parser main() used before it parsed argv itself:
    (command, config, out, seed), or the exit code it stopped with."""
    import argparse

    parser = argparse.ArgumentParser(prog="moranlab", description=cli.__doc__)
    parser.add_argument("--version", action="version", version=f"moranlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in cli._COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="64-bit seed")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    return args.command, args.config, args.out, args.seed


def _parsed(argv):
    try:
        return cli._parse_args(argv)
    except SystemExit as exc:
        return exc.code


# argv that both parsers read alike: a result tuple, or the same exit code
SAME_AS_ARGPARSE = [
    [],
    ["schedule"],
    *([name, "--seed", "3"] for name in cli._COMMANDS),
    ["fourier", "--config", "c.json", "--out", "o", "--seed", "5"],
    ["del", "--seed=7", "--out=o", "--config=c.json"],
    ["schedule", "--seed", "1", "--seed", "2"],
    ["schedule", "--out", "a", "--out=b", "--config", "x", "--config=y"],
    ["schedule", "--seed", "-1"],
    ["schedule", "--seed", " 12 "],
    ["schedule", "--seed", "1_000"],
    ["schedule", "--seed", "18446744073709551616"],
    ["schedule", "--out="],
    ["schedule", "--config", "a=b.json", "--out", "x=y"],
    ["schedule", "--out", "-1"],
    ["bogus"],
    [""],
    ["-x"],
    ["--seed", "1", "schedule"],
    ["--config=c.json", "schedule"],
    ["schedule", "--workers", "2"],
    ["schedule", "--workers=2"],
    ["schedule", "--seed"],
    ["schedule", "--config"],
    ["schedule", "--out", "o", "--out"],
    ["schedule", "--seed", "x"],
    ["schedule", "--seed", "1.5"],
    ["schedule", "--seed="],
    ["schedule", "extra"],
    ["schedule", "fourier"],
    ["schedule", "--version"],
    ["schedule", "--help=x"],
    ["schedule", "--seed5"],
    ["schedule", "--seed", "x", "-h"],
    ["bogus", "-h"],
    ["-h"],
    ["--help"],
    ["-h", "bogus"],
    ["schedule", "-h"],
    ["schedule", "--workers", "-h"],
    ["schedule", "extra", "--help"],
    ["--version"],
    ["--version", "schedule"],
    ["--bogus", "--version"],
]


@pytest.mark.parametrize(
    "argv", SAME_AS_ARGPARSE, ids=lambda argv: "+".join(argv).replace(" ", "_") or "none"
)
def test_parser_matches_argparse(capsys, argv):
    assert _parsed(argv) == _argparse_reference(argv)
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, ours",
    [
        (["schedule", "--conf", "c.json"], 2),
        (["schedule", "--se", "3"], 2),
        (["--vers"], 2),
    ],
    ids=["--conf", "--se", "--vers"],
)
def test_flags_are_never_abbreviated(capsys, argv, ours):
    # argparse took a unique prefix of a flag as the flag
    assert _argparse_reference(argv) != ours
    assert _parsed(argv) == ours
    assert "moranlab: error: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, ours",
    [
        (["schedule", "--out", "-o"], ("schedule", None, "-o", None)),
        (["schedule", "--config", "--out"], ("schedule", "--out", None, None)),
        (["schedule", "--out", "-h"], ("schedule", None, "-h", None)),
    ],
    ids=["-o", "--out", "-h"],
)
def test_value_beginning_with_a_dash_is_the_flags_value(capsys, argv, ours):
    # argparse took such a value for a flag and stopped with "expected one argument"
    assert _argparse_reference(argv) == 2
    assert _parsed(argv) == ours
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "a command is required"),
        (["bogus", "--config", "MISSING"], "unknown command 'bogus'; choose from "
         + ", ".join(cli._COMMANDS)),
        (["schedule", "--config", "MISSING", "--workers", "2"],
         "unrecognized argument '--workers'"),
        (["schedule", "--config", "MISSING", "--seed"], "--seed expects a value"),
        (["schedule", "--config", "MISSING", "--seed", "x"], "--seed expects an integer, got 'x'"),
        (["schedule", "--config", "MISSING", "extra"], "unrecognized argument 'extra'"),
    ],
    ids=["no-command", "unknown-command", "unknown-flag", "missing-value", "bad-seed", "stray"],
)
def test_usage_error_prints_usage_and_exits_2_before_the_config_is_read(
    tmp_path, capsys, argv, message
):
    # a config that cannot be read would exit 2 too, with "error: cannot read config"
    missing = str(tmp_path / "missing.json")
    with pytest.raises(SystemExit) as ei:
        main([missing if arg == "MISSING" else arg for arg in argv])
    assert ei.value.code == 2
    cap = capsys.readouterr()
    usage, error = cap.err.splitlines()
    assert usage.startswith("usage: moranlab {schedule,context,") and "[--seed N]" in usage
    assert error == f"moranlab: error: {message}"
    assert cap.out == ""


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_flag(capsys, flag):
    for argv in ([flag], ["dimension", "--seed", "1", flag]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 0
        cap = capsys.readouterr()
        assert cap.out.startswith("usage: moranlab {") and cli.__doc__ in cap.out
        assert cap.err == ""


def test_module_entrypoint():
    # the autouse fixture moved cwd, so hand the child an absolute import path
    src = str(Path(moranlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "moranlab", "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("moranlab ")


def test_exit_code_mapping():
    assert MoranLabError("x").exit_code == 3
    assert InvalidParameter("x").exit_code == 2
    assert CounterexampleFound("x").exit_code == 4
    assert TooLarge("x").exit_code == 5
    # everything else is a precondition failure
    assert OutOfRange("x").exit_code == 3
    assert ScheduleTooShort("x").exit_code == 3


# --------------------------------------------------------------------------
# config validation


def test_config_shape_errors(tmp_path, capsys):
    bad = [
        str(tmp_path / "missing.json"),
        cfg_file(tmp_path, None, "null.json"),
        cfg_file(tmp_path, [1, 2], "list.json"),
        cfg_file(tmp_path, {"bogus": 1}, "topkey.json"),
        cfg_file(tmp_path, {"schedule": {"primes": [7]}}, "seckey.json"),
        cfg_file(tmp_path, {"schedule": {"q": [7, 11]}}, "qonly.json"),
    ]
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    bad.append(str(broken))
    for path in bad:
        rc, _, err = run(capsys, "schedule", "--config", path, "--out", str(tmp_path))
        assert rc == 2, path
        assert err.startswith("error:"), path
    # the system section is only read by commands that build a measure
    path = cfg_file(tmp_path, {"system": {"kind": "ternary"}}, "kind.json")
    rc, _, err = run(capsys, "fourier", "--config", path, "--out", str(tmp_path))
    assert rc == 2 and "ternary" in err


@pytest.mark.parametrize(
    "cfg, where, got",
    [
        ({"dimension": 3}, "dimension", "3"),
        ({"schedule": None}, "schedule", "None"),
        ({"dimension": {"gauge": [1]}}, "dimension.gauge", "[1]"),
        ({"dimension": {"gauge": "power"}}, "dimension.gauge", "'power'"),
    ],
    ids=["dimension=3", "schedule=null", "gauge=[1]", "gauge=string"],
)
def test_section_that_is_not_an_object_is_named(tmp_path, capsys, cfg, where, got):
    # {"dimension": 3} used to exit with "'int' object is not iterable", and
    # a list or string gauge was read as a set of unknown keys
    path = cfg_file(tmp_path, cfg)
    rc, out, err = run(capsys, "dimension", "--config", path, "--out", str(tmp_path / "out"))
    assert rc == 2
    assert err == f"error: malformed config value: {where} must be an object, got {got}\n"
    assert out == "" and not list(tmp_path.glob("out/*"))


def test_flag_validation(tmp_path, capsys):
    rc, _, err = run(capsys, "schedule", "--seed", "-1", "--out", str(tmp_path))
    assert rc == 2 and "seed" in err
    # there is no --workers flag: the parser rejects it before any run
    with pytest.raises(SystemExit) as ei:
        main(["schedule", "--workers", "2", "--out", str(tmp_path)])
    assert ei.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_malformed_config_value(tmp_path, capsys):
    path = cfg_file(tmp_path, {"del": {"N_max": "ten"}})
    rc, _, err = run(capsys, "del", "--config", path, "--out", str(tmp_path))
    assert rc == 2
    assert "malformed config value" in err


def test_workers_env_fallback(tmp_path, capsys, monkeypatch):
    # MORANLAB_WORKERS is ignored: it neither fails a run nor moves a byte
    rc, _, _ = run(capsys, "schedule", "--out", str(tmp_path / "plain"))
    assert rc == 0
    plain = (tmp_path / "plain" / "schedule.json").read_bytes()
    for value in ("0", "abc", "2"):
        monkeypatch.setenv("MORANLAB_WORKERS", value)
        d = tmp_path / f"env{value}"
        rc, _, _ = run(capsys, "schedule", "--out", str(d))
        assert rc == 0
        assert (d / "schedule.json").read_bytes() == plain

    # the config key is still validated
    path = cfg_file(tmp_path, {"workers": 0})
    rc, _, err = run(capsys, "schedule", "--config", path, "--out", str(tmp_path))
    assert rc == 2 and "workers" in err
    path = cfg_file(tmp_path, {"workers": "abc"})
    rc, _, err = run(capsys, "schedule", "--config", path, "--out", str(tmp_path))
    assert rc == 2 and "malformed config value" in err
    path = cfg_file(tmp_path, {"workers": 2})
    rc, _, _ = run(capsys, "schedule", "--config", path, "--out", str(tmp_path))
    assert rc == 0


def test_out_dir_precedence(tmp_path, capsys, monkeypatch):
    flag_dir = tmp_path / "flagd"
    env_dir = tmp_path / "envd"
    cfg_dir = tmp_path / "cfgd"
    path = cfg_file(tmp_path, {"out_dir": str(cfg_dir)})

    monkeypatch.setenv("MORANLAB_OUT", str(env_dir))
    rc, _, _ = run(capsys, "schedule", "--config", path, "--out", str(flag_dir))
    assert rc == 0
    assert (flag_dir / "schedule.json").exists()
    assert not env_dir.exists() and not cfg_dir.exists()

    rc, _, _ = run(capsys, "schedule", "--config", path)
    assert rc == 0
    assert (env_dir / "schedule.json").exists()
    assert not cfg_dir.exists()

    monkeypatch.delenv("MORANLAB_OUT")
    rc, _, _ = run(capsys, "schedule", "--config", path)
    assert rc == 0
    assert (cfg_dir / "schedule.json").exists()


@pytest.mark.parametrize("flags", [[], ["--out", "out"]], ids=["config", "flag"])
@pytest.mark.parametrize("value", [3, True, []], ids=repr)
def test_out_dir_must_be_a_string(tmp_path, capsys, flags, value):
    # 3 used to reach os.makedirs and exit naming no key, and --out hid it
    path = cfg_file(tmp_path, {"out_dir": value})
    rc, out, err = run(capsys, "schedule", "--config", path, *flags)
    assert rc == 2
    assert err == f"error: malformed config value: out_dir must be a string, got {value!r}\n"
    assert out == "" and not (tmp_path / "out").exists()


def test_null_byte_in_an_output_name_is_malformed(tmp_path, capsys):
    # no reader looks for NUL bytes; open() raises ValueError, which main maps to 2
    path = cfg_file(tmp_path, {"fourier": {"xi_count": 2, "out": "a\u0000b"}})
    rc, out, err = run(capsys, "fourier", "--config", path, "--out", str(tmp_path / "out"))
    assert rc == 2
    assert err == "error: malformed config value: embedded null byte\n"
    assert out == "" and not list((tmp_path / "out").iterdir())


# --------------------------------------------------------------------------
# schedule / context


def test_schedule_default(tmp_path, capsys):
    rc, out, _ = run(capsys, "schedule", "--out", str(tmp_path))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "schedule d=2 variant=nth-prime-from-7 depth=10"
    assert OFFSET_FLAG not in out
    assert "1 7" in lines and "10 17" in lines
    assert "4 155420804539 10" in lines

    report = read_report(tmp_path, "schedule.json")
    assert report["command"] == "schedule"
    assert report["version"] == __version__
    assert len(report["config_sha256"]) == 64
    payload = report["payload"]
    assert payload["q"] == [7, 11, 13, 17]
    assert payload["ell"] == [1, 2, 3, 4]
    assert payload["variant"] == "nth-prime-from-7"
    assert "flag" not in payload


def test_schedule_cube_window_flag(tmp_path, capsys):
    path = cfg_file(tmp_path, {"schedule": {"d": 1, "count": 2, "variant": "cube-window", "offset": 2}})
    rc, out, _ = run(capsys, "schedule", "--config", path, "--out", str(tmp_path))
    assert rc == 0
    assert OFFSET_FLAG in out
    payload = read_report(tmp_path, "schedule.json")["payload"]
    assert payload["q"] == [29, 67]
    assert payload["variant"] == "cube-window(offset=2)"
    assert payload["flag"] == OFFSET_FLAG


def test_schedule_cube_window_beyond_primality_bound(tmp_path, capsys):
    # (1 + 149200000)^3 is past psi_13, where Miller-Rabin over 2..41 stops being exact
    path = cfg_file(tmp_path, {"schedule": {"count": 1, "variant": "cube-window", "offset": 149200000}})
    rc, _, err = run(capsys, "schedule", "--config", path, "--out", str(tmp_path))
    assert rc == 3
    assert "exact primality bound" in err and "Traceback" not in err


def test_context_toy(tmp_path, capsys):
    path = cfg_file(tmp_path, {"schedule": TOY_SCHEDULE})
    rc, out, _ = run(capsys, "context", "--config", path, "--out", str(tmp_path))
    assert rc == 0
    assert "b=2 h=1: r0=1 Q=1 gamma=0.866025 r1=19798" in out
    payload = read_report(tmp_path, "context.json")["payload"]
    assert payload[0]["Q"] == "1"
    assert payload[0]["r1"] == 19798


def test_context_base_beyond_schedule(tmp_path, capsys):
    path = cfg_file(tmp_path, {"schedule": TOY_SCHEDULE, "context": {"b": [13], "h": [1]}})
    rc, _, err = run(capsys, "context", "--config", path, "--out", str(tmp_path))
    assert rc == 3
    assert err.startswith("error:") and "13" in err


# --------------------------------------------------------------------------
# fourier


def test_fourier_explicit_frequencies(tmp_path, capsys):
    path = cfg_file(tmp_path, {"fourier": {"xis": [0, 1, 847, 1860859]}})
    rc, out, _ = run(capsys, "fourier", "--config", path, "--out", str(tmp_path))
    assert rc == 0
    assert "fourier: 4 frequencies" in out
    lines = csv_lines(tmp_path / "fourier.csv")
    assert len(lines) == 7
    assert lines[2] == "xi,lo,hi,truncation_level,w,gamma_pow_w"
    assert lines[3].startswith("0,1.0,1.0")  # hat at 0 is exactly 1


def test_fourier_sampled_frequencies(tmp_path, capsys):
    path = cfg_file(tmp_path, {"fourier": {"xi_count": 5, "eps": 1e-6}})
    rc, out, _ = run(capsys, "fourier", "--config", path, "--out", str(tmp_path))
    assert rc == 0
    assert "fourier: 5 frequencies" in out
    assert len(csv_lines(tmp_path / "fourier.csv")) == 8


def test_fourier_gamma_pow_w_bounds_the_modulus_off_half(tmp_path, capsys):
    # gamma used to come from a context with the default weights (1/2, 1/2)
    # whatever system.omega was; this row then had gamma_pow_w
    # 0.42187499999999983 below lo 0.4219624368546447
    cfg = {
        "schedule": {"d": 2, "count": 7},
        "system": {"omega": "1/10"},
        "fourier": {"xis": [620258], "eps": 1e-12},
    }
    rc, _, err = run(capsys, "fourier", "--config", cfg_file(tmp_path, cfg), "--out", str(tmp_path))
    assert rc == 0, err
    xi, lo, hi, level, w, gamma_pow_w = csv_lines(tmp_path / "fourier.csv")[3].split(",")
    assert (xi, lo, w) == ("620258", "0.4219624368546447", "6")
    assert float(lo) <= float(hi) <= float(gamma_pow_w)
    sysm = binary_system(build_schedule(d=2, count=7), Fraction(1, 10))
    assert mp_mu_hat(620258, sysm, dps=40) <= mpmath.mpf(gamma_pow_w)


def test_fourier_workers_do_not_change_bytes(tmp_path, capsys):
    section = {"fourier": {"xis": [0, 1, 847, 1860859]}}
    outs = []
    for n, extra in enumerate(({}, {"workers": 3})):
        path = cfg_file(tmp_path, {**section, **extra}, f"w{n}.json")
        d = tmp_path / f"w{n}"
        rc, _, _ = run(capsys, "fourier", "--config", path, "--out", str(d))
        assert rc == 0
        # drop the timestamp and hash comments; the hash covers the workers key
        outs.append(csv_lines(d / "fourier.csv")[2:])
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "command, section, key",
    [
        ("fourier", "fourier", "xi_max"),
        ("fourier", "fourier", "xi_count"),
        ("normality", "normality", "samples"),
        ("normality", "normality", "guard"),
        ("uniqueness", "uniqueness", "samples"),
    ],
)
def test_negative_sizes_are_parameter_errors(tmp_path, capsys, command, section, key):
    for value in (-1, -5):
        path = cfg_file(tmp_path, {"schedule": TOY_SCHEDULE, section: {key: value}})
        rc, _, err = run(capsys, command, "--config", path, "--out", str(tmp_path))
        assert rc == 2
        assert err.startswith(f"error: {section}.{key} must be >= 0, got {value}")
    # zero stays valid
    path = cfg_file(tmp_path, {"schedule": TOY_SCHEDULE, section: {key: 0}})
    rc, _, err = run(capsys, command, "--config", path, "--out", str(tmp_path))
    assert rc == 0, err


@pytest.mark.parametrize("command", ["context", "fourier", "del", "partition"])
@pytest.mark.parametrize("pairs", [{"b": [2], "h": []}, {"b": [], "h": [1]}])
def test_empty_context_lists_are_parameter_errors(tmp_path, capsys, command, pairs):
    path = cfg_file(tmp_path, {"schedule": TOY_SCHEDULE, "context": pairs})
    rc, _, err = run(capsys, command, "--config", path, "--out", str(tmp_path))
    assert rc == 2
    assert err.startswith("error: context needs at least one b and one h")
    assert not (tmp_path / "context.json").exists()


@pytest.mark.parametrize("command", ["fourier", "del", "partition"])
@pytest.mark.parametrize(
    "pairs, message",
    [
        ({"b": [2, 1]}, "b must be an integer >= 2, got 1"),
        ({"b": [2], "h": [1, 0]}, "h must be a non-zero integer, got 0"),
    ],
)
def test_single_pair_commands_check_every_pair(tmp_path, capsys, command, pairs, message):
    # the command uses only the first pair, but a bad later one is refused
    # before any artifact is written
    out = tmp_path / "out"
    path = cfg_file(tmp_path, {"schedule": TOY_SCHEDULE, "context": pairs})
    rc, stdout, err = run(capsys, command, "--config", path, "--out", str(out))
    assert (rc, stdout, err) == (2, "", f"error: {message}\n")
    assert list(out.iterdir()) == []


def test_context_checks_every_pair_before_the_first_is_built(tmp_path, capsys):
    out = tmp_path / "out"
    path = cfg_file(tmp_path, {"schedule": TOY_SCHEDULE, "context": {"b": [2, 1]}})
    rc, stdout, err = run(capsys, "context", "--config", path, "--out", str(out))
    assert (rc, stdout, err) == (2, "", "error: b must be an integer >= 2, got 1\n")
    assert list(out.iterdir()) == []


# config_sha256 of three runs, recorded before the workers flag and env var
# were removed; the bench configs spectrum_* set "workers": 2
BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"


@pytest.mark.parametrize(
    "argv, name, digest",
    [
        (
            ["fourier", "--config", str(BENCH_CONFIGS / "spectrum_shallow.json"), "--seed", "1"],
            "fourier.csv",
            "1c1eafedaf89ecdbfc99e527805cc0890d5194307d9d7da26e31c1208e9071ac",
        ),
        (
            ["del", "--config", str(BENCH_CONFIGS / "orbit_del_blocks.json"), "--seed", "1"],
            "del.csv",
            "dcfb3acb67a4edcf57809c455bef0dd489ed009062c37c326d18dfa5f0400cef",
        ),
        (
            ["schedule", "--seed", "0"],
            "schedule.json",
            "9db9c30d542b1270ca88f8e8c1c039a81f7ec73998b84f4734436c9017b4ccd7",
        ),
    ],
)
def test_config_sha256_is_pinned(tmp_path, capsys, argv, name, digest):
    rc, _, _ = run(capsys, *argv, "--out", str(tmp_path))
    assert rc == 0
    text = (tmp_path / name).read_text()
    if name.endswith(".json"):
        assert json.loads(text)["config_sha256"] == digest
    else:
        assert text.splitlines()[1] == f"# config_sha256: {digest} version: {__version__}"


# --------------------------------------------------------------------------
# del


def test_del_first_term(tmp_path, capsys):
    path = cfg_file(tmp_path, {"del": {"N_max": 1}})
    rc, out, _ = run(capsys, "del", "--config", path, "--out", str(tmp_path))
    assert rc == 0
    assert out.startswith("del: N_max=1 sum=1.0")
    lines = csv_lines(tmp_path / "del.csv")
    assert len(lines) == 4
    assert lines[0].startswith("# generated: ")
    assert lines[1].startswith("# config_sha256: ") and " version: " in lines[1]
    assert lines[2] == "N,increment,cumulative,radius"
    assert lines[3].startswith("1,1.0,1.0")


def test_del_block_rows(tmp_path, capsys):
    path = cfg_file(tmp_path, {"del": {"N_max": 1, "r_lo": 1, "r_hi": 1, "m_values": [0]}})
    rc, out, _ = run(capsys, "del", "--config", path, "--out", str(tmp_path))
    assert rc == 0
    assert "del blocks: 1 rows" in out
    lines = csv_lines(tmp_path / "del_blocks.csv")
    assert lines[2] == "r,m,block_sum,bound_with_derived_constants,flag"
    assert lines[3] == "1,0,3.701365260350612,14.0,asymptotic-regime-only"


def test_del_block_enumeration_guard(tmp_path, capsys):
    path = cfg_file(tmp_path, {"del": {"N_max": 2, "r_lo": 3, "r_hi": 3}})
    rc, out, err = run(capsys, "del", "--config", path, "--out", str(tmp_path / "out"))
    assert rc == 5
    assert "guard" in err
    # the block report runs before del.csv is written
    assert out == "" and not list((tmp_path / "out").iterdir())


def test_del_n_max_guard(tmp_path, capsys, monkeypatch):
    # the N_max^2 frequency grid is refused before any of it is built, so a
    # huge N_max exits 5 at once instead of exhausting memory; the guard is
    # first seen to hold at N_max = 1, so the huge run below is never unguarded
    with monkeypatch.context() as patch:
        patch.setattr(moranlab.delsum, "BLOCK_GUARD", 0)
        path = cfg_file(tmp_path, {"del": {"N_max": 1}})
        rc, _, _ = run(capsys, "del", "--config", path, "--out", str(tmp_path / "one"))
    assert rc == 5
    path = cfg_file(tmp_path, {"del": {"N_max": 10**9}})
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "del", "--config", path, "--out", str(tmp_path / "out"))
    elapsed = time.perf_counter() - t0
    assert rc == 5
    assert err == f"error: N_max^2 = {10**18} exceeds the enumeration guard 100000\n"
    assert out == "" and not list((tmp_path / "out").iterdir())
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "blocks, message",
    [
        ({"m_values": [-1], "r_lo": 1, "r_hi": 1}, "del.m_values must be >= 0, got -1"),
        ({"r_lo": 0, "r_hi": 1}, "del.r_lo and del.r_hi must satisfy 1 <= r_lo <= r_hi <= 4, got 0 and 1"),
        ({"r_lo": 2, "r_hi": 1}, "del.r_lo and del.r_hi must satisfy 1 <= r_lo <= r_hi <= 4, got 2 and 1"),
        ({"r_lo": 1, "r_hi": 5}, "del.r_lo and del.r_hi must satisfy 1 <= r_lo <= r_hi <= 4, got 1 and 5"),
        ({"eps": True}, "malformed config value: del.eps must be a number, got True"),
    ],
    ids=["m=-1", "r_lo=0", "r_lo>r_hi", "r_hi>len(q)", "eps=true"],
)
def test_del_rejected_block_report_writes_nothing(tmp_path, capsys, blocks, message):
    # the block range used to be checked inside block_trend, after del.csv was written
    path = cfg_file(tmp_path, {"del": {"N_max": 2, **blocks}})
    rc, out, err = run(capsys, "del", "--config", path, "--out", str(tmp_path / "out"))
    assert rc == 2
    assert err == f"error: {message}\n"
    assert out == "" and not list((tmp_path / "out").iterdir())


@pytest.mark.parametrize("command", ["context", "fourier", "del", "partition"])
@pytest.mark.parametrize(
    "pair, message",
    [
        ({"b": 1}, "b must be an integer >= 2, got 1"),
        ({"b": 0}, "b must be an integer >= 2, got 0"),
        ({"b": -2}, "b must be an integer >= 2, got -2"),
        ({"h": 0}, "h must be a non-zero integer, got 0"),
    ],
    ids=["b=1", "b=0", "b=-2", "h=0"],
)
def test_invalid_base_or_h_is_a_parameter_error(tmp_path, capsys, command, pair, message):
    # del used to print a meaningless sum for these pairs and exit 0
    cfg = {"schedule": TOY_SCHEDULE, "context": pair, "del": {"N_max": 3}}
    rc, out, err = run(capsys, command, "--config", cfg_file(tmp_path, cfg), "--out", str(tmp_path))
    assert rc == 2
    assert err.startswith(f"error: {message}")
    assert out == "" and not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["context", "fourier", "del", "partition"])
@pytest.mark.parametrize(
    "pair, message",
    [
        ({"b": [2.5]}, "context.b must be an integer, got 2.5"),
        ({"b": [2, 3.5]}, "context.b must be an integer, got 3.5"),
        ({"h": 1.9}, "context.h must be an integer, got 1.9"),
        ({"b": [2.5], "h": [1.9]}, "context.b must be an integer, got 2.5"),
    ],
    ids=["b=2.5", "b=3.5-in-list", "h=1.9", "both"],
)
def test_fractional_base_or_h_is_a_parameter_error(tmp_path, capsys, command, pair, message):
    # int() used to truncate these (b = 2.5 ran as b = 2) while config_sha256 hashed 2.5
    cfg = {"schedule": TOY_SCHEDULE, "context": pair, "del": {"N_max": 3}}
    rc, out, err = run(capsys, command, "--config", cfg_file(tmp_path, cfg), "--out", str(tmp_path))
    assert rc == 2
    assert err.startswith(f"error: {message}")
    assert out == "" and not list(tmp_path.glob("*.csv"))
    assert not (tmp_path / "context.json").exists()


@pytest.mark.parametrize("command", ["context", "fourier", "del", "partition"])
@pytest.mark.parametrize(
    "pair, message",
    [
        ({"b": True}, "malformed config value: context.b must be an integer, got True"),
        ({"h": ["3"]}, "malformed config value: context.h must be an integer, got '3'"),
    ],
    ids=["b=true", "h=string"],
)
def test_boolean_or_string_base_or_h_is_a_parameter_error(tmp_path, capsys, command, pair, message):
    # b = true used to fail as "b must be an integer >= 2, got 1", naming no key
    cfg = {"schedule": TOY_SCHEDULE, "context": pair, "del": {"N_max": 3}}
    rc, out, err = run(capsys, command, "--config", cfg_file(tmp_path, cfg), "--out", str(tmp_path))
    assert rc == 2
    assert err == f"error: {message}\n"
    assert out == "" and not list(tmp_path.glob("*.csv"))
    assert not (tmp_path / "context.json").exists()


def test_integral_float_base_and_h_are_accepted(tmp_path, capsys):
    cfg = {"schedule": TOY_SCHEDULE, "context": {"b": [2.0], "h": [1.0]}}
    rc, _, err = run(capsys, "context", "--config", cfg_file(tmp_path, cfg), "--out", str(tmp_path))
    assert rc == 0, err
    payload = read_report(tmp_path, "context.json")["payload"]
    assert (payload[0]["b"], payload[0]["h"]) == (2, 1)


# every integer config key, with an integral value that runs
INTEGER_KEYS = [
    ("schedule", "schedule.d", 2),
    ("schedule", "schedule.count", 3),
    ("schedule", "schedule.q", [7, 11]),
    ("schedule", "schedule.ell", [1, 2]),
    ("schedule", "schedule.offset", 2),
    ("schedule", "seed", 2),
    ("schedule", "workers", 2),
    ("fourier", "fourier.xi_max", 5),
    ("fourier", "fourier.xi_count", 2),
    ("fourier", "fourier.xis", [3]),
    ("del", "del.N_max", 2),
    ("del", "del.r_lo", 1),
    ("del", "del.r_hi", 1),
    ("del", "del.m_values", [0]),
    ("partition", "partition.r", 2),
    ("partition", "partition.m", 0),
    ("partition", "partition.I_start", 2),
    ("normality", "normality.depth", 2),
    ("normality", "normality.samples", 2),
    ("normality", "normality.guard", 2),
    ("normality", "normality.count", 2),
    ("normality", "normality.bases", [3]),
    ("uniqueness", "uniqueness.depth", 3),
    ("uniqueness", "uniqueness.j_max", 2),
    ("uniqueness", "uniqueness.samples", 2),
    ("dimension", "dimension.band_lo", 1),
    ("dimension", "dimension.band_hi", 2),
    ("dimension", "dimension.samples", 2),
    ("dimension", "dimension.local_depth", 3),
    ("dimension", "dimension.burn_in", 1),
]


# schedule keys that are read only together with these others
_SCHEDULE_PARTNERS = {"q": TOY_SCHEDULE, "ell": TOY_SCHEDULE, "offset": {"variant": "cube-window"}}


def _integer_key_config(command, where, value):
    # fourier and del need more levels than the toy schedule has
    cfg = {} if command in ("schedule", "fourier", "del") else {"schedule": TOY_SCHEDULE}
    if where.startswith("schedule."):
        cfg["schedule"] = dict(_SCHEDULE_PARTNERS.get(where[len("schedule.") :], {}))
    if command == "del":
        cfg["del"] = {"N_max": 2, "r_lo": 1, "r_hi": 1}
    section, _, key = where.rpartition(".")
    (cfg.setdefault(section, {}) if section else cfg)[key] = value
    return cfg


def _artifact_bodies(out_dir):
    # artifact bytes without the timestamp and config hash, which hashes 2.0 and 2 apart
    bodies = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".csv":
            bodies[path.name] = csv_lines(path)[2:]
        else:
            report = json.loads(path.read_text())
            del report["config_sha256"]
            # compared as text: parsed, a stray 7.0 would equal 7
            bodies[path.name] = json.dumps(report, sort_keys=True)
    return bodies


@pytest.mark.parametrize("command, where, good", INTEGER_KEYS, ids=[w for _, w, _ in INTEGER_KEYS])
def test_fractional_integer_key_is_a_parameter_error(tmp_path, capsys, command, where, good):
    # int() used to truncate these (j_max = 1.7 ran as 1) while config_sha256 hashed 1.7
    bad = [1.7] if isinstance(good, list) else 1.7
    path = cfg_file(tmp_path, _integer_key_config(command, where, bad))
    rc, out, err = run(capsys, command, "--config", path, "--out", str(tmp_path / "out"))
    assert rc == 2
    assert err == f"error: {where} must be an integer, got 1.7\n"
    assert out == "" and not list(tmp_path.glob("out/*"))


@pytest.mark.parametrize("bad", [True, "3"], ids=["true", "string"])
@pytest.mark.parametrize("command, where, good", INTEGER_KEYS, ids=[w for _, w, _ in INTEGER_KEYS])
def test_boolean_or_string_integer_key_is_a_parameter_error(
    tmp_path, capsys, command, where, good, bad
):
    # int() used to read true as 1 and "3" as 3 while config_sha256 hashed true and "3"
    value = [bad] if isinstance(good, list) else bad
    path = cfg_file(tmp_path, _integer_key_config(command, where, value))
    rc, out, err = run(capsys, command, "--config", path, "--out", str(tmp_path / "out"))
    assert rc == 2
    assert err == f"error: malformed config value: {where} must be an integer, got {bad!r}\n"
    assert out == "" and not list(tmp_path.glob("out/*"))


@pytest.mark.parametrize("command, where, good", INTEGER_KEYS, ids=[w for _, w, _ in INTEGER_KEYS])
def test_integral_float_integer_key_reads_as_int(tmp_path, capsys, command, where, good):
    as_float = [float(v) for v in good] if isinstance(good, list) else float(good)
    bodies = []
    for name, value in (("int", good), ("float", as_float)):
        path = cfg_file(tmp_path, _integer_key_config(command, where, value), f"{name}.json")
        rc, _, err = run(capsys, command, "--config", path, "--out", str(tmp_path / name))
        assert rc == 0, err
        bodies.append(_artifact_bodies(tmp_path / name))
    assert bodies[0] == bodies[1]


LIST_KEYS = [key for key in INTEGER_KEYS if isinstance(key[2], list)]


@pytest.mark.parametrize("bad", [2, "23", True, {"a": 1}], ids=["int", "string", "true", "object"])
@pytest.mark.parametrize("command, where, good", LIST_KEYS, ids=[w for _, w, _ in LIST_KEYS])
def test_list_key_that_is_not_a_list_is_named(tmp_path, capsys, command, where, good, bad):
    # a number used to exit with "'int' object is not iterable", naming no
    # key, and a string was read one character at a time
    path = cfg_file(tmp_path, _integer_key_config(command, where, bad))
    rc, out, err = run(capsys, command, "--config", path, "--out", str(tmp_path / "out"))
    assert rc == 2
    assert err == f"error: malformed config value: {where} must be a list, got {bad!r}\n"
    assert out == "" and not list(tmp_path.glob("out/*"))


def test_fractional_omega_pair_is_a_parameter_error(tmp_path, capsys):
    # [1.5, 2] used to run as omega = 1/2
    path = cfg_file(tmp_path, {"schedule": TOY_SCHEDULE, "system": {"omega": [1.5, 2]}})
    rc, _, err = run(capsys, "uniqueness", "--config", path, "--out", str(tmp_path))
    assert rc == 2
    assert err == "error: system.omega must be an integer, got 1.5\n"


@pytest.mark.parametrize("omega", [True, False])
def test_boolean_omega_is_a_parameter_error(tmp_path, capsys, omega):
    # a JSON boolean used to read as the integer 1 or 0, with a message
    # naming no key
    path = cfg_file(tmp_path, {"schedule": TOY_SCHEDULE, "system": {"omega": omega}})
    rc, _, err = run(capsys, "uniqueness", "--config", path, "--out", str(tmp_path))
    assert rc == 2
    assert err == f"error: bad fraction in system.omega: {omega}\n"


def test_csv_stamp_is_utc_to_the_second(tmp_path, capsys):
    before = int(time.time())
    rc, _, _ = run(capsys, "del", "--config", cfg_file(tmp_path, {"del": {"N_max": 1}}), "--out", ".")
    after = time.time()
    assert rc == 0
    line = csv_lines(tmp_path / "del.csv")[0]
    assert re.fullmatch(r"# generated: \d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", line)
    stamped = calendar.timegm(time.strptime(line[len("# generated: ") :], "%Y-%m-%dT%H:%M:%SZ"))
    assert before <= stamped <= after


def test_cli_import_leaves_datetime_unloaded():
    src = str(Path(moranlab.__file__).resolve().parent.parent)
    code = "import sys, moranlab.cli; print('datetime' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src)
    )
    assert proc.stdout.strip() == "False", proc.stderr


# --------------------------------------------------------------------------
# partition


def test_partition_toy(tmp_path, capsys):
    path = cfg_file(tmp_path, {"schedule": TOY_SCHEDULE})
    rc, out, _ = run(capsys, "partition", "--config", path, "--out", str(tmp_path))
    assert rc == 0
    assert "partition: certificate ok, J=30 classes=11" in out
    payload = read_report(tmp_path, "partition.json")["payload"]
    assert payload["J"] == 30
    assert payload["ok"] is True
    assert payload["class_sizes"] == [11] * 30
    lines = csv_lines(tmp_path / "partition_hist.csv")
    assert lines[2] == "k,count,C_k_num,C_k_den"
    assert len(lines) >= 4


def test_partition_does_not_depend_on_the_system(tmp_path, capsys):
    # the partition reads only (b, h) and the schedule: two digit systems
    # give the same rows and payload under different config hashes
    reports = []
    for omega in ("1/2", "1/3"):
        out = tmp_path / omega.replace("/", "_")
        cfg = {"schedule": TOY_SCHEDULE, "system": {"omega": omega}}
        path = cfg_file(tmp_path, cfg)
        rc, _, err = run(capsys, "partition", "--config", path, "--out", str(out))
        assert rc == 0, err
        report = read_report(out, "partition.json")
        reports.append((report, csv_lines(out / "partition_hist.csv")))
    (first, first_rows), (second, second_rows) = reports
    assert first["config_sha256"] != second["config_sha256"]
    assert first["payload"] == second["payload"]
    assert first_rows[2:] == second_rows[2:] and len(first_rows) > 3


# --------------------------------------------------------------------------
# normality


def test_normality_zero_samples(tmp_path, capsys):
    path = cfg_file(tmp_path, {"normality": {"samples": 0}})
    rc, out, _ = run(capsys, "normality", "--config", path, "--out", str(tmp_path))
    assert rc == 0
    assert "normality: 0 samples x 1 bases" in out
    lines = csv_lines(tmp_path / "normality.csv")
    assert len(lines) == 3  # two comments plus the header, no rows
    assert lines[2] == "seed,depth,base,trusted_digits,max_deviation,discrepancy"


@pytest.mark.parametrize("bases", [[1], [0], [2, 1], [-2]])
def test_normality_base_below_two_is_a_parameter_error(tmp_path, capsys, bases):
    path = cfg_file(tmp_path, {"normality": {"samples": 2, "bases": bases}})
    rc, _, err = run(capsys, "normality", "--config", path, "--out", str(tmp_path))
    assert rc == 2
    assert err.startswith("error: base must be >= 2")
    assert "Traceback" not in err


@pytest.mark.parametrize("samples", [0, 2])
@pytest.mark.parametrize(
    "section, message",
    [
        ({"bases": []}, "normality.bases needs at least one base"),
        ({"bases": [1]}, "base must be >= 2, got 1"),
        ({"bases": [2, 0]}, "base must be >= 2, got 0"),
        ({"count": -3}, "normality.count must be >= 0, got -3"),
        ({"count": -3, "bases": [1]}, "base must be >= 2, got 1"),
    ],
)
def test_normality_checks_bases_and_count_up_front(tmp_path, capsys, samples, section, message):
    # checked before any sample is drawn, so zero samples cannot hide them
    normality = {"samples": samples, **section}
    path = cfg_file(tmp_path, {"schedule": TOY_SCHEDULE, "normality": normality})
    rc, _, err = run(capsys, "normality", "--config", path, "--out", str(tmp_path))
    assert rc == 2
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err
    assert not (tmp_path / "normality.csv").exists()


def _no_sampling(*args):
    raise AssertionError("a sample was drawn")


def test_normality_huge_base_trips_the_frequency_guard(tmp_path, capsys, monkeypatch):
    # 8 samples x 3e11 digit values: each report would hold 3e11 frequencies.
    # sampling is disabled, so a missing guard fails here instead of running
    monkeypatch.setattr(moranlab.measure, "sample_batch", _no_sampling)
    monkeypatch.setattr(moranlab.measure, "normality_report", _no_sampling)
    config = {"schedule": {"count": 4}, "normality": {"bases": [300_000_000_000]}}
    path = cfg_file(tmp_path, config)
    t0 = time.perf_counter()
    rc, _, err = run(capsys, "normality", "--config", path, "--out", str(tmp_path))
    assert time.perf_counter() - t0 < 5
    assert rc == 5
    assert err == (
        "error: normality frequency tables of 2400000000000 entries (8 samples x "
        "300000000000 digit values) exceed the guard 1000000\n"
    )
    assert not (tmp_path / "normality.csv").exists()


@pytest.mark.parametrize("samples, rc", [(0, 0), (2, 0), (3, 5)])
def test_frequency_guard_bounds_samples_times_the_sum_of_bases(
    tmp_path, capsys, monkeypatch, samples, rc
):
    # bases 2, 3 and 10 hold 15 frequencies per sample; 2 samples fill a
    # guard of 30 exactly, and the bounds on bases and count come first
    monkeypatch.setattr(moranlab.measure, "FREQUENCY_GUARD", 30)
    normality = {"samples": samples, "bases": [2, 3, 10]}
    path = cfg_file(tmp_path, {"schedule": TOY_SCHEDULE, "normality": normality})
    got, _, err = run(capsys, "normality", "--config", path, "--out", str(tmp_path))
    assert got == rc, err
    if rc:
        assert err.startswith(f"error: normality frequency tables of {15 * samples} entries")
        assert err.endswith("exceed the guard 30\n")
    for section in ({"bases": [2, 1]}, {"count": -1}):
        path = cfg_file(tmp_path, {"schedule": TOY_SCHEDULE, "normality": {**normality, **section}})
        assert run(capsys, "normality", "--config", path, "--out", str(tmp_path))[0] == 2


def test_normality_zero_count_is_valid(tmp_path, capsys):
    path = cfg_file(tmp_path, {"schedule": TOY_SCHEDULE, "normality": {"samples": 1, "count": 0}})
    rc, _, err = run(capsys, "normality", "--config", path, "--out", str(tmp_path))
    assert rc == 0, err
    assert len(csv_lines(tmp_path / "normality.csv")) == 4


def test_normality_seed_flag_beats_config(tmp_path, capsys):
    path = cfg_file(tmp_path, {"seed": 1, "normality": {"samples": 3}})
    rc, _, _ = run(capsys, "normality", "--config", path, "--out", str(tmp_path), "--seed", "5")
    assert rc == 0
    rows = csv_lines(tmp_path / "normality.csv")[3:]
    assert len(rows) == 3
    assert rows[0].startswith(f"{derive_seed(5, 0)},10,2,")


def test_normality_reproducible_modulo_timestamp(tmp_path, capsys):
    path = cfg_file(tmp_path, {"normality": {"samples": 3}})
    texts = []
    for name in ("a", "b"):
        d = tmp_path / name
        rc, _, _ = run(capsys, "normality", "--config", path, "--out", str(d), "--seed", "9")
        assert rc == 0
        texts.append(csv_lines(d / "normality.csv"))
    assert texts[0][1:] == texts[1][1:]

    d = tmp_path / "c"
    rc, _, _ = run(capsys, "normality", "--config", path, "--out", str(d), "--seed", "11")
    assert rc == 0
    assert csv_lines(d / "normality.csv")[2:] != texts[0][2:]


def test_json_report_byte_identical(tmp_path, capsys):
    path = cfg_file(tmp_path, {"schedule": TOY_SCHEDULE})
    blobs = []
    for name in ("a", "b"):
        d = tmp_path / name
        rc, _, _ = run(capsys, "context", "--config", path, "--out", str(d))
        assert rc == 0
        blobs.append((d / "context.json").read_bytes())
    assert blobs[0] == blobs[1]


# --------------------------------------------------------------------------
# uniqueness


def test_uniqueness_plain_toy(tmp_path, capsys):
    path = cfg_file(tmp_path, {"schedule": TOY_SCHEDULE, "uniqueness": {"samples": 6}})
    rc, out, _ = run(capsys, "uniqueness", "--config", path, "--out", str(tmp_path))
    assert rc == 0
    assert "uniqueness: 6/6 pass" in out
    lines = csv_lines(tmp_path / "uniqueness.csv")
    assert lines[2] == "seed,j_max,verdict,first_violation_j"
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 6
    for row in rows:
        assert row[1] == "2"  # depth 3 schedule caps j at depth - 1
        assert row[2] == "PASS" and row[3] == ""


def test_uniqueness_convolved(tmp_path, capsys):
    path = cfg_file(tmp_path, {"uniqueness": {"samples": 4, "kind": "dim-one"}})
    rc, out, _ = run(capsys, "uniqueness", "--config", path, "--out", str(tmp_path))
    assert rc == 0
    assert "uniqueness: 4/4 pass" in out


# a left end lo that narrows each kind's avoidance interval until some
# samples fail, at several j
_NARROW_LO = {"plain": Fraction(1, 14), "dim-one": Fraction(1, 2)}


@pytest.mark.parametrize("narrow", [False, True])
@pytest.mark.parametrize("depth", [None, 9])
@pytest.mark.parametrize("kind", ["plain", "dim-one"])
def test_uniqueness_verdicts_match_library(tmp_path, capsys, monkeypatch, kind, depth, narrow):
    # the command line hands each sample's drawn digits, zero-padded to the
    # schedule depth (15 here), to the verdict; the library derives them from
    # the value
    from moranlab import build_convolved, uniqueness_avoidance
    from moranlab.dimension import ConvolvedSystem
    from moranlab.measure import sample_batch
    from moranlab.system import MoranSystem

    if narrow:
        lo = _NARROW_LO[kind]
        for cls in (MoranSystem, ConvolvedSystem):
            monkeypatch.setattr(cls, "avoidance_lo", property(lambda self: lo))
    schedule = {"d": 2, "count": 5}
    uc = {"samples": 24, "kind": kind, "depth": depth}
    path = cfg_file(tmp_path, {"schedule": schedule, "uniqueness": uc})
    rc, _, err = run(capsys, "uniqueness", "--config", path, "--out", str(tmp_path), "--seed", "5")
    assert rc == 0, err
    rows = [line.split(",") for line in csv_lines(tmp_path / "uniqueness.csv")[3:]]

    sch = build_schedule(**schedule)
    target = binary_system(sch, Fraction(1, 2))
    if kind == "dim-one":
        target = build_convolved(target, "dim-one")
        j_max = len(target.special_levels) - 1
    else:
        j_max = sch.depth - 1
    points = sample_batch(target, 5, depth or sch.depth, 24)
    expect = []
    for i, pt in enumerate(points):
        v = uniqueness_avoidance(pt.value, target, j_max)
        first = "" if v.first_violation_j is None else str(v.first_violation_j)
        expect.append([str(derive_seed(5, i)), str(j_max), v.verdict, first])
    assert rows == expect
    if narrow:
        assert {row[2] for row in rows} == {"PASS", "FAIL"}
        assert len({row[3] for row in rows}) > 2


def test_uniqueness_unknown_kind(tmp_path, capsys):
    path = cfg_file(tmp_path, {"uniqueness": {"kind": "weird"}})
    rc, _, err = run(capsys, "uniqueness", "--config", path, "--out", str(tmp_path))
    assert rc == 2
    assert "weird" in err


@pytest.mark.parametrize("work", [0, 2])
@pytest.mark.parametrize(
    "command, section, code, message",
    [
        ("fourier", {"eps": 5}, 2, "eps must lie in (0, 1], got 5.0"),
        ("fourier", {"eps": -1, "xis": []}, 2, "eps must lie in (0, 1], got -1.0"),
        ("uniqueness", {"j_max": -4}, 2, "j_max must be >= 1, got -4"),
        ("uniqueness", {"j_max": 0}, 2, "j_max must be >= 1, got 0"),
        ("uniqueness", {"j_max": 4}, 3, "j_max = 4 exceeds the schedule depth 3"),
        ("uniqueness", {"j_max": 4, "kind": "dim-one"}, 3, "j_max = 4 exceeds the 3 special levels"),
        (
            "fourier",
            {"eps": True},
            2,
            "malformed config value: fourier.eps must be a number, got True",
        ),
        ("normality", {"depth": 999}, 3, "depth 999 outside 1 .. 3"),
        ("normality", {"depth": 0}, 3, "depth 0 outside 1 .. 3"),
        ("uniqueness", {"depth": 0}, 3, "depth 0 outside 1 .. 3"),
        ("uniqueness", {"depth": 4, "kind": "dim-one"}, 3, "depth 4 outside 1 .. 3"),
    ],
    ids=[
        "fourier-eps=5", "fourier-eps=-1-xis", "j_max=-4", "j_max=0", "j_max-depth",
        "j_max-special", "fourier-eps=true", "normality-depth=999", "normality-depth=0",
        "uniqueness-depth=0", "uniqueness-depth-dim-one",
    ],
)
def test_config_checks_do_not_depend_on_work(tmp_path, capsys, work, command, section, code, message):
    # an empty frequency list or zero samples used to skip these checks and exit 0
    if command == "fourier":
        section = {**section, "xis": [3] * work} if "xis" in section else {**section, "xi_count": work}
    else:
        section = {**section, "samples": work}
    path = cfg_file(tmp_path, {"schedule": TOY_SCHEDULE, command: section})
    rc, out, err = run(capsys, command, "--config", path, "--out", str(tmp_path))
    assert rc == code
    assert err.startswith(f"error: {message}")
    assert out == "" and not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "section, code, message",
    [
        ({"j_max": 0}, 2, "j_max must be >= 1, got 0"),
        ({"depth": 0}, 3, "depth 0 outside 1 .. 10"),
    ],
    ids=["j_max=0", "depth=0"],
)
def test_uniqueness_sample_count_is_checked_after_j_max_and_depth(
    tmp_path, capsys, section, code, message
):
    # the command line bounds samples last, so a negative count hides neither
    path = cfg_file(tmp_path, {"uniqueness": {"samples": -1, **section}})
    rc, out, err = run(capsys, "uniqueness", "--config", path, "--out", str(tmp_path / "out"))
    assert rc == code
    assert err == f"error: {message}\n"
    assert out == "" and not list(tmp_path.glob("out/*"))


# --------------------------------------------------------------------------
# dimension


def test_dimension_dim_one(tmp_path, capsys):
    path = cfg_file(tmp_path, {"dimension": {"samples": 2, "band_hi": 6}})
    rc, out, _ = run(capsys, "dimension", "--config", path, "--out", str(tmp_path))
    assert rc == 0
    assert out.startswith("dimension: variant=dim-one worst ball ratio=")
    payload = read_report(tmp_path, "dimension.json")["payload"]
    assert payload["variant"] == "dim-one"
    assert payload["special_levels"] == list(range(1, 11))
    assert 0.0 < payload["worst_ball_ratio"] <= 1.0
    ratios = [row["ratio"] for row in payload["h_rate"]]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(row["band"] is None for row in payload["h_rate"])
    assert payload["h_rate"][0]["r"] == "1/7"
    for name in ("balls.csv", "local_dim.csv"):
        assert csv_lines(tmp_path / name)[0].startswith("# generated: ")


def test_dimension_takes_h_from_its_band_table(tmp_path, capsys, monkeypatch):
    # h(r) runs once per band, not once per band and sample
    calls = []
    h_of_r = moranlab.dimension.h_of_r

    def counted(r, sch):
        calls.append(r)
        return h_of_r(r, sch)

    monkeypatch.setattr(moranlab.dimension, "h_of_r", counted)
    path = cfg_file(tmp_path, {"dimension": {"samples": 3, "band_lo": 2, "band_hi": 6}})
    rc, _, err = run(capsys, "dimension", "--config", path, "--out", str(tmp_path))
    assert rc == 0, err
    assert len(calls) == 5 == len(set(calls))
    assert len(csv_lines(tmp_path / "balls.csv")) == 2 + 1 + 3 * 5


def test_dimension_gauge_variant(tmp_path, capsys):
    path = cfg_file(
        tmp_path,
        {
            "dimension": {
                "variant": "gauge",
                "gauge": {"kind": "r_times_log_power", "param": 1.0},
                "samples": 2,
                "band_hi": 6,
            }
        },
    )
    rc, _, _ = run(capsys, "dimension", "--config", path, "--out", str(tmp_path))
    assert rc == 0
    payload = read_report(tmp_path, "dimension.json")["payload"]
    assert payload["special_levels"] == [3, 5, 8]
    assert 0.0 < payload["worst_ball_ratio"] <= 1.0


@pytest.mark.parametrize(
    "dimension",
    [
        {"variant": "dim-one", "samples": 1},
        {"variant": "gauge", "samples": 1, "gauge": {"kind": "r_times_log_power", "param": 1.0}},
    ],
)
def test_dimension_band_underflow_is_out_of_range(tmp_path, capsys, dimension):
    # the default band_hi = depth - 1 reaches P_m > 1e308 on a 20-prime schedule
    path = cfg_file(tmp_path, {"schedule": {"d": 2, "count": 20}, "dimension": dimension})
    rc, _, err = run(capsys, "dimension", "--config", path, "--out", str(tmp_path))
    assert rc == 3
    assert err.startswith("error: band ") and "dimension.band_hi" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("eps", [2, 1, 0, -0.5, "nan", "inf", float("inf")])
@pytest.mark.parametrize(
    "variant",
    [{}, {"variant": "gauge", "gauge": {"kind": "r_times_log_power", "param": 1.0}}],
)
def test_dimension_eps_outside_unit_interval_is_a_parameter_error(
    tmp_path, capsys, eps, variant
):
    # phi(r) = r^(1 - eps) is a gauge with r / phi(r) -> 0 only for 0 < eps < 1
    dimension = {"eps": eps, "samples": 1, "band_hi": 3, **variant}
    path = cfg_file(tmp_path, {"dimension": dimension})
    rc, out, err = run(capsys, "dimension", "--config", path, "--out", str(tmp_path))
    assert rc == 2
    assert err.startswith("error: dimension.eps must be a finite number in (0, 1)")
    assert "Traceback" not in err and out == ""


GAUGE = {"variant": "gauge", "gauge": {"kind": "r_times_log_power", "param": 1.0}}


@pytest.mark.parametrize(
    "dimension, code, message",
    [
        ({"band_lo": 3, "band_hi": 1}, 2, "dimension.band_lo = 3 exceeds dimension.band_hi = 1"),
        ({"burn_in": -5}, 2, "dimension.burn_in must be >= 0, got -5"),
        ({"samples": 0}, 2, "dimension.samples must be >= 1, got 0"),
        ({"band_lo": 0}, 2, "dimension.band_lo must be >= 1, got 0"),
        ({"band_lo": -5, "band_hi": 2}, 2, "dimension.band_lo must be >= 1, got -5"),
        ({"local_depth": 0}, 2, "dimension.local_depth must be >= 1, got 0"),
        (
            {"local_depth": 999},
            3,
            "dimension.local_depth = 999 exceeds the schedule depth 10",
        ),
        ({"band_hi": 999}, 3, "dimension.band_hi = 999 must be below the schedule depth 10"),
        ({"band_hi": 10}, 3, "dimension.band_hi = 10 must be below the schedule depth 10"),
        ({"eps": True}, 2, "malformed config value: dimension.eps must be a number, got True"),
        (
            {**GAUGE, "H_param": True},
            2,
            "malformed config value: dimension.H_param must be a number, got True",
        ),
        (
            {**GAUGE, "gauge": {"kind": "r_times_log_power", "param": True}},
            2,
            "malformed config value: dimension.gauge.param must be a number, got True",
        ),
    ],
    ids=[
        "band_lo>band_hi", "burn_in<0", "samples=0", "band_lo=0", "band_lo<0", "local_depth=0",
        "local_depth>depth", "band_hi>depth", "band_hi=depth", "eps=true", "H_param=true",
        "gauge.param=true",
    ],
)
def test_dimension_range_errors_name_their_keys(tmp_path, capsys, dimension, code, message):
    # an empty band range used to exit 0 with worst ball ratio=0.0000, a
    # negative burn_in ran as 1, and a band_lo below 1 ran as 1 while
    # config_sha256 hashed the value given; a bad local_depth used to fail
    # after balls.csv was written, naming no key, and true read as 1.0; a
    # band_hi at or past the depth failed in ball_measure or prefix_product,
    # naming no key
    path = cfg_file(tmp_path, {"dimension": {"samples": 2, **dimension}})
    rc, out, err = run(capsys, "dimension", "--config", path, "--out", str(tmp_path / "out"))
    assert rc == code
    assert err == f"error: {message}\n"
    assert out == "" and not list((tmp_path / "out").iterdir())


def test_dimension_gauge_requires_gauge_entry(tmp_path, capsys):
    path = cfg_file(tmp_path, {"dimension": {"variant": "gauge"}})
    rc, _, err = run(capsys, "dimension", "--config", path, "--out", str(tmp_path))
    assert rc == 2
    assert "gauge" in err


@pytest.mark.parametrize(
    "dimension, shown",
    [
        ({"H_param": -1}, "-1.0"),
        ({"H_param": 0}, "0.0"),
        ({"H_param": "nan"}, "nan"),
        ({"H_param": "inf"}, "inf"),
        ({**GAUGE, "H_param": -1}, "-1.0"),
        ({**GAUGE, "H_param": "inf"}, "inf"),
    ],
    ids=["dim-one=-1", "dim-one=0", "dim-one=nan", "dim-one=inf", "gauge=-1", "gauge=inf"],
)
def test_dimension_h_param_is_range_checked_for_every_variant(tmp_path, capsys, dimension, shown):
    # only build_convolved's extreme branch checked H_param, so dim-one and
    # gauge ran to exit 0 on any value
    cfg = {"schedule": {"d": 2, "count": 5}, "dimension": {"samples": 1, "band_hi": 3, **dimension}}
    path = cfg_file(tmp_path, cfg)
    rc, out, err = run(capsys, "dimension", "--config", path, "--out", str(tmp_path / "out"))
    assert rc == 2
    assert err == f"error: H_param must be positive and finite, got {shown}\n"
    assert out == "" and not list((tmp_path / "out").iterdir())


@pytest.mark.parametrize("gauge", [None, GAUGE["gauge"]], ids=["no-gauge", "gauge"])
def test_dimension_unknown_variant_is_reported_as_unknown(tmp_path, capsys, gauge):
    # without a gauge, the typo used to say that 'dim_one' needs one
    dimension = {"variant": "dim_one", "samples": 1, "band_hi": 3, "gauge": gauge}
    path = cfg_file(tmp_path, {"dimension": dimension})
    rc, out, err = run(capsys, "dimension", "--config", path, "--out", str(tmp_path / "out"))
    assert rc == 2
    assert err == "error: unknown variant 'dim_one'\n"
    assert out == "" and not list((tmp_path / "out").iterdir())


REAL_KEYS = [
    ("fourier", "fourier.eps", lambda v: {"fourier": {"xis": [3], "eps": v}}),
    ("del", "del.eps", lambda v: {"del": {"N_max": 2, "eps": v}}),
    ("dimension", "dimension.eps", lambda v: {"dimension": {"samples": 1, "band_hi": 3, "eps": v}}),
    ("dimension", "dimension.H_param", lambda v: {"dimension": {**GAUGE, "samples": 1, "H_param": v}}),
    (
        "dimension",
        "dimension.gauge.param",
        lambda v: {
            "dimension": {**GAUGE, "samples": 1, "gauge": {"kind": "r_times_log_power", "param": v}}
        },
    ),
]


@pytest.mark.parametrize("text", ["0.5", "1e-9", "1"])
@pytest.mark.parametrize("command, where, config", REAL_KEYS, ids=[w for _, w, _ in REAL_KEYS])
def test_numeric_string_real_key_is_a_parameter_error(tmp_path, capsys, command, where, config, text):
    # float() used to read "0.5" as 0.5 while config_sha256 hashed the string
    path = cfg_file(tmp_path, config(text))
    rc, out, err = run(capsys, command, "--config", path, "--out", str(tmp_path / "out"))
    assert rc == 2
    assert err == f"error: malformed config value: {where} must be a number, got {text!r}\n"
    assert out == "" and not list(tmp_path.glob("out/*"))


# --------------------------------------------------------------------------
# output names and writes


@pytest.mark.parametrize("name", ["sub/x.csv", "..", ".", ""])
def test_output_name_must_be_a_plain_name(tmp_path, capsys, name):
    # each used to end in a FileNotFoundError or IsADirectoryError traceback
    path = cfg_file(tmp_path, {"fourier": {"xi_count": 2, "out": name}})
    rc, out, err = run(capsys, "fourier", "--config", path, "--out", str(tmp_path / "out"))
    assert rc == 2
    assert err == f"error: fourier.out must be a plain file name, got {name!r}\n"
    assert out == "" and not list((tmp_path / "out").iterdir())


def test_output_name_must_be_a_string(tmp_path, capsys):
    # used to exit 2 with "join() argument must be str, ...", naming no key
    path = cfg_file(tmp_path, {"fourier": {"xi_count": 2, "out": 3}})
    rc, out, err = run(capsys, "fourier", "--config", path, "--out", str(tmp_path / "out"))
    assert rc == 2
    assert err == "error: malformed config value: fourier.out must be a file name, got 3\n"
    assert out == "" and not list((tmp_path / "out").iterdir())


def test_absolute_output_name_writes_nothing(tmp_path, capsys):
    # used to write the CSV outside the output directory and exit 0
    target = tmp_path / "elsewhere.csv"
    path = cfg_file(tmp_path, {"schedule": TOY_SCHEDULE, "normality": {"samples": 1, "out": str(target)}})
    rc, out, err = run(capsys, "normality", "--config", path, "--out", str(tmp_path / "out"))
    assert rc == 2
    assert err == f"error: normality.out must be a plain file name, got {str(target)!r}\n"
    assert out == "" and not target.exists() and not list((tmp_path / "out").iterdir())


@pytest.mark.parametrize(
    "command, cfg, message",
    [
        (
            "del",
            {"del": {"N_max": 2, "r_lo": 1, "r_hi": 1, "out": "a.csv", "blocks_out": "a.csv"}},
            "del.blocks_out names the same file as del.out: 'a.csv'",
        ),
        (
            "dimension",
            {"dimension": {"samples": 1, "band_hi": 3, "ball_out": "a.csv", "local_out": "a.csv"}},
            "dimension.local_out names the same file as dimension.ball_out: 'a.csv'",
        ),
        (
            "partition",
            {"schedule": TOY_SCHEDULE, "partition": {"r": 2, "out": "partition.json"}},
            "partition.out names the same file as the partition report: 'partition.json'",
        ),
        (
            "dimension",
            {"dimension": {"samples": 1, "band_hi": 3, "ball_out": "dimension.json"}},
            "dimension.ball_out names the same file as the dimension report: 'dimension.json'",
        ),
    ],
    ids=["del", "dimension", "partition-report", "dimension-report"],
)
def test_output_names_that_overwrite_each_other_are_rejected(tmp_path, capsys, command, cfg, message):
    # each used to exit 0, its second artifact overwriting the first
    path = cfg_file(tmp_path, cfg)
    rc, out, err = run(capsys, command, "--config", path, "--out", str(tmp_path / "out"))
    assert rc == 2
    assert err == f"error: {message}\n"
    assert out == "" and not list((tmp_path / "out").iterdir())


def test_out_naming_a_file_is_a_write_error(tmp_path, capsys):
    # used to end in a FileExistsError traceback
    target = tmp_path / "taken"
    target.write_text("keep\n")
    rc, out, err = run(capsys, "schedule", "--out", str(target))
    assert rc == 2
    assert err == f"error: cannot write {target}: [Errno 17] File exists: '{target}'\n"
    assert out == "" and target.read_text() == "keep\n"


def test_artifact_that_cannot_be_opened_is_a_write_error(tmp_path, capsys):
    # a directory where the CSV goes; used to end in an IsADirectoryError traceback
    (tmp_path / "out" / "fourier.csv").mkdir(parents=True)
    path = cfg_file(tmp_path, {"fourier": {"xi_count": 2}})
    rc, _, err = run(capsys, "fourier", "--config", path, "--out", str(tmp_path / "out"))
    assert rc == 2
    target = tmp_path / "out" / "fourier.csv"
    assert err == f"error: cannot write {target}: [Errno 21] Is a directory: '{target}'\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "command, cfg, name",
    [("fourier", {"fourier": {"xi_count": 2}}, "fourier.csv"), ("schedule", {}, "schedule.json")],
)
def test_artifact_write_that_fails_names_its_file(tmp_path, capsys, command, cfg, name):
    # the artifact opens and its write fails, with no file name on the error;
    # the message used to name the output directory
    out = tmp_path / "out"
    out.mkdir()
    (out / name).symlink_to("/dev/full")
    path = cfg_file(tmp_path, cfg)
    rc, _, err = run(capsys, command, "--config", path, "--out", str(out))
    assert rc == 2
    assert err == f"error: cannot write {out / name}: [Errno 28] No space left on device\n"


class _ClosedPipe:
    """A stdout whose every write fails as a write into a closed pipe does."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("command", ["schedule", "fourier"])
def test_stdout_write_failure_is_not_an_artifact_error(tmp_path, capsys, monkeypatch, command):
    # used to exit 2 with "cannot write <out dir>: [Errno 32] Broken pipe"
    out = tmp_path / "out"
    path = cfg_file(tmp_path, {"fourier": {"xi_count": 2}})
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    rc, _, err = run(capsys, command, "--config", path, "--out", str(out))
    assert rc == 120
    assert err == "error: cannot write to stdout: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize(
    "dimension, message",
    [
        (
            {**GAUGE, "variant": "extreme", "H_param": "nan"},
            "H_param must be positive and finite, got nan",
        ),
        (
            {"variant": "extreme", "gauge": {"kind": "r_times_log_power", "param": "nan"}},
            "gauge parameter must be positive and finite, got nan",
        ),
        (
            {**GAUGE, "variant": "extreme", "H_param": "inf"},
            "H_param must be positive and finite, got inf",
        ),
        (
            {"variant": "extreme", "gauge": {"kind": "r_times_log_power", "param": "inf"}},
            "gauge parameter must be positive and finite, got inf",
        ),
        (
            {"variant": "gauge", "gauge": {"kind": "power", "param": "inf"}},
            "gauge parameter must be positive and finite, got inf",
        ),
    ],
    ids=["H_param", "gauge.param", "H_param=inf", "gauge.param=inf", "power-gauge.param=inf"],
)
def test_nan_gauge_parameters_are_parameter_errors(tmp_path, capsys, dimension, message):
    # NaN passed the "<= 0" checks and exited 3 with a message naming no key;
    # infinity passed them too and exited 3 with a precondition message
    # ("g never reaches 2", "r/phi(r) does not vanish")
    path = cfg_file(tmp_path, {"dimension": {"samples": 1, "band_hi": 3, **dimension}})
    rc, out, err = run(capsys, "dimension", "--config", path, "--out", str(tmp_path / "out"))
    assert rc == 2
    assert err == f"error: {message}\n"
    assert out == "" and not list((tmp_path / "out").iterdir())


@pytest.mark.parametrize(
    "command, cfg, message",
    [
        (
            "fourier",
            {"fourier": {"xis": [3], "xi_count": "a"}},
            "malformed config value: fourier.xi_count must be an integer, got 'a'",
        ),
        (
            "schedule",
            {"schedule": {**TOY_SCHEDULE, "count": True}},
            "malformed config value: schedule.count must be an integer, got True",
        ),
    ],
    ids=["xi_count-beside-xis", "count-beside-q"],
)
def test_ignored_key_of_a_read_section_is_checked(tmp_path, capsys, command, cfg, message):
    path = cfg_file(tmp_path, cfg)
    rc, _, err = run(capsys, command, "--config", path, "--out", str(tmp_path / "out"))
    assert rc == 2
    assert err == f"error: {message}\n"


def test_config_seed_is_checked_beside_the_seed_flag(tmp_path, capsys):
    path = cfg_file(tmp_path, {"seed": "x"})
    rc, _, err = run(capsys, "schedule", "--config", path, "--seed", "3", "--out", str(tmp_path))
    assert rc == 2
    assert err == "error: malformed config value: seed must be an integer, got 'x'\n"


def test_section_a_command_does_not_read_is_not_checked(tmp_path, capsys):
    path = cfg_file(tmp_path, {"fourier": {"xi_count": "a", "out": 3}, "dimension": 3})
    rc, _, err = run(capsys, "schedule", "--config", path, "--out", str(tmp_path))
    assert rc == 0, err


def test_custom_gauge_kind_is_unknown(tmp_path, capsys):
    # a gauge is a kind and a parameter; "custom" named a table, which no
    # config key could ever give
    gauge = {"kind": "custom", "param": 1.0}
    path = cfg_file(tmp_path, {"dimension": {"samples": 1, "variant": "gauge", "gauge": gauge}})
    rc, out, err = run(capsys, "dimension", "--config", path, "--out", str(tmp_path / "out"))
    assert rc == 2
    assert err == "error: unknown gauge kind 'custom'\n"
    assert out == "" and not list((tmp_path / "out").iterdir())
