"""Start-up: which modules each subcommand runs, the lazy public namespace,
and the module layout that ``bench/tracer.py`` wraps.

The package registers its submodules lazily, so a module object can sit in
``sys.modules`` before its body has run. Until then its type is a
``ModuleType`` subclass; the probes below compare types so that the check
itself loads nothing.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import moranlab

SRC = Path(moranlab.__file__).resolve().parent.parent
TRACER = SRC.parent / "bench" / "tracer.py"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

# small enough that every subcommand exits 0 within a fraction of a second
CONFIG = {
    "schedule": {"d": 2, "count": 5},
    "fourier": {"xi_count": 3},
    "del": {"N_max": 2},
    "partition": {"r": 2},
    "normality": {"samples": 1},
    "uniqueness": {"samples": 1},
    "dimension": {"samples": 1, "band_hi": 2},
}

# the moranlab submodules whose bodies each subcommand runs
RUNS = {
    "schedule": {"cli", "errors", "_record", "radix"},
    "context": {"cli", "errors", "_record", "radix", "numtheory"},
    "fourier": {"cli", "errors", "_record", "radix", "rng", "system", "fourier"},
    "del": {"cli", "errors", "_record", "radix", "system", "fourier", "delsum"},
    "partition": {"cli", "errors", "_record", "radix", "numtheory", "system", "distribution"},
    "normality": {"cli", "errors", "_record", "radix", "rng", "system", "measure"},
    "uniqueness": {"cli", "errors", "_record", "radix", "rng", "system", "measure"},
    "dimension": {"cli", "errors", "_record", "radix", "rng", "system", "measure", "dimension"},
}

# the standard-library modules no subcommand may load: dataclasses pulls in
# inspect (and ast, dis, tokenize), and each decorated class generates its
# methods through exec; argparse pulls in gettext and locale, where the
# command line reads its three flags itself; _hashlib is OpenSSL, which the
# config digest avoids wherever the interpreter has a builtin sha256
_BUILTIN_SHA256 = any(importlib.util.find_spec(m) for m in ("_sha256", "_sha2"))
FORBIDDEN = ("dataclasses", "inspect", "argparse", "gettext", "locale") + (
    ("_hashlib",) if _BUILTIN_SHA256 else ()
)
# schedule reads no fraction, so it never loads fractions, nor the decimal
# and numbers that fractions imports; every other command's library modules do
NO_FRACTIONS = ("fractions", "decimal", "numbers")

_PROBE = f"""
import json, sys, types
from moranlab.cli import main
rc = main(sys.argv[1:])
ran = [m[len("moranlab."):] for m, mod in sys.modules.items()
       if m.startswith("moranlab.") and type(mod) is types.ModuleType]
loaded = [m for m in {FORBIDDEN + NO_FRACTIONS!r} if m in sys.modules]
print(json.dumps({{"rc": rc, "ran": sorted(ran), "loaded": loaded}}))
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


@pytest.mark.parametrize("command", sorted(RUNS))
def test_subcommand_runs_only_its_modules(tmp_path, config, command):
    out = str(tmp_path / "out")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, command, "--config", config, "--out", out],
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0, proc.stderr
    forbidden = FORBIDDEN + (NO_FRACTIONS if command == "schedule" else ())
    assert [m for m in result["loaded"] if m in forbidden] == []
    assert set(result["ran"]) == RUNS[command]


def test_del_block_report_runs_numtheory(tmp_path):
    # the block report's context and constants come from numtheory, which
    # delsum reaches as a lazy module; del_partial alone never runs it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(CONFIG, **{"del": {"N_max": 2, "r_lo": 1, "r_hi": 1}})))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, "del", "--config", str(path), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0, proc.stderr
    assert set(result["ran"]) == RUNS["del"] | {"numtheory"}


def test_tracer_wraps_every_span(tmp_path, config):
    # the tracer reads sys.modules["moranlab.<mod>"] after importing only
    # moranlab.cli, and rebinds each layer function in its home module
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    spans = tmp_path / "spans.bin"
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), "0", "--", "context", "--config", config,
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert proc.returncode == 0, proc.stderr
    with open(spans, "rb") as fh:
        header = json.loads(fh.readline())
    assert set(header["names"]) == {name for name, _, _ in tracer.SPANS}
    assert sum(header["threads"]) > 0  # cli.context and build_context recorded spans


def test_public_names_are_their_home_module_objects():
    for name in moranlab.__all__:
        if name == "__version__":
            continue
        obj = getattr(moranlab, name)
        assert obj.__module__.startswith("moranlab."), name
        assert vars(sys.modules[obj.__module__])[name] is obj, name


def test_dir_lists_every_public_name():
    assert set(moranlab.__all__) <= set(dir(moranlab))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        moranlab.no_such_name
    assert not hasattr(moranlab, "ENUMERATION_GUARD")  # module-level, not public


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from moranlab import *", ns)
    assert set(moranlab.__all__) <= set(ns)
    assert ns["PrimeSchedule"] is moranlab.radix.PrimeSchedule


def test_cli_module_runs_as_main():
    # runpy warns when the module it runs is already in sys.modules; -W error
    # makes that warning fail the run
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "moranlab.cli", "--version"],
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"moranlab {moranlab.__version__}\n"
    assert proc.stderr == ""
