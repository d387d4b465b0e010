"""Start-up: which modules each subcommand runs, the lazy public namespace,
and the module layout that ``bench/tracer.py`` wraps.

The package registers its submodules lazily, so a module object can sit in
``sys.modules`` before its body has run. Until then its type is a
``ModuleType`` subclass; the probes below compare types so that the check
itself loads nothing.
"""

import fcntl
import importlib.util
import json
import os
import re
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


def _probe(tmp_path, command: str, config: str) -> dict:
    """The probe's report of one subcommand run on this config file."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, command, "--config", config, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0, proc.stderr
    return result


def _config_with(tmp_path, section: str, values: dict) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(CONFIG, **{section: values})))
    return str(path)


@pytest.mark.parametrize("command", sorted(RUNS))
def test_subcommand_runs_only_its_modules(tmp_path, config, command):
    result = _probe(tmp_path, command, config)
    forbidden = FORBIDDEN + (NO_FRACTIONS if command == "schedule" else ())
    assert [m for m in result["loaded"] if m in forbidden] == []
    assert set(result["ran"]) == RUNS[command]


def test_del_block_report_runs_numtheory(tmp_path):
    # the block report's context and constants come from numtheory, which
    # delsum reaches as a lazy module; del_partial alone never runs it
    config = _config_with(tmp_path, "del", {"N_max": 2, "r_lo": 1, "r_hi": 1})
    assert set(_probe(tmp_path, "del", config)["ran"]) == RUNS["del"] | {"numtheory"}


def test_fourier_with_given_frequencies_skips_rng(tmp_path):
    # rng only draws the frequencies: with fourier.xis given, the command
    # runs radix, system and fourier alone
    config = _config_with(tmp_path, "fourier", {"xis": [1, 7, 847]})
    assert set(_probe(tmp_path, "fourier", config)["ran"]) == RUNS["fourier"] - {"rng"}


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


# --------------------------------------------------------------------------
# process exit: cli.run ends the process with os._exit once main() returns,
# after the atexit callbacks and the stdio flush

# block-buffered stdout, so that a missing flush loses output
EXIT_ENV = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
DEEP = SRC.parent / "bench" / "configs" / "sample_normality.json"  # depth 1035
LAUNCHERS = {"moranlab": ["-m", "moranlab"], "moranlab.cli": ["-m", "moranlab.cli"]}
# the exit before cli.run: the interpreter's own teardown and exit flush
OLD_EXIT = ["-c", "import sys\nfrom moranlab.cli import main\nraise SystemExit(main())"]


def _child(launcher, *argv, **kwargs):
    return subprocess.run(
        [sys.executable, *launcher, *argv], capture_output=True, env=EXIT_ENV, **kwargs
    )


def _in_process(capfd, *argv):
    from moranlab.cli import main

    rc = main(list(argv))
    out, err = capfd.readouterr()
    return rc, out, err


@pytest.mark.parametrize("launcher", sorted(LAUNCHERS))
@pytest.mark.parametrize(
    "command, cfg, code",
    [
        ("schedule", {"schedule": {"count": 5}}, 0),
        ("schedule", {"schedule": {"count": "5"}}, 2),
        ("dimension", {"dimension": {"band_hi": 999}}, 3),
    ],
    ids=["ok", "bad-config", "precondition"],
)
def test_child_exit_code_and_output_match_main(tmp_path, capfd, launcher, command, cfg, code):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = (command, "--config", str(path), "--out", str(tmp_path / "out"))
    proc = _child(LAUNCHERS[launcher], *argv, text=True)
    assert proc.returncode == code
    assert (proc.returncode, proc.stdout, proc.stderr) == _in_process(capfd, *argv)


def test_every_stdout_line_arrives_through_a_pipe_and_into_a_file(tmp_path, capfd):
    argv = ("schedule", "--config", str(DEEP), "--out", str(tmp_path / "out"))
    rc, want, _ = _in_process(capfd, *argv)
    assert rc == 0 and len(want) > 4 * 8192  # several stdout buffers
    piped = _child(LAUNCHERS["moranlab"], *argv, text=True)
    assert (piped.returncode, piped.stdout, piped.stderr) == (0, want, "")
    with open(tmp_path / "stdout.txt", "w") as fh:
        filed = subprocess.run(
            [sys.executable, "-m", "moranlab", *argv], stdout=fh, stderr=subprocess.PIPE,
            env=EXIT_ENV,
        )
    assert (filed.returncode, filed.stderr) == (0, b"")
    assert (tmp_path / "stdout.txt").read_text() == want


@pytest.mark.parametrize("command", ["schedule", "fourier", "del", "partition", "dimension"])
def test_child_artifacts_match_main(tmp_path, capfd, config, command):
    _in_process(capfd, command, "--config", config, "--out", str(tmp_path / "main"))
    proc = _child(LAUNCHERS["moranlab"], command, "--config", config, "--out", str(tmp_path / "child"))
    assert proc.returncode == 0, proc.stderr

    def artifacts(out):
        # every byte but a CSV's timestamp line
        return {
            path.name: re.sub(rb"\A# generated: [^\n]*\n", b"", path.read_bytes())
            for path in sorted(out.iterdir())
        }

    assert artifacts(tmp_path / "child") == artifacts(tmp_path / "main") != {}


def test_atexit_callback_runs_exactly_once(tmp_path):
    code = (
        "import atexit, runpy\n"
        "atexit.register(print, 'atexit callback ran')\n"
        "runpy.run_module('moranlab', run_name='__main__')\n"
    )
    proc = _child(["-c", code], "schedule", "--out", str(tmp_path), text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("atexit callback ran") == 1
    assert proc.stdout.endswith("atexit callback ran\n")


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_teardown_runs_only_under_a_tracer(tmp_path, traced):
    # a finalizer of a live object runs in the interpreter's teardown, which
    # run() skips unless a tracer is set
    code = (
        "import os, runpy, sys\n"
        "class Finalized:\n"
        "    def __del__(self, write=os.write):\n"
        "        write(2, b'finalizer ran\\n')\n"
        "kept = Finalized()\n"
        f"{'sys.settrace(lambda *args: None)' if traced else ''}\n"
        "runpy.run_module('moranlab', run_name='__main__')\n"
    )
    proc = _child(["-c", code], "schedule", "--out", str(tmp_path), text=True)
    assert proc.returncode == 0
    assert proc.stderr == ("finalizer ran\n" if traced else "")


def test_profiler_still_prints_its_stats(tmp_path):
    proc = _child(["-m", "cProfile", "-m", "moranlab"], "schedule", "--out", str(tmp_path), text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("schedule d=2")
    assert "function calls" in proc.stdout and "ncalls  tottime  percall" in proc.stdout


def _read_line_then_close(launcher, argv, close_first):
    # a one-page pipe: the child blocks in its first write until the reader
    # has closed, so where the write fails does not depend on timing
    r, w = os.pipe()
    fcntl.fcntl(r, fcntl.F_SETPIPE_SZ, 4096)
    if close_first:
        os.close(r)
    try:
        proc = subprocess.Popen(
            [sys.executable, *launcher, *argv], stdout=w, stderr=subprocess.PIPE, env=EXIT_ENV
        )
    finally:
        os.close(w)
    if not close_first:
        line = b""
        while not line.endswith(b"\n"):
            byte = os.read(r, 1)
            assert byte, "the child wrote no line"
            line += byte
        os.close(r)
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), err


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="needs Linux pipe sizing")
@pytest.mark.parametrize(
    "count, close_first",
    # the depth-1035 output fails inside main(), where its second chunk is
    # written; 6.6 kB fails in the exit flush, which with close_first drops
    # the whole chunk it was writing
    [(None, False), (24, False), (24, True)],
    ids=["deep-read-one-line", "6kB-read-one-line", "6kB-closed-before-exit"],
)
def test_closed_pipe_exits_as_the_interpreter_did(tmp_path, count, close_first):
    path = DEEP
    if count is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schedule": {"count": count}}))
    argv = ("schedule", "--config", str(path), "--out", str(tmp_path / "out"))
    old = _read_line_then_close(OLD_EXIT, argv, close_first)
    assert old[0] != 0 and b"Broken pipe" in old[1]
    for launcher in LAUNCHERS.values():
        assert _read_line_then_close(launcher, argv, close_first) == old


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="needs Linux pipe sizing")
def test_closed_pipe_inside_main_is_a_stdout_error(tmp_path):
    # the failed write names stdout, not the output directory, and exits 120;
    # the exit flush then reports the output still buffered
    out = tmp_path / "out"
    argv = ("schedule", "--config", str(DEEP), "--out", str(out))
    code, err = _read_line_then_close(LAUNCHERS["moranlab"], argv, False)
    assert code == 120
    assert err.startswith(b"error: cannot write to stdout: [Errno 32] Broken pipe\n")
    assert b"Exception ignored in: <_io.TextIOWrapper name='<stdout>'" in err
    assert str(out).encode() not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_exits_as_the_interpreter_did(tmp_path):
    # a failed exit flush drops the 6.6 kB chunk it was writing, so the
    # failure must be reported where it happens
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schedule": {"count": 24}}))
    argv = ("schedule", "--config", str(path), "--out", str(tmp_path / "out"))
    results = []
    for launcher in (OLD_EXIT, LAUNCHERS["moranlab"]):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, *launcher, *argv], stdout=full, stderr=subprocess.PIPE,
                env=EXIT_ENV,
            )
        results.append((proc.returncode, proc.stderr))
    assert results[0][0] == 120 and b"No space left on device" in results[0][1]
    assert results[1] == results[0]
