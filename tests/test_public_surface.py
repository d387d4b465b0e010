"""Every public name is used: by the command line, a demo or the README.

The CLI runs every command section of each benchmark config at seed 1, then
each demo runs, all in this process under ``sys.setprofile``. A function in
``moranlab.__all__``, or a public method, property or classmethod defined on
a class in ``__all__``, must be called during that run, or be named in
backticks in README.md (``Class.name`` also counts for a member). Exceptions
and dunders are exempt. No list of names is kept here, so a refactor records
nothing: a name that nothing reaches and nobody documents fails the test.
"""

import inspect
import json
import re
import runpy
import sys
import threading
from functools import cached_property
from pathlib import Path

import moranlab
from moranlab import cli

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "bench" / "configs").glob("*.json"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE = str(Path(moranlab.__file__).resolve().parent)


def _code(member):
    """The code object a call of the member runs, or None for data."""
    if isinstance(member, (classmethod, staticmethod)):
        member = member.__func__
    elif isinstance(member, property):
        member = member.fget
    elif isinstance(member, cached_property):
        member = member.func
    return getattr(inspect.unwrap(member), "__code__", None)


def _public_surface():
    """(label, aliases, code) for every name the rule covers."""
    out = []
    for name in moranlab.__all__:
        obj = getattr(moranlab, name)
        if inspect.isclass(obj):
            if issubclass(obj, BaseException):
                continue
            for attr, member in vars(obj).items():
                code = None if attr.startswith("_") else _code(member)
                if code is not None:
                    out.append((f"{name}.{attr}", {attr, f"{name}.{attr}"}, code))
        elif callable(obj):
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()  # a memoised answer would run no code
            out.append((name, {name}, _code(obj)))
    return out


def _readme_names() -> set[str]:
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    return {re.sub(r"\(.*\)$", "", span.strip()) for span in spans}


def _trace_cli_and_demos(out: Path) -> set:
    reached = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            reached.add(frame.f_code)

    old = sys.getprofile(), threading.getprofile()
    sys.setprofile(hook)
    threading.setprofile(hook)  # the fourier command's worker threads
    try:
        for config in CONFIGS:
            sections = json.loads(config.read_text())
            for command in cli._COMMANDS:
                if command in sections:
                    rc = cli.main(
                        [command, "--config", str(config), "--seed", "1",
                         "--out", str(out / config.stem / command)]
                    )
                    assert rc == 0, (command, config.name)
        for demo in DEMOS:
            runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(old[0])
        threading.setprofile(old[1])
    return reached


def test_configs_and_demos_found():
    # an empty glob would trace nothing and blame every name
    assert CONFIGS and DEMOS


def test_every_public_name_is_reached_or_documented(tmp_path, capsys):
    surface = _public_surface()
    reached = _trace_cli_and_demos(tmp_path)
    capsys.readouterr()
    documented = _readme_names()
    missing = [
        label
        for label, aliases, code in surface
        if code not in reached and not aliases & documented
    ]
    assert not missing, f"public names neither reached nor named in README.md: {missing}"
