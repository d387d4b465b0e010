"""Every public name is used: by the command line, a demo or the README.

The CLI runs every command section of each benchmark config at seed 1, then
each demo runs, all in this process under ``sys.setprofile``. A function in
``moranlab.__all__``, or a public method, property or classmethod defined on
a class in ``__all__``, must be called during that run, or be named in
backticks in README.md (``Class.name`` also counts for a member). Exceptions
and dunders are exempt. No list of names is kept here, so a refactor records
nothing: a name that nothing reaches and nobody documents fails the test.

The same holds for the knobs of that surface, by an ``ast`` scan rather than
a trace: every parameter with a default, of an exported class's constructor
or of a callable above, must be passed, by position or by keyword, by some
call in ``src/``, ``demos/`` or a ``python`` block of README.md, or be named
in a backticked call signature in README.md (``base_digits(x, b, count,
guard)``). A value that only tests set has one value in use, and goes.
"""

import ast
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


def _defaulted_surface():
    """(label, name a call uses, bindable parameters) for every callable of
    the surface above, plus the constructor of each exported class."""
    out = []
    for name in moranlab.__all__:
        obj = getattr(moranlab, name)
        if inspect.isclass(obj):
            if issubclass(obj, BaseException):
                continue
            out.append((name, name, list(inspect.signature(obj).parameters.values())))
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                bound = 0 if isinstance(member, staticmethod) else 1  # self or cls
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    params = list(inspect.signature(member).parameters.values())[bound:]
                    out.append((f"{name}.{attr}", attr, params))
        elif callable(obj):
            out.append((name, name, list(inspect.signature(obj).parameters.values())))
    return [entry for entry in out if any(p.default is not p.empty for p in entry[2])]


def _library_calls() -> dict[str, list[ast.Call]]:
    """Every call in src/, the demos and the README's python blocks, by the
    name it calls (``f(...)`` and ``x.f(...)`` alike)."""
    files = sorted((ROOT / "src").rglob("*.py")) + DEMOS
    sources = [path.read_text() for path in files]
    sources += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    calls: dict[str, list[ast.Call]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passed(call: ast.Call, params) -> set[str]:
    positional = [p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    names = set()
    for i, arg in enumerate(call.args[: len(positional)]):
        if isinstance(arg, ast.Starred):  # *args may fill every later position
            names.update(p.name for p in positional[i:])
            break
        names.add(positional[i].name)
    for keyword in call.keywords:
        names.update([keyword.arg] if keyword.arg else [p.name for p in params])
    return names


def _readme_signatures() -> dict[str, set[str]]:
    text = (ROOT / "README.md").read_text()
    named: dict[str, set[str]] = {}
    for func, args in re.findall(r"`([A-Za-z_][\w.]*)\(([^`()]*)\)`", text):
        names = {arg.split("=")[0].strip().lstrip("*") for arg in args.split(",")}
        named.setdefault(func.rsplit(".", 1)[-1], set()).update(names)
    return named


def test_every_defaulted_parameter_is_passed_or_documented():
    surface, calls, documented = _defaulted_surface(), _library_calls(), _readme_signatures()
    assert surface and calls  # an empty surface or scan would flag nothing
    unused = []
    for label, name, params in surface:
        passed = set().union(*(_passed(call, params) for call in calls.get(name, [])))
        for param in params:
            if param.default is not param.empty and param.name not in passed:
                if param.name not in documented.get(name, set()):
                    unused.append(f"{label}.{param.name}")
    assert not unused, f"defaulted parameters that no library call passes: {unused}"
