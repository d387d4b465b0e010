"""Every function of ``src/`` is entered by the user run, and every knob of
the public surface is used.

``tools/line_trace.py --json`` runs, in one fresh interpreter under
``sys.setprofile``, every command section of each benchmark config at seed
1, each demo, each ``python`` block of README.md and every case of
``tests/config_corpus.json``. Every function defined in ``src/`` must be
entered by that run, unless it is of a kind that no user run enters: a
dunder, a function that raises on every path, a process entry point of
``pyproject.toml`` (``cli.run``, which only a subprocess runs), or a
function that only such functions name. No list of functions is kept here,
so a deletion records nothing, and a README mention keeps nothing alive:
the one named exemption is ROADMAP item 7's.

The knobs of that surface are held by an ``ast`` scan rather than a trace:
every parameter with a default, of an exported class's constructor or of a
public callable, must be passed, by position or by keyword, by some call in
``src/``, ``demos/`` or a ``python`` block of README.md, or be named in a
backticked call signature in README.md (``base_digits(x, b, count,
guard)``). A value that only tests set has one value in use, and goes.
"""

import ast
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import moranlab

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "bench" / "configs").glob("*.json"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# ROADMAP item 7: the library CSV writers and fourier.mask_interval, which
# bench/tracer.py wraps by name; this exemption goes with them
WAITING = re.compile(r"\w+\.write_\w+_csv|fourier\.mask_interval")


@pytest.fixture(scope="module")
def trace() -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "line_trace.py"), "--json"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_configs_and_demos_found(trace):
    # an empty glob would trace nothing and blame every function
    assert CONFIGS and DEMOS
    run = trace["run"]
    assert run["demos"] == len(DEMOS) and run["commands"] >= len(CONFIGS)
    assert run["readme_blocks"] >= 1 and run["corpus_cases"] >= 1000


def test_every_function_of_src_is_entered_by_the_user_run(trace):
    unentered = {fn["name"]: fn for file in trace["files"].values() for fn in file["functions"]}
    exempt = {
        name
        for name, fn in unentered.items()
        if re.fullmatch(r"__\w+__", name.rsplit(".", 1)[-1])
        or fn["raises_on_every_path"]
        or fn["entry_point"]
        or WAITING.fullmatch(name)
    }
    while True:  # then every function that only exempt functions name
        named_only_by_exempt = {
            name
            for name, fn in unentered.items()
            if name not in exempt and fn["used_by"] and set(fn["used_by"]) <= exempt
        }
        if not named_only_by_exempt:
            break
        exempt |= named_only_by_exempt
    missing = sorted(set(unentered) - exempt)
    assert trace["functions"]["total"] > 100  # the tool found the source
    assert not missing, f"functions of src/ that no user run enters: {missing}"


def _defaulted_surface():
    """(label, name a call uses, bindable parameters) for every function in
    ``moranlab.__all__``, every public method or classmethod of an exported
    class, and the constructor of each exported class."""
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
