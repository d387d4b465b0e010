#!/usr/bin/env python3
"""The functions and statements of ``src/moranlab`` that one user run never reaches.

    python3 tools/line_trace.py [--lines] [--json]

The user run is what the project's users run: every command section of each
benchmark config (``bench/configs/*.json``) through ``moranlab.cli.main`` at
seed 1, each demo (``demos/*.py``), each ``python`` block of README.md, and
every case of ``tests/config_corpus.json``, replayed as
``tests/test_config_corpus.py`` replays it. All of it runs in this process,
with ``src/`` first on the import path, under ``sys.setprofile`` (and, with
``--lines``, ``sys.settrace``), both installed before ``moranlab`` is
imported. The script then reports, per file of ``src/moranlab``:

- every function, a ``def`` at any depth named by its module and dotted
  path, that the run never entered, with what the source says about it:
  whether it raises on every path, whether it is a process entry point of
  ``pyproject.toml``, and which functions (or module bodies) name it;
- with ``--lines``, every statement inside a function that no line event
  reached, raise statements aside. A docstring, ``global`` and ``nonlocal``
  compile to no code and are not counted.

Text goes to stdout, or JSON with ``--json``. A benchmark command that exits
non-zero stops the run with exit 1. ``tests/test_public_surface.py`` runs the
JSON report and holds every function to being entered. The function report
took about 2.7 s and the ``--lines`` report 5-6 s on a shared 2-core x86-64
VM under Python 3.11.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import re
import runpy
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "moranlab"


def _user_run(out: Path) -> dict[str, int]:
    """Run the user run once, writing artifacts under ``out``; the counts of
    what ran."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(ROOT / "tools"))
    from moranlab import cli

    import config_corpus

    counts = {"commands": 0, "demos": 0, "readme_blocks": 0, "corpus_cases": 0}
    for config in sorted((ROOT / "bench" / "configs").glob("*.json")):
        sections = json.loads(config.read_text())
        for command in cli._COMMANDS:
            if command in sections:
                args = [command, "--config", str(config), "--seed", "1",
                        "--out", str(out / config.stem / command)]
                if cli.main(args) != 0:
                    raise SystemExit(f"line_trace: {command} on {config.name} failed")
                counts["commands"] += 1
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
        counts["demos"] += 1
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
        counts["readme_blocks"] += 1
    corpus = json.loads((ROOT / "tests" / "config_corpus.json").read_text())
    for case in corpus:
        config_corpus.replay(case["command"], case["config"], out)
        counts["corpus_cases"] += 1
    return counts


def _trace(lines: bool) -> tuple[set, dict[str, set[int]], dict[str, int], float]:
    """(entered code objects, reached lines per file, run counts, seconds)."""
    package = str(PACKAGE)
    entered: set = set()
    reached: dict[str, set[int]] = {}

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    def trace(frame, event, arg):
        # a local tracer only for frames of the package
        if not frame.f_code.co_filename.startswith(package):
            return None
        seen = reached.setdefault(frame.f_code.co_filename, set())

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(profile)
            if lines:
                sys.settrace(trace)
            try:
                counts = _user_run(Path(tmp))
            finally:
                sys.settrace(None)
                sys.setprofile(None)
    return entered, reached, counts, time.perf_counter() - start


# --------------------------------------------------------------------------
# what the source says


def _local_nodes(node: ast.AST):
    """The nodes below ``node`` that belong to its own body: nested
    functions, lambdas and classes are left out."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            yield child
            yield from _local_nodes(child)


def _ends_in_raise(body: list[ast.stmt]) -> bool:
    last = body[-1]
    if isinstance(last, ast.If):
        return bool(last.orelse) and _ends_in_raise(last.body) and _ends_in_raise(last.orelse)
    return isinstance(last, ast.Raise)


def _raises_on_every_path(fn: ast.FunctionDef) -> bool:
    # no return and no yield can leave before the last statement, which raises
    escapes = (ast.Return, ast.Yield, ast.YieldFrom)
    return _ends_in_raise(fn.body) and not any(isinstance(n, escapes) for n in _local_nodes(fn))


def _entry_points() -> set[str]:
    """``module.function`` for each ``[project.scripts]`` entry of pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.S | re.M)
    targets = re.findall(r'=\s*"moranlab\.([\w.]+):(\w+)"', section.group(1)) if section else []
    return {f"{module}.{function}" for module, function in targets}


class _Function:
    def __init__(self, module: str, path: str, node: ast.FunctionDef) -> None:
        self.module, self.name, self.node = module, f"{module}.{path}", node
        self.leaf = node.name
        # a code object's first line is its first decorator's
        self.first = min([node.lineno, *(d.lineno for d in node.decorator_list)])


def _functions(module: str, tree: ast.Module) -> list[_Function]:
    out = []

    def visit(node: ast.AST, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append(_Function(module, path + child.name, child))
                visit(child, f"{path}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{path}{child.name}.")
            else:
                visit(child, path)

    visit(tree, "")
    return out


def _users(functions: list[_Function], trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    """Per bare function name, the functions (or module bodies) whose own
    code names it, as ``f(...)``, ``x.f`` or a bare ``f``."""
    users: dict[str, set[str]] = {}

    def note(nodes, owner: str) -> None:
        for n in nodes:
            name = n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else None
            if name is not None:
                users.setdefault(name, set()).add(owner)

    for fn in functions:
        note(_local_nodes(fn.node), fn.name)
        note([n for d in fn.node.decorator_list for n in ast.walk(d)], fn.module)
    for module, tree in trees.items():
        note(_local_nodes(tree), module)
        for node in ast.walk(tree):  # class bodies run with their module
            if isinstance(node, ast.ClassDef):
                note(_local_nodes(node), module)
    return users


def _statements(fn: ast.FunctionDef):
    """(statement, its own lines) for every statement of the function's own
    body; a compound statement owns its header lines only."""
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]  # the docstring
    pending = list(body)
    while pending:
        stmt = pending.pop(0)
        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(stmt, ast.AnnAssign) and stmt.value is None:
            continue
        first = min([stmt.lineno, *(d.lineno for d in getattr(stmt, "decorator_list", ()))])
        inner = []
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody"):
                inner += getattr(stmt, field, [])
            for handler in getattr(stmt, "handlers", []):
                inner += handler.body
        own_end = min([s.lineno for s in stmt.body] + [stmt.end_lineno + 1]) - 1 \
            if hasattr(stmt, "body") else stmt.end_lineno
        yield stmt, range(first, max(first, own_end) + 1)
        pending[:0] = inner


def report(lines: bool) -> dict:
    entered, reached, counts, seconds = _trace(lines)
    started = {(code.co_filename, code.co_firstlineno) for code in entered}
    entries = _entry_points()
    trees, sources, functions = {}, {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        sources[module] = path.read_text()
        trees[module] = ast.parse(sources[module], str(path))
        functions += _functions(module, trees[module])
    users = _users(functions, trees)
    files: dict[str, dict] = {}
    total_statements = 0
    for fn in functions:
        path = str(PACKAGE / f"{fn.module}.py")
        entry = files.setdefault(f"{fn.module}.py", {"functions": [], "statements": []})
        if (path, fn.first) not in started:
            entry["functions"].append({
                "name": fn.name,
                "line": fn.first,
                "raises_on_every_path": _raises_on_every_path(fn.node),
                "entry_point": fn.name in entries,
                "used_by": sorted(users.get(fn.leaf, set()) - {fn.name}),
            })
        if lines:
            seen = reached.get(path, set())
            source = sources[fn.module].splitlines()
            for stmt, own in _statements(fn.node):
                total_statements += 1
                if not isinstance(stmt, ast.Raise) and not seen.intersection(own):
                    entry["statements"].append(
                        {"line": own[0], "function": fn.name, "text": source[own[0] - 1].strip()}
                    )
    unentered = sum(len(f["functions"]) for f in files.values())
    result = {
        "run": {**counts, "seconds": round(seconds, 2)},
        "functions": {"total": len(functions), "entered": len(functions) - unentered},
        "files": {name: f for name, f in files.items() if f["functions"] or f["statements"]},
    }
    if lines:
        unreached = sum(len(f["statements"]) for f in files.values())
        result["statements"] = {"total": total_statements, "unreached_not_raise": unreached}
    return result


def _text(result: dict) -> str:
    run, fns = result["run"], result["functions"]
    out = [
        f"user run: {run['commands']} commands, {run['demos']} demos, "
        f"{run['readme_blocks']} README blocks, {run['corpus_cases']} corpus cases "
        f"in {run['seconds']:.1f} s",
        f"functions entered: {fns['entered']} of {fns['total']}",
    ]
    if "statements" in result:
        st = result["statements"]
        out.append(
            f"statements never reached, raise statements aside: "
            f"{st['unreached_not_raise']} of {st['total']}"
        )
    for name, entry in result["files"].items():
        out.append(f"\n{name}")
        for fn in entry["functions"]:
            notes = [note for note, on in (("raises on every path", fn["raises_on_every_path"]),
                                           ("entry point", fn["entry_point"])) if on]
            notes.append("named by " + (", ".join(fn["used_by"]) or "nothing"))
            out.append(f"  never entered: {fn['name']} (line {fn['line']}; {'; '.join(notes)})")
        for st in entry["statements"]:
            out.append(f"  never reached: line {st['line']} in {st['function']}: {st['text']}")
    return "\n".join(out)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lines", action="store_true", help="also report unreached statements")
    parser.add_argument("--json", action="store_true", help="print the report as JSON")
    args = parser.parse_args(argv)
    result = report(args.lines)
    print(json.dumps(result, indent=1) if args.json else _text(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
