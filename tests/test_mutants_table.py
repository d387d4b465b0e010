"""The mutant table of ``tools/mutants.py`` matches the tree, without running a mutant.

Each mutant's snippet must occur exactly once in its source file, or the
script stops on it; each target must name an existing test file and, after
``::``, a test that file defines (a ``[...]`` parameter suffix is ignored),
or pytest runs nothing there and the mutant is judged on the others alone.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def _defined_tests(path: Path) -> set[str]:
    # module-level test functions, and Class::method for test classes
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(f"{node.name}::{item.name}")
    return names


@pytest.mark.parametrize("name", sorted(mutants.MUTANTS))
def test_mutant_matches_the_tree(name):
    path, snippet, replacement, targets = mutants.MUTANTS[name]
    assert snippet != replacement
    assert (ROOT / path).read_text().count(snippet) == 1, f"snippet of {name} in {path}"
    assert targets
    for target in targets:
        file, _, test = target.partition("::")
        assert (ROOT / file).is_file(), f"{name}: no test file {file}"
        if test:
            assert test.split("[")[0] in _defined_tests(ROOT / file), f"{name}: no {target}"
