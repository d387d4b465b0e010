"""Smoke test: every demo script and every ``python`` block of README.md
runs to completion as its own process."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import moranlab

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    # run from a scratch cwd, so hand the child an absolute import path
    src = str(Path(moranlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, env=env)


def test_demos_found():
    # an empty glob would parametrize nothing and pass silently
    assert DEMOS and README_BLOCKS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = _run([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_python_block_runs(index, tmp_path):
    proc = _run(["-c", README_BLOCKS[index]], tmp_path)
    assert proc.returncode == 0, proc.stderr
