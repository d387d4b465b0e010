"""Smoke test: every demo script runs to completion as its own process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import moranlab

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    # an empty glob would parametrize nothing and pass silently
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # run from a scratch cwd, so hand the child an absolute import path
    src = str(Path(moranlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
