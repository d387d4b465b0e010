"""Artifact bytes of every benchmark invocation, pinned in tier-1.

Each run uses a committed benchmark config at seed 1. It hashes every CSV it
writes from the line after the timestamp and every JSON report whole, the way
the benchmark harness does. The expected hashes are read from
``bench/digests.json`` (never copied), so a change that moves a single bracket
bit fails here before any benchmark run.
"""

import hashlib
import json
from pathlib import Path

import pytest

from moranlab.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _recorded() -> dict[str, str]:
    workloads = json.loads((BENCH / "digests.json").read_text())["workloads"]
    return {key: digest for entries in workloads.values() for key, digest in entries.items()}


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".csv":
        data = data.split(b"\n", 1)[1]  # drop the timestamp line
    return hashlib.sha256(data).hexdigest()


INVOCATIONS = [
    ("del", "orbit_del"),
    ("del", "orbit_del_blocks"),
    ("fourier", "spectrum_deep"),
    ("dimension", "sample_dimension_dim_one"),
    ("dimension", "sample_dimension_gauge"),
    ("uniqueness", "sample_uniqueness_plain"),
    ("uniqueness", "sample_uniqueness_dim_one"),  # samples through as_moran_system()
    ("normality", "sample_normality"),
    ("partition", "orbit_partition_b2"),
    ("partition", "orbit_partition_b3h2"),
    ("context", "orbit_context"),
    ("fourier", "spectrum_shallow"),
    ("schedule", "orbit_context"),
    ("schedule", "sample_normality"),
    ("schedule", "spectrum_shallow"),
]


def test_invocations_cover_every_recorded_key():
    assert {key.split("/")[0] for key in _recorded()} == {f"{c}:{cfg}" for c, cfg in INVOCATIONS}


@pytest.mark.parametrize("command, config", INVOCATIONS)
def test_csv_bytes_match_recorded_digests(tmp_path, capsys, command, config):
    cfg = BENCH / "configs" / f"{config}.json"
    rc = main([command, "--config", str(cfg), "--seed", "1", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    tag = f"{command}:{config}/"
    want = {k[len(tag):]: d for k, d in _recorded().items() if k.startswith(tag)}
    got = {path.name: _digest(path) for path in sorted(tmp_path.iterdir())}
    assert want, f"bench/digests.json has no entry for {tag}"
    assert got == want
