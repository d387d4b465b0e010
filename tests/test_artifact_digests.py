"""Artifact bytes of the benchmark's transform-heavy runs, pinned in tier-1.

Each run uses a committed benchmark config at seed 1 and hashes every CSV it
writes from the line after the timestamp, the way the benchmark harness does.
The expected hashes are read from ``bench/digests.json`` (never copied), so a
change that moves a single bracket bit fails here before any benchmark run.
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


@pytest.mark.parametrize(
    "command, config",
    [("del", "orbit_del"), ("del", "orbit_del_blocks"), ("fourier", "spectrum_deep")],
)
def test_csv_bytes_match_recorded_digests(tmp_path, capsys, command, config):
    cfg = BENCH / "configs" / f"{config}.json"
    rc = main([command, "--config", str(cfg), "--seed", "1", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    tag = f"{command}:{config}/"
    want = {k[len(tag):]: d for k, d in _recorded().items() if k.startswith(tag)}
    got = {
        path.name: hashlib.sha256(path.read_bytes().split(b"\n", 1)[1]).hexdigest()
        for path in sorted(tmp_path.glob("*.csv"))
    }
    assert want, f"bench/digests.json has no entry for {tag}"
    assert got == want
