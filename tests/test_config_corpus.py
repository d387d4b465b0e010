"""Replay the config-fault corpus: every config's exit code and stderr bytes.

``tools/config_corpus.py`` generated ``config_corpus.json``: single- and
two-fault configs for every config key, each with the exit code and stderr
that ``moranlab.cli.main`` gave for it. A changed message or check order
shows here as a mismatch.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("config_corpus", ROOT / "tools" / "config_corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

CASES = json.loads((Path(__file__).parent / "config_corpus.json").read_text())


@pytest.mark.parametrize("command", sorted({case["command"] for case in CASES}))
def test_corpus_replays_unchanged(tmp_path, command):
    changed = []
    for case in CASES:
        if case["command"] == command:
            got = corpus.replay(command, case["config"], tmp_path)
            if got != (case["rc"], case["stderr"]):
                changed.append(f"{json.dumps(case['config'])}: {case['rc']} {case['stderr']!r} -> {got}")
    assert not changed, "\n".join(changed)


def test_corpus_covers_every_key_of_the_table():
    from moranlab.cli import _KEYS

    def keys(config, prefix=""):
        for key, value in config.items():
            yield prefix + key
            if isinstance(value, dict):
                yield from keys(value, f"{prefix}{key}.")

    seen = {key for case in CASES for key in keys(case["config"])}
    table = {f"{name}.{key}" if name else key for name, rows in _KEYS.items() for key, *_ in rows}
    assert table <= seen
