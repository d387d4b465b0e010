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


def test_every_value_counted_in_a_two_fault_case_fails_alone(tmp_path):
    # a case labelled with two faults pins the order of two checks only when
    # each of its values exits non-zero on its own
    parts = {}
    for command, config, joined in corpus.cases():
        parts.setdefault(json.dumps([command, config], sort_keys=True), joined)
    alone = {}
    two = [case for case in CASES if case["faults"] == 2]
    for case in two:
        joined = parts[json.dumps([case["command"], case["config"]], sort_keys=True)]
        assert len(joined) == 2, case["config"]
        for part in joined:
            key = json.dumps([case["command"], part], sort_keys=True)
            if key not in alone:
                alone[key] = corpus.replay(case["command"], part, tmp_path)[0]
            assert alone[key] != 0, (case["config"], part)
    assert len(two) > 400


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


def test_corpus_breaks_every_rule_of_the_table():
    from moranlab.cli import _RULES

    assert set(corpus.RULE_FAULTS) == set(_RULES)
    recorded = {json.dumps([case["command"], case["config"]], sort_keys=True) for case in CASES}
    for section, (command, faults) in corpus.RULE_FAULTS.items():
        for values in faults:
            config = corpus._with_values(corpus.BASE[command], section, values)
            assert json.dumps([command, config], sort_keys=True) in recorded, (command, config)
