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


def test_no_case_labelled_with_a_fault_exits_0():
    # an edge value that runs, or two values that cancel (q: [7] beside
    # ell: [1]), pin no failing check
    assert not [case["config"] for case in CASES if case["faults"] and case["rc"] == 0]
    assert sum(1 for case in CASES if case["faults"] == 0 and case["rc"] == 0) > 200


def test_every_value_counted_in_a_two_fault_case_fails_alone(tmp_path):
    # a case labelled with two faults pins the order of two checks only when
    # each of its values exits non-zero on its own, and still does beside the
    # other value's keys set to values that pass: a schedule variant beside q
    # or ell is never read
    parts = {}
    for command, config, joined in corpus.cases():
        parts.setdefault(json.dumps([command, config], sort_keys=True), joined)
    two = [case for case in CASES if case["faults"] == 2]
    for case in two:
        command, config = case["command"], case["config"]
        joined = parts[json.dumps([command, config], sort_keys=True)]
        assert len(joined) == 2, config
        for one, other in (joined, joined[::-1]):
            assert corpus.replay(command, one, tmp_path)[0] != 0, (config, one)
            beside = corpus._repaired(config, other, one, corpus.BASE[command])
            assert corpus.replay(command, beside, tmp_path)[0] != 0, (config, beside)
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
