"""The README's config schema against the tables of config keys and rules.

Every section, key and default in ``moranlab.cli._KEYS`` must appear in the
``jsonc`` block under "Config file schema", and the block may hold nothing
else, so the two cannot drift apart. The list under "Rules across keys"
must name the rules of ``moranlab.cli._RULES``, section and keys, in order.
The list under "Columns per file" must give the header row of each CSV
artifact that the commands write.
"""

import importlib.util
import json
import re
from pathlib import Path

from moranlab.cli import _KEYS, _RULES, main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
_spec = importlib.util.spec_from_file_location("config_corpus", ROOT / "tools" / "config_corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)


def _defaults(name):
    return {key: default for key, default, *_ in _KEYS[name]}


def _schema_block():
    text = README.read_text()
    body = text[text.index("## Config file schema") :]
    start = body.index("```jsonc\n") + len("```jsonc\n")
    block = body[start : body.index("\n```", start)]
    # no string in the block holds "//"
    return json.loads(re.sub(r"//.*", "", block)), body


def test_readme_schema_lists_every_section_key_and_default():
    schema, _ = _schema_block()
    sections = [name for name in _KEYS if name and "." not in name]
    expected = {**{name: _defaults(name) for name in sections}, **_defaults("")}
    assert set(schema) == set(expected)
    for name in sections:
        assert set(schema[name]) == set(expected[name]), name
        for key, default in expected[name].items():
            assert schema[name][key] == default and type(schema[name][key]) is type(default), (
                f"{name}.{key}"
            )
    for key, default in _defaults("").items():
        assert schema[key] == default, key


def test_readme_gives_the_gauge_defaults():
    # dimension.gauge defaults to null, so its own keys' defaults sit in the notes
    _, body = _schema_block()
    found = re.search(r"`dimension\.gauge` is an object `(\{.*?\})`", body)
    assert found, "the dimension.gauge note is missing"
    assert json.loads(found.group(1)) == _defaults("dimension.gauge")


def test_readme_lists_every_rule_across_keys_in_order():
    _, body = _schema_block()
    text = body[body.index("Rules across keys.") : body.index("\nNotes:")]
    listed = [
        (section, tuple(re.findall(r"`(\w+)`", keys)))
        for section, keys in re.findall(r"^- `([\w.]+)`: ((?:`\w+`, )*`\w+`)\.", text, re.M)
    ]
    assert listed == [(name, keys) for name, (keys, _) in _RULES.items()]


def test_readme_columns_are_the_header_rows_the_commands_write(tmp_path, capsys):
    text = README.read_text()
    body = text[text.index("Columns per file:") : text.index("\nJSON reports")]
    listed = {
        name: [column.strip() for column in columns.split(",")]
        for name, columns in re.findall(r"^- `(\w+\.csv)`: `([^`]*)`", body, re.M)
    }
    written = {}
    # the small config of each command that writes a CSV; del's writes both files
    for command in ("fourier", "del", "partition", "normality", "uniqueness", "dimension"):
        config, out = tmp_path / f"{command}.json", tmp_path / command
        config.write_text(json.dumps(corpus.BASE[command]))
        assert main([command, "--config", str(config), "--out", str(out)]) == 0, command
        for path in out.glob("*.csv"):
            lines = path.read_text().split("\n")
            assert lines[0].startswith("# generated: ") and lines[1].startswith("# config_sha256: ")
            written[path.name] = lines[2].split(",")
    capsys.readouterr()
    assert len(written) == 8
    assert listed == written
