"""The README's config schema against the tables of config keys and rules.

Every section, key and default in ``moranlab.cli._KEYS`` must appear in the
``jsonc`` block under "Config file schema", and the block may hold nothing
else, so the two cannot drift apart. The list under "Rules across keys"
must name the rules of ``moranlab.cli._RULES``, section and keys, in order.
"""

import json
import re
from pathlib import Path

from moranlab.cli import _KEYS, _RULES

README = Path(__file__).resolve().parents[1] / "README.md"


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
