"""The YAML loader: libyaml where PyYAML has it, and the same objects, the
same configs and the same error classes as the pure-Python SafeLoader."""
import math

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from zircon import scenario
from zircon.scenario import EXAMPLE_CONFIG, ConfigError, load_config
from tests.test_golden_outputs import GOLDEN

# the pure-Python loader is the reference every other loader must match
REFERENCE = yaml.SafeLoader
LOADERS = [REFERENCE, scenario.LOADER]


def test_loader_is_libyaml_where_pyyaml_has_it():
    if yaml.__with_libyaml__:
        assert scenario.LOADER is yaml.CSafeLoader
    else:
        assert scenario.LOADER is yaml.SafeLoader


def same_under_both_loaders(text):
    want = yaml.load(text, Loader=REFERENCE)
    got = yaml.load(text, Loader=scenario.LOADER)
    # repr, so that a NaN compares equal to itself and 1 differs from 1.0
    assert repr(got) == repr(want)
    return want


def load_with(monkeypatch, loader, text):
    monkeypatch.setattr(scenario, "LOADER", loader)
    return load_config(text)


@pytest.mark.parametrize("name", ["example"] + sorted(GOLDEN))
def test_scenarios_load_alike(name, monkeypatch):
    text = EXAMPLE_CONFIG if name == "example" else GOLDEN[name][0]
    same_under_both_loaders(text)
    configs = [load_with(monkeypatch, loader, text) for loader in LOADERS]
    assert configs[0] == configs[1]


# -- generated YAML data, dumped and read back --------------------------------

INTS = st.integers(min_value=-2 ** 70, max_value=2 ** 70)
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
# any text, including what the resolver could mistake for a number, a bool,
# a null or a timestamp
TEXT = st.text(max_size=12) | st.sampled_from(
    ["yes", "No", "on", "~", "null", "1e5", "1.0e+5", "0x1F", "0o17", "017",
     "1_000", ".inf", "-.NaN", "2001-12-14", "12:30:45", "<<", "=", "-", ""])
# what a scenario file holds: scalars in lists and str-keyed mappings
DATA = st.recursive(
    st.none() | st.booleans() | INTS | FLOATS | TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=16)


@settings(max_examples=150, deadline=None)
@given(DATA)
def test_dumped_yaml_loads_alike(data):
    text = yaml.safe_dump(data, sort_keys=False)
    # and the data read back is the data that was dumped
    assert repr(same_under_both_loaders(text)) == repr(data)


def test_lookalike_scalars_resolve_alike():
    # a string that looks like another type must come back as that string,
    # and YAML 1.1 reads an exponent without a dot as text
    data = same_under_both_loaders(yaml.safe_dump({"mode": "1e5"}))
    assert data["mode"] == "1e5"
    data = same_under_both_loaders("seed: 1e5\nmode: 1.0e+5\narea: [.nan, 1]\n")
    assert data["seed"] == "1e5" and data["mode"] == 100000.0
    assert math.isnan(data["area"][0])


# -- malformed text -------------------------------------------------------------

MALFORMED = {
    "unclosed flow sequence": "nodes: [unclosed",
    "tab indent": "seed: 1\n\tmode: multihop\n",
    "undefined alias": "seed: *undefined\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_yaml_is_a_config_error_under_both(name, monkeypatch):
    text = MALFORMED[name]
    causes = []
    for loader in LOADERS:
        with pytest.raises(ConfigError) as exc:
            load_with(monkeypatch, loader, text)
        assert exc.value.errors[0].startswith("yaml: ")
        causes.append(type(exc.value.__cause__))
    # libyaml words its messages differently, but raises the same classes
    assert causes[0] is causes[1]
    assert issubclass(causes[0], yaml.MarkedYAMLError)


def test_loader_reads_streams_and_bytes(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(EXAMPLE_CONFIG, encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        from_stream = load_config(fh)
    assert from_stream == load_config(EXAMPLE_CONFIG.encode())
    assert from_stream == load_config(EXAMPLE_CONFIG)

