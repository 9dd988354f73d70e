"""The YAML loader: libyaml where PyYAML has it, and the same objects, the
same configs and the same error classes as the pure-Python SafeLoader."""
import math

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from zircon import scenario
from zircon.adversary import AttackSpec
from zircon.analysis import EnergyParams
from zircon.scenario import (
    EXAMPLE_CONFIG,
    ConfigError,
    KeyRotationConfig,
    NodeSpec,
    ScenarioConfig,
    TrafficSpec,
    dump_config,
    load_config,
    to_dict,
)
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
    assert dump_config(configs[0]) == dump_config(configs[1])


# -- generated configs, dumped and read back ----------------------------------

INTS = st.integers(min_value=-2 ** 70, max_value=2 ** 70)
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
# any text, including what the resolver could mistake for a number, a bool,
# a null or a timestamp
TEXT = st.text(max_size=12) | st.sampled_from(
    ["yes", "No", "on", "~", "null", "1e5", "1.0e+5", "0x1F", "0o17", "017",
     "1_000", ".inf", "-.NaN", "2001-12-14", "12:30:45", "<<", "=", "-", ""])
FINITE = st.floats(min_value=0, max_value=1e300)

NODES = st.builds(NodeSpec, id=INTS, ip=TEXT, role=TEXT, x=FLOATS, y=FLOATS,
                  registered=st.booleans())
TRAFFIC = st.builds(TrafficSpec, source=INTS, count=INTS, interval_ms=INTS,
                    start_ms=INTS, payload_bytes=INTS)
ENERGY = st.builds(EnergyParams, p_n_mw=FINITE, t_a_ms=FINITE,
                   tc_per_op_ms=FINITE | st.integers(0, 10 ** 6))
OPTIONAL_INT = st.none() | INTS
LINK = dict(from_id=OPTIONAL_INT, to_id=OPTIONAL_INT, src=OPTIONAL_INT,
            seq=OPTIONAL_INT, after_ms=INTS)
EDITS = st.lists(st.tuples(INTS, st.integers(1, 255)), min_size=1,
                 max_size=3).map(tuple)
# one strategy per attack kind, each setting that kind's own fields
ATTACKS = st.one_of(
    st.builds(AttackSpec, kind=st.sampled_from(["eavesdrop", "drop"]), **LINK),
    st.builds(AttackSpec, kind=st.just("replay"), delay_ms=INTS,
              mutate_timestamp=st.booleans(), **LINK),
    st.builds(AttackSpec, kind=st.just("insert_bits"), offset_bits=INTS,
              bits=st.lists(st.integers(0, 1), min_size=1).map(tuple), **LINK),
    st.builds(AttackSpec, kind=st.just("delete_bits"), q=st.integers(1),
              offset_bits=OPTIONAL_INT, **LINK),
    st.builds(AttackSpec, kind=st.sampled_from(["modify_payload",
                                                "modify_watermark"]),
              edits=EDITS, **LINK),
    st.builds(AttackSpec, kind=st.just("fake_inject"), to_id=INTS, src=INTS,
              seq=INTS, ip=st.binary(min_size=4, max_size=4),
              payload=st.binary(max_size=8),
              key_material=st.binary(min_size=16, max_size=16),
              key_epoch=INTS, hop=INTS),
    st.builds(AttackSpec, kind=st.just("store_probe"), caller_id=INTS,
              src=OPTIONAL_INT, seq=OPTIONAL_INT, after_ms=INTS),
)
CONFIGS = st.builds(
    ScenarioConfig, seed=INTS, mode=TEXT, freshness_s=INTS,
    per_hop_delay_ms=INTS,
    area=st.tuples(FLOATS, FLOATS),
    key_rotation=st.none() | st.builds(KeyRotationConfig, INTS, INTS),
    energy=ENERGY, nodes=st.lists(NODES, max_size=3),
    routes=st.lists(st.lists(INTS, max_size=4), max_size=3),
    traffic=st.lists(TRAFFIC, max_size=2),
    attacks=st.lists(ATTACKS, max_size=2))


@settings(max_examples=150, deadline=None)
@given(CONFIGS)
def test_dumped_configs_load_alike(config):
    text = dump_config(config)
    data = same_under_both_loaders(text)
    # and the shape read back is the shape that was dumped
    want = to_dict(config)
    assert repr(data) == repr(want)


def test_lookalike_scalars_resolve_alike():
    # a string that looks like another type must come back as that string,
    # and YAML 1.1 reads an exponent without a dot as text
    data = same_under_both_loaders(dump_config(ScenarioConfig(mode="1e5")))
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

