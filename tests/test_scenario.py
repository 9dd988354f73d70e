"""Config schema: YAML round-trip and the validation catalog."""
import dataclasses
import random

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zircon import events
from zircon.adversary import KINDS, AttackSpec
from zircon.analysis import EnergyParams
from zircon.netsim import Simulation, run
from zircon.nodes import ACCEPTED, GatewayNode, SourceNode
from zircon.scenario import (
    EXAMPLE_CONFIG,
    ConfigError,
    KeyRotationConfig,
    NodeSpec,
    ScenarioConfig,
    TrafficSpec,
    dump_config,
    from_dict,
    load_config,
    to_dict,
    validate,
)
from zircon.watermark import extract, extract_bare


def small_config(**overrides):
    cfg = ScenarioConfig(
        seed=3,
        nodes=[
            NodeSpec(id=1, ip="10.0.0.1", role="source", x=5, y=5),
            NodeSpec(id=2, ip="10.0.0.2", role="intermediate", x=50, y=5),
            NodeSpec(id=9, ip="10.0.0.9", role="gateway", x=95, y=5),
        ],
        routes=[[1, 2, 9]],
        traffic=[TrafficSpec(source=1, count=3)],
    )
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return cfg


def errors_of(cfg):
    with pytest.raises(ConfigError) as exc:
        validate(cfg)
    return exc.value.errors


def test_example_config_is_valid():
    cfg = load_config(EXAMPLE_CONFIG)
    assert cfg.seed == 7
    assert cfg.mode == "multihop"
    assert [n.id for n in cfg.nodes] == [1, 2, 3, 9]
    assert cfg.routes == [[1, 2, 3, 9]]
    assert cfg.traffic[0].count == 20
    assert cfg.key_rotation == KeyRotationConfig(40, 80)
    assert cfg.attacks == []


def test_yaml_roundtrip_preserves_everything():
    cfg = small_config()
    cfg.key_rotation = KeyRotationConfig(5, 9)
    cfg.energy = EnergyParams(p_n_mw=25.0, tc_per_op_ms=0.25)
    cfg.attacks = [
        AttackSpec(kind="eavesdrop", from_id=1, to_id=2),
        AttackSpec(kind="replay", from_id=1, to_id=2, delay_ms=9000,
                   mutate_timestamp=True),
        AttackSpec(kind="modify_payload", from_id=1, to_id=2, seq=2,
                   edits=((0, 1), (3, 0x80))),
        AttackSpec(kind="modify_watermark", from_id=2, to_id=9,
                   edits=((17, 0xFF),)),
        # each after the attacks that parse frames on its link
        AttackSpec(kind="insert_bits", from_id=2, to_id=9, offset_bits=12,
                   bits=(1, 0, 1)),
        AttackSpec(kind="delete_bits", from_id=1, to_id=2, q=5, offset_bits=3),
        AttackSpec(kind="drop", from_id=2, to_id=9, after_ms=1500),
        AttackSpec(kind="fake_inject", to_id=2, src=1, seq=4,
                   ip=bytes([10, 0, 0, 1]), payload=b"fp",
                   key_material=bytes(16), key_epoch=3, hop=2),
        AttackSpec(kind="store_probe", caller_id=666, src=1, seq=1,
                   after_ms=10),
    ]
    text = dump_config(cfg)
    back = load_config(text)
    assert to_dict(back) == to_dict(cfg)
    # and a second round-trip is a fixed point
    assert dump_config(back) == text


def test_load_config_accepts_stream(tmp_path):
    p = tmp_path / "scenario.yaml"
    p.write_text(EXAMPLE_CONFIG)
    with open(p) as fh:
        cfg = load_config(fh)
    assert cfg.seed == 7


def test_bad_yaml_and_bad_shape():
    with pytest.raises(ConfigError):
        load_config("nodes: [unclosed")
    with pytest.raises(ConfigError):
        load_config("- just\n- a list\n")
    with pytest.raises(ConfigError):
        from_dict(["not", "a", "mapping"])


def test_attacks_keep_every_field_off_its_default():
    # the writer used to keep only each kind's own fields, so these came
    # back from the YAML as defaults
    cfg = small_config(attacks=[
        AttackSpec(kind="drop", from_id=1, to_id=2, delay_ms=5,
                   mutate_timestamp=True, q=3, offset_bits=7, bits=(1, 0),
                   edits=((0, 1),), caller_id=6),
        AttackSpec(kind="eavesdrop", from_id=1, to_id=2, ip=bytes(4),
                   payload=b"p", key_material=bytes(16), key_epoch=2, hop=4),
        AttackSpec(kind="replay", from_id=1, to_id=2, delay_ms=1000)])
    assert load_config(dump_config(cfg)) == cfg
    assert to_dict(cfg)["attacks"][2] == {"kind": "replay", "from": 1, "to": 2}


# -- validation catalog ---------------------------------------------------------

def test_validate_accepts_small_config():
    validate(small_config())


def test_unknown_mode():
    assert any("mode:" in e for e in errors_of(small_config(mode="hybrid")))


def test_duplicate_node_ids_and_ips():
    cfg = small_config()
    cfg.nodes.append(NodeSpec(id=1, ip="10.0.0.5", role="source"))
    assert any("duplicate id" in e for e in errors_of(cfg))
    cfg = small_config()
    cfg.nodes.append(NodeSpec(id=5, ip="10.0.0.1", role="source"))
    assert any("duplicate address" in e for e in errors_of(cfg))


def test_bad_ip_and_position():
    cfg = small_config()
    cfg.nodes[0].ip = "999.0.0.1"
    assert any("bad address" in e for e in errors_of(cfg))
    cfg = small_config()
    cfg.nodes[0].x = -1
    assert any("outside" in e for e in errors_of(cfg))
    # a node's errors name its place in the list, as the type checks do,
    # not its id
    cfg = small_config()
    cfg.nodes[2].ip = "10.0.0"
    cfg.nodes[2].y = -1
    cfg.nodes.append(NodeSpec(id=9, ip="10.0.0.5", role="gateway"))
    assert errors_of(cfg) == ["nodes[2].ip: bad address '10.0.0'",
                              "nodes[2]: position outside 100.0x100.0 area",
                              "nodes[3].id: duplicate id 9"]
    # a leading zero reads as octal to some tools: not the decimal 10.0.0.1
    # of nodes[0], but no address at all
    cfg = small_config()
    cfg.nodes[1].ip = "010.0.0.1"
    assert errors_of(cfg) == ["nodes[1].ip: bad address '010.0.0.1'"]


def test_route_shape_checks():
    cfg = small_config(routes=[[1]])
    assert any("at least source and gateway" in e for e in errors_of(cfg))
    cfg = small_config(routes=[[1, 2, 7]])
    assert any("unknown node ids" in e for e in errors_of(cfg))
    cfg = small_config(routes=[[2, 1, 9]])
    errs = errors_of(cfg)
    assert any("first node must be a source" in e for e in errs)
    # the next hop is looked up by (source, node): 1->2->2->9 would run as
    # 1->2->9, and a second route from a source would replace the first
    cfg = small_config(routes=[[1, 2, 2, 9]])
    assert errors_of(cfg) == ["routes[0]: nodes [2] appear more than once"]
    cfg = small_config(routes=[[1, 2, 9], [1, 9]])
    assert errors_of(cfg) == ["routes[1]: source 1 already has routes[0]"]
    cfg = small_config(routes=[[1, 9, 9]])
    assert any("must be intermediate" in e for e in errors_of(cfg))


def test_unregistered_nodes_cannot_relay():
    cfg = small_config()
    cfg.nodes[1].registered = False
    assert any("unregistered" in e for e in errors_of(cfg))


def test_singlehop_route_and_attack_restrictions():
    cfg = small_config(mode="singlehop")
    assert any("source->gateway only" in e for e in errors_of(cfg))
    cfg = small_config(mode="singlehop", routes=[[1, 9]])
    validate(cfg)
    cfg.attacks = [AttackSpec(kind="modify_watermark", from_id=1, to_id=9,
                              edits=((0, 1),))]
    assert any("no watermark" in e for e in errors_of(cfg))
    cfg.attacks = [AttackSpec(kind="replay", from_id=1, to_id=9,
                              mutate_timestamp=True)]
    assert any("no watermark" in e for e in errors_of(cfg))
    cfg.attacks = [AttackSpec(kind="replay", from_id=1, to_id=9)]
    validate(cfg)  # plain replay of a bare frame is fine


def test_traffic_checks():
    cfg = small_config()
    cfg.traffic[0].source = 2
    assert any("not a source node" in e for e in errors_of(cfg))
    cfg = small_config()
    cfg.nodes.append(NodeSpec(id=5, ip="10.0.0.5", role="source"))
    cfg.traffic.append(TrafficSpec(source=5, count=1))
    assert any("has no route" in e for e in errors_of(cfg))
    cfg = small_config()
    cfg.traffic[0].count = 0
    assert any("count" in e for e in errors_of(cfg))
    cfg = small_config()
    cfg.traffic[0].payload_bytes = 70000
    assert any("16 bits" in e for e in errors_of(cfg))


def test_wire_limits():
    # source ids travel in a 16-bit header field
    cfg = small_config()
    cfg.nodes[0].id = 70000
    cfg.routes = [[70000, 2, 9]]
    cfg.traffic[0].source = 70000
    assert any("source id must fit 16 bits" in e for e in errors_of(cfg))
    cfg.nodes[0].id = cfg.routes[0][0] = cfg.traffic[0].source = 0xFFFF
    validate(cfg)
    assert run(cfg).report["counts"]["emitted"] == 3
    cfg = small_config()
    cfg.nodes[1].id = 70000  # only sources put their id on the wire
    cfg.routes = [[1, 70000, 9]]
    validate(cfg)

    # the hop index is 8 bits: 254 intermediates are the most a route holds;
    # 200 ms hops keep the 255-hop trip (51 s) inside the 60-s freshness window
    cfg = small_config(per_hop_delay_ms=200)
    for i in range(255):
        cfg.nodes.append(NodeSpec(id=100 + i, ip=f"10.1.{i // 200}.{i % 200}",
                                  role="intermediate"))
    cfg.routes = [[1] + [100 + i for i in range(255)] + [9]]
    assert any("8-bit hop" in e for e in errors_of(cfg))
    cfg.routes[0].pop(1)
    validate(cfg)
    counts = run(cfg).report["counts"]
    assert counts["emitted"] == 3
    assert counts["accepted"] == 3

    # sequence numbers are 32 bits, counted over all of a source's traffic
    cfg = small_config(traffic=[TrafficSpec(source=1, count=2 ** 31),
                                TrafficSpec(source=1, count=2 ** 31)])
    assert any("sequence numbers must fit 32 bits" in e for e in errors_of(cfg))
    cfg.traffic[1].count -= 1
    validate(cfg)


def test_fake_inject_wire_limits():
    def forged(**fields):
        spec = dict(kind="fake_inject", to_id=2, src=1, seq=1, ip=bytes(4),
                    key_material=bytes(16))
        spec.update(fields)
        return small_config(attacks=[AttackSpec(**spec)])

    validate(forged(src=0xFFFF, seq=0xFFFFFFFF, hop=255))
    assert any("forged src" in e for e in errors_of(forged(src=0x10000)))
    assert any("forged seq" in e for e in errors_of(forged(seq=2 ** 32)))
    assert any("forged hop" in e for e in errors_of(forged(hop=0)))
    assert any("forged hop" in e for e in errors_of(forged(hop=256)))
    assert any("forging key" in e for e in errors_of(forged(key_material=bytes(15))))
    # a 3-byte address used to pass, and the run aborted on the first forgery
    assert errors_of(forged(ip=b"\x0a\x00\x01")) == [
        "attacks[0].ip: fake_inject needs a 4-byte forged address"]
    assert any("forged payload" in e
               for e in errors_of(forged(payload=bytes(0x10000))))


def test_attack_link_must_exist():
    cfg = small_config()
    cfg.attacks = [AttackSpec(kind="drop", from_id=2, to_id=1)]
    assert any("not on any route" in e for e in errors_of(cfg))


# small_config's only link frames are 9 + 16 + 24 bytes: 392 bits
SHORTEST = "the shortest frame on 1->2"


@pytest.mark.parametrize("attack, message", [
    (AttackSpec("modify_payload", 1, 2, edits=((0, 1), (16, 1))),
     f"attacks[0].edits: offset 16 is outside the 16-byte payload of "
     f"{SHORTEST}"),
    (AttackSpec("modify_payload", 1, 2, edits=((-1, 1),)),
     f"attacks[0].edits: offset -1 is outside the 16-byte payload of "
     f"{SHORTEST}"),
    (AttackSpec("modify_watermark", 1, 2, edits=((24, 1),)),
     "attacks[0].edits: offset 24 is outside the 24-byte watermark"),
    (AttackSpec("insert_bits", 1, 2, offset_bits=393, bits=(1,)),
     f"attacks[0].offset_bits: 393 is outside the 392 bits of {SHORTEST}"),
    (AttackSpec("insert_bits", 1, 2, bits=(1,)),
     "attacks[0].offset_bits: insert_bits needs an offset"),
    (AttackSpec("delete_bits", 1, 2, offset_bits=390, q=3),
     f"attacks[0].offset_bits: bits 390..392 are outside the 392 bits of "
     f"{SHORTEST}"),
    (AttackSpec("delete_bits", 1, 2, q=393),
     f"attacks[0].q: 393 bits is more than the 392 bits of {SHORTEST}"),
])
def test_attack_offsets_must_fall_inside_the_shortest_frame(attack, message):
    assert errors_of(small_config(attacks=[attack])) == [message]


@pytest.mark.parametrize("attack", [
    AttackSpec("modify_payload", 1, 2, edits=((15, 1),)),
    AttackSpec("modify_watermark", 1, 2, edits=((23, 1),)),
    AttackSpec("insert_bits", 1, 2, offset_bits=392, bits=(1,)),
    AttackSpec("delete_bits", 1, 2, offset_bits=389, q=3),
    AttackSpec("delete_bits", 1, 2, q=392),
])
def test_attack_offsets_at_the_frame_edge_run(attack):
    counts = run(small_config(attacks=[attack])).report["counts"]
    assert counts["emitted"] == 3
    assert counts["accepted"] + counts["rejected"] + counts["dropped"] == 3


def test_attack_offsets_meet_the_shortest_crossing_payload():
    edit = AttackSpec("modify_payload", 1, 2, edits=((4, 1),))
    cfg = small_config(attacks=[edit], traffic=[
        TrafficSpec(source=1, count=1), TrafficSpec(source=1, count=1,
                                                    payload_bytes=4)])
    assert errors_of(cfg) == [f"attacks[0].edits: offset 4 is outside the "
                              f"4-byte payload of {SHORTEST}"]
    # an attack filtered to a source that sends nothing meets no frame
    edit.src = 7
    validate(cfg)
    # a singlehop frame has no watermark: 9 + 16 bytes, 200 bits
    cfg = small_config(mode="singlehop", routes=[[1, 9]], attacks=[
        AttackSpec("insert_bits", 1, 9, offset_bits=201, bits=(1,))])
    assert errors_of(cfg) == ["attacks[0].offset_bits: 201 is outside the "
                              "200 bits of the shortest frame on 1->9"]


_CUT = AttackSpec("delete_bits", 1, 2, offset_bits=0, q=8)
_PAD = AttackSpec("insert_bits", 1, 2, offset_bits=8, bits=(1,))


@pytest.mark.parametrize("later", [
    AttackSpec("modify_payload", 1, 2, edits=((0, 1),)),
    AttackSpec("modify_watermark", 1, 2, edits=((0, 1),)),
    AttackSpec("replay", 1, 2, mutate_timestamp=True),
    _PAD,
])
def test_a_frame_parser_after_a_reshaper_on_its_link_is_refused(later):
    assert errors_of(small_config(attacks=[_CUT, later])) == [
        f"attacks[1]: {later.kind} on 1->2 would parse frames the "
        f"delete_bits of attacks[0] has already reshaped"]


@pytest.mark.parametrize("attacks", [
    # the parser first, or a non-parsing attack after the reshaper
    [AttackSpec("modify_watermark", 1, 2, edits=((0, 1),)), _PAD],
    [_PAD, AttackSpec("replay", 1, 2), AttackSpec("drop", 1, 2, seq=3)],
    # filters that no one packet matches both of
    [AttackSpec("delete_bits", 1, 2, src=1, offset_bits=0, q=8),
     AttackSpec("modify_payload", 1, 2, src=5, edits=((0, 1),))],
    [AttackSpec("delete_bits", 1, 2, seq=1, offset_bits=0, q=8),
     AttackSpec("modify_payload", 1, 2, seq=2, edits=((0, 1),))],
    # another link
    [_CUT, AttackSpec("modify_payload", 2, 9, edits=((0, 1),))],
])
def test_attacks_that_never_chain_on_a_frame_run(attacks):
    counts = run(small_config(attacks=attacks)).report["counts"]
    assert counts["emitted"] == 3


def test_a_reshaper_filtered_to_one_source_still_meets_an_unfiltered_parser():
    cut = AttackSpec("delete_bits", 1, 2, src=1, offset_bits=0, q=8)
    edit = AttackSpec("modify_payload", 1, 2, edits=((0, 1),))
    assert errors_of(small_config(attacks=[cut, edit])) == [
        "attacks[1]: modify_payload on 1->2 would parse frames the "
        "delete_bits of attacks[0] has already reshaped"]


def test_xor_masks_must_be_bytes():
    edits = ((0, 1), (1, 255), (2, 256), (3, -1))
    assert errors_of(small_config(attacks=[
        AttackSpec("modify_payload", 1, 2, edits=edits)])) == [
        "attacks[0].edits: xor mask 256 is not a byte (1..255)",
        "attacks[0].edits: xor mask -1 is not a byte (1..255)"]


def test_events_must_start_at_zero_or_later():
    # each was scheduled before the clock's start and stopped the run with
    # "event queue went backwards"
    cfg = small_config(traffic=[TrafficSpec(source=1, count=1,
                                            start_ms=-1000)])
    assert "traffic[0].start_ms: must be >= 0" in errors_of(cfg)
    cfg = small_config(attacks=[AttackSpec("replay", 1, 2, delay_ms=-1)])
    assert errors_of(cfg) == ["attacks[0].delay_ms: must be >= 0"]
    cfg = small_config(attacks=[AttackSpec(
        "fake_inject", to_id=2, src=1, seq=1, after_ms=-5, ip=bytes(4),
        key_material=bytes(16))])
    assert errors_of(cfg) == ["attacks[0].after_ms: must be >= 0"]


def test_the_horizon_counts_the_longest_replay_delay():
    # small_config: three packets a second apart over two 300-ms hops
    start = (1 << 32) * 1000 - 2000 - 600 - 5000
    cfg = small_config(traffic=[TrafficSpec(source=1, count=3,
                                            start_ms=start)])
    cfg.attacks = [AttackSpec("replay", 1, 2, delay_ms=4999)]
    validate(cfg)
    cfg.attacks.append(AttackSpec("replay", 1, 2, seq=1, delay_ms=5000))
    assert errors_of(cfg) == [
        f"traffic[0].start_ms: its packets can be in flight at "
        f"{(1 << 32) * 1000} ms, past the 32-bit capture time (4294967295 s)"]


def test_fake_inject_and_probe_requirements():
    cfg = small_config()
    cfg.attacks = [AttackSpec(kind="fake_inject", to_id=7, src=1,
                              ip=bytes(4), key_material=bytes(16))]
    errs = errors_of(cfg)
    assert any("target 7 unknown" in e for e in errs)
    assert any("needs a forged seq" in e for e in errs)
    cfg = small_config()
    cfg.attacks = [AttackSpec(kind="store_probe", caller_id=6)]
    assert any("needs src and seq" in e for e in errors_of(cfg))


@pytest.mark.parametrize("role", ["gateway", "intermediate"])
def test_fake_inject_at_an_unregistered_node_is_refused(role):
    # a forgery matching the hop-1 record of packet 1:1 reaches node 8,
    # which may neither retrieve the set (a gateway) nor store the next
    # record (an intermediate); the run used to abort there
    def forged(registered):
        node = NodeSpec(id=8, ip="10.0.0.8", role=role, x=95, y=9,
                        registered=registered)
        return small_config(
            seed=5, per_hop_delay_ms=1000,
            nodes=small_config().nodes + [node],
            attacks=[AttackSpec(kind="fake_inject", to_id=8, src=1, seq=1,
                                hop=1, ip=bytes([10, 0, 0, 1]),
                                key_material=random.Random("5/keys")
                                .randbytes(16))])

    assert errors_of(forged(False)) == [
        "attacks[0].to: node 8 is unregistered, "
        "and unregistered nodes cannot verify"]
    assert run(forged(True)).report["counts"]["emitted"] == 3


def test_rotation_bounds():
    cfg = small_config(key_rotation=KeyRotationConfig(0, 5))
    assert any("key_rotation" in e for e in errors_of(cfg))
    cfg = small_config(key_rotation=KeyRotationConfig(6, 5))
    assert any("key_rotation" in e for e in errors_of(cfg))
    validate(small_config(key_rotation=KeyRotationConfig(5, 5)))


def test_scalar_bounds():
    assert any("freshness_s" in e for e in errors_of(small_config(freshness_s=0)))
    assert any("per_hop_delay_ms" in e
               for e in errors_of(small_config(per_hop_delay_ms=0)))
    assert any("area" in e for e in errors_of(small_config(area=(0.0, 50.0))))


def line_of(n_intermediates):
    cfg = small_config(per_hop_delay_ms=300, freshness_s=60)
    cfg.nodes[1:2] = [NodeSpec(id=100 + i, ip=f"10.1.{i // 200}.{i % 200}",
                               role="intermediate")
                      for i in range(n_intermediates)]
    cfg.routes = [[1] + [100 + i for i in range(n_intermediates)] + [9]]
    return cfg


def test_route_must_fit_the_freshness_window():
    # 200 hops of 300 ms take exactly the 60-s window: even a packet emitted
    # at the end of a second is fresh
    cfg = line_of(199)
    cfg.traffic[0].start_ms = 999
    validate(cfg)
    counts = run(cfg).report["counts"]
    assert counts["accepted"] == counts["emitted"] == 3
    # 201 hops take 60.3 s, and a packet emitted late in a second goes stale
    errors = errors_of(line_of(200))
    assert any(e.startswith("routes[0]:") and "60300 ms" in e
               and "freshness" in e for e in errors)


@pytest.mark.parametrize("field", ["t_a_ms", "tc_per_op_ms"])
def test_negative_energy_constant_is_a_config_error(field):
    text = EXAMPLE_CONFIG.replace(f"  {field}: ", f"  {field}: -5.0 #")
    errors = errors_of(load_config(text))
    assert any(f"energy.{field}" in e and "nonnegative" in e for e in errors)


@pytest.mark.parametrize("value, shown", [
    (".nan", "nan"), (".inf", "inf"), ("yes", "True"), ("1e-5", "'1e-5'"),
])
def test_energy_constant_must_be_a_finite_number(value, shown):
    text = EXAMPLE_CONFIG.replace("  t_a_ms: 1.0 ", f"  t_a_ms: {value} ")
    assert errors_of(load_config(text)) == [
        f"energy.t_a_ms: must be a finite nonnegative number, got {shown}"]


def test_energy_constants_are_reported_with_every_other_error():
    text = (EXAMPLE_CONFIG.replace("  t_a_ms: 1.0 ", "  t_a_ms: .nan ")
            .replace("  t_s_ms: 0.5 ", "  t_s_ms: -1 ")
            .replace("per_hop_delay_ms: 300", "per_hop_delay_ms: -3"))
    assert errors_of(load_config(text)) == [
        "per_hop_delay_ms: must be positive",
        "energy.t_a_ms: must be a finite nonnegative number, got nan",
        "energy.t_s_ms: must be a finite nonnegative number, got -1",
    ]


def test_integer_energy_constant_is_accepted():
    text = EXAMPLE_CONFIG.replace("  t_a_ms: 1.0 ", "  t_a_ms: 2 ")
    assert load_config(text).energy.t_a_ms == 2


@pytest.mark.parametrize("old, new", [
    ("freshness_s: 60", "freshnes_s: 5"),
    ("attacks: []", "attacks: []\nattack: []"),
    # a retired knob: the gateway always purges an accepted set
    ("attacks: []", "attacks: []\npurge_on_delivery: false"),
])
def test_unknown_top_level_key_is_a_config_error(old, new):
    key = new.split("\n")[-1].split(":")[0]
    with pytest.raises(ConfigError) as exc:
        load_config(EXAMPLE_CONFIG.replace(old, new))
    assert exc.value.errors == [f"{key}: unknown key"]


@pytest.mark.parametrize("attack, message", [
    ("{kind: replay, from: 1, to: 2, dely_ms: 5000}",
     "attacks[0].dely_ms: unknown key"),
    ("{kind: drop, from_id: 1, to: 2}", "attacks[0].from_id: unknown key"),
    ("{kind: fake_inject, to: 2, src: 1, seq: 1, ip: 10.0.0.1, "
     "payload: '00', key_material_hex: 000102030405060708090a0b0c0d0e0f}",
     "attacks[0].payload: unknown key"),
    ("[drop, 1, 2]", "attacks[0]: expected a mapping, got ['drop', 1, 2]"),
])
def test_unknown_attack_key_is_a_config_error(attack, message):
    text = EXAMPLE_CONFIG.replace("attacks: []", f"attacks:\n  - {attack}")
    with pytest.raises(ConfigError) as exc:
        load_config(text)
    assert exc.value.errors == [message]


# a well-formed record of each kind, its first key a required one
_RECORDS = {
    "nodes": {"id": 4, "ip": "10.0.0.4", "role": "source"},
    "traffic": {"source": 1, "count": 2},
    "key_rotation": {"min_generations": 1, "max_generations": 2},
    "attacks": {"kind": "drop", "from": 1, "to": 2},
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
@pytest.mark.parametrize("fault", ["unknown", "missing", "not a mapping"])
def test_a_bad_record_is_reported_at_its_path(name, fault):
    record = _RECORDS[name]
    first = next(iter(record))
    entry, message = {
        "unknown": ({**record, "colour": "red"}, ".colour: unknown key"),
        "missing": ({k: v for k, v in record.items() if k != first},
                    f".{first}: missing required key"),
        "not a mapping": ([1, 2], ": expected a mapping, got [1, 2]"),
    }[fault]
    data = yaml.safe_load(EXAMPLE_CONFIG)
    if name == "key_rotation":
        data[name], where = entry, name
    else:
        data[name], where = [record, entry], f"{name}[1]"
    with pytest.raises(ConfigError) as exc:
        load_config(yaml.safe_dump(data))
    assert exc.value.errors == [where + message]


def test_every_problem_in_the_attacks_is_reported_at_once():
    text = EXAMPLE_CONFIG.replace("mode: multihop", "mode: triple").replace(
        "attacks: []", "attacks:\n  - {kind: jam, from: 1, to: 2}\n"
        "  - {kind: delete_bits, from: 1, to: 2, q: 0}")
    with pytest.raises(ConfigError) as exc:
        validate(load_config(text))
    assert exc.value.errors == [
        "mode: must be one of ('singlehop', 'multihop'), got 'triple'",
        "attacks[0].kind: unknown attack kind 'jam'",
        "attacks[1].q: delete_bits needs q >= 1"]


def test_load_config_only_builds_and_the_simulation_validates():
    text = EXAMPLE_CONFIG.replace("count: 20", "count: 0")
    cfg = load_config(text)
    assert cfg.traffic[0].count == 0
    with pytest.raises(ConfigError) as exc:
        Simulation(cfg)
    assert exc.value.errors == ["traffic[0].count: must be >= 1"]


def test_absent_keys_take_the_dataclass_defaults():
    cfg = from_dict({"nodes": [], "attacks": [{"kind": "drop"},
                                              {"kind": "replay"}]})
    assert cfg == ScenarioConfig(attacks=[AttackSpec(kind="drop"),
                                          AttackSpec(kind="replay")])


def test_yaml_spellings_convert_to_their_fields():
    cfg = from_dict({"area": [3, 4], "attacks": [
        {"kind": "replay", "from": 1, "to": 2, "mutate_timestamp": 1},
        {"kind": "insert_bits", "bits": [1, 0]},
        {"kind": "modify_payload", "edits": [[0, 1], [2, 3]]},
        {"kind": "fake_inject", "src": 1, "ip": "10.0.0.1",
         "payload_hex": "6869", "key_material_hex": "00" * 16},
    ]})
    assert cfg.area == (3.0, 4.0) and type(cfg.area[0]) is float
    replay, insert, modify, fake = cfg.attacks
    assert (replay.from_id, replay.to_id, replay.mutate_timestamp) == (1, 2, True)
    assert insert.bits == (1, 0)
    assert modify.edits == ((0, 1), (2, 3))
    assert (fake.ip, fake.payload, fake.key_material) == (
        bytes([10, 0, 0, 1]), b"hi", bytes(16))


def test_area_of_the_wrong_length_fails_validation():
    text = EXAMPLE_CONFIG.replace("area: [100.0, 100.0]", "area: [100, 100, 5]")
    with pytest.raises(ConfigError) as exc:
        validate(load_config(text))
    assert exc.value.errors == ["area: needs positive (length, width)"]


@pytest.mark.parametrize("area, message", [
    ('["100", 100]', "area[0]: must be a number, got '100'"),
    ("[yes, 5]", "area[0]: must be a number, got True"),
    ("[5, null]", "area[1]: must be a number, got None"),
])
def test_area_entries_must_be_numbers(area, message):
    # the first two used to load as 100x100 and 1x5 areas
    text = EXAMPLE_CONFIG.replace("area: [100.0, 100.0]", f"area: {area}")
    with pytest.raises(ConfigError) as exc:
        validate(load_config(text))
    assert exc.value.errors == [message]


@pytest.mark.parametrize("overrides, message", [
    ({"energy": None}, "energy: must be an EnergyParams record, got None"),
    ({"key_rotation": {"min_generations": 1, "max_generations": 2}},
     "key_rotation: must be a KeyRotationConfig record, got "
     "{'min_generations': 1, 'max_generations': 2}"),
    ({"traffic": [{"source": 1, "count": 3}]},
     "traffic[0]: must be a TrafficSpec record, got {'source': 1, 'count': 3}"),
    ({"nodes": [None]}, "nodes[0]: must be a NodeSpec record, got None"),
    ({"attacks": [{"kind": "drop"}]},
     "attacks[0]: must be an AttackSpec record, got {'kind': 'drop'}"),
    ({"traffic": None}, "traffic: must be a list, got None"),
    ({"routes": None}, "routes: must be a list, got None"),
    ({"routes": [None]}, "routes[0]: must be a list, got None"),
    ({"routes": [[1, 2, 9], 5]}, "routes[1]: must be a list, got 5"),
    ({"area": None}, "area: must be a (length, width) pair, got None"),
])
def test_a_record_of_the_wrong_type_is_a_config_error(overrides, message):
    # configs built in code: each of these used to escape validate as a bare
    # TypeError or KeyError
    assert errors_of(small_config(**overrides)) == [message]


# -- every config that passes validate runs ------------------------------------------

_GATEWAY = 9
_POOL = (4, 5, 6, 7)  # intermediates the routes draw from
_IDS = (1, 2, 3, *_POOL, _GATEWAY)
_FRAME_BITS = (9 + 24 + 24) * 8  # header, largest payload, watermark


def _or_none(strategy):
    # mostly the value: each attack draws several of these
    return st.one_of(strategy, strategy, strategy, st.none())


@st.composite
def _attacks(draw, links, live, smallest):
    # fake_inject and modify_payload four times over: close to a fifth of
    # the validated configs then carry a well-formed forgery, and one in ten
    # a payload edit that reaches a packet
    kind = draw(st.sampled_from(KINDS + ("jam",)
                                + ("fake_inject", "modify_payload") * 3))
    after_ms = draw(st.integers(0, 6000))
    if kind == "modify_payload" and live and smallest and draw(st.booleans()):
        # half the time the form that reaches a packet: edits inside the
        # smallest payload drawn, on a link its source's packets cross
        src, (from_id, to_id) = draw(st.sampled_from(live))
        return AttackSpec(kind=kind, from_id=from_id, to_id=to_id,
                          src=draw(st.sampled_from((None, src))),
                          edits=tuple(draw(st.lists(st.tuples(
                              st.integers(0, smallest - 1),
                              st.integers(1, 255)), min_size=1, max_size=3))))
    if kind == "fake_inject":
        # three in four well formed: every forged field set, and a verifier
        # as target; the rest exercise validate's refusals
        formed = draw(st.integers(0, 3)) > 0
        forged = (lambda strategy: strategy) if formed else _or_none
        ip = st.integers(0, 9).map(lambda i: bytes([10, 0, 0, i]))
        return AttackSpec(
            kind=kind, to_id=draw(st.sampled_from((*_POOL, _GATEWAY)
                                                  if formed else _IDS)),
            src=draw(forged(st.integers(0, 5))), seq=draw(st.integers(0, 5)),
            after_ms=after_ms, ip=draw(forged(ip if formed else st.one_of(
                ip, st.binary(max_size=6)))),
            payload=draw(st.binary(max_size=24)),
            key_material=draw(forged(st.binary(min_size=16, max_size=16))),
            key_epoch=draw(st.integers(0, 3)), hop=draw(st.integers(1, 5)))
    if kind == "store_probe":
        return AttackSpec(kind=kind,
                          caller_id=draw(_or_none(st.sampled_from(
                              _IDS + (666,)))),
                          src=draw(st.integers(0, 5)),
                          seq=draw(st.integers(0, 5)), after_ms=after_ms)
    from_id, to_id = draw(st.sampled_from(links))
    spec = dict(kind=kind, from_id=from_id, to_id=to_id, after_ms=after_ms,
                src=draw(st.one_of(st.none(), st.integers(1, 3))),
                seq=draw(st.one_of(st.none(), st.integers(0, 5))))
    if kind == "replay":
        spec.update(delay_ms=draw(st.integers(0, 70000)),
                    mutate_timestamp=draw(st.booleans()))
    elif kind == "insert_bits":
        spec.update(offset_bits=draw(st.integers(0, _FRAME_BITS)),
                    bits=tuple(draw(st.lists(st.integers(0, 1),
                                             max_size=70))))
    elif kind == "delete_bits":
        spec.update(offset_bits=draw(st.one_of(
                        st.none(), st.integers(0, _FRAME_BITS))),
                    q=draw(st.integers(-1, 70)))
    elif kind in ("modify_payload", "modify_watermark"):
        spec["edits"] = tuple(draw(st.lists(
            st.tuples(st.integers(0, 24), st.integers(1, 255)),
            max_size=3)))
    return AttackSpec(**spec)


@st.composite
def _configs(draw):
    mode = draw(st.sampled_from(["multihop", "singlehop"]))
    sources = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=1,
                            max_size=3, unique=True))
    routes = []
    for src in sources:
        middle = [] if mode == "singlehop" else draw(
            st.lists(st.sampled_from(_POOL), max_size=3, unique=True))
        routes.append([src, *middle, _GATEWAY])
    # at most one node unregistered: on a route it fails validation
    unregistered = draw(st.one_of(st.none(), st.none(),
                                  st.sampled_from(_IDS)))
    nodes = [NodeSpec(id=nid, ip=f"10.0.0.{nid}",
                      role=("source" if nid <= 3 else "gateway"
                            if nid == _GATEWAY else "intermediate"),
                      x=10 * nid, y=5, registered=nid != unregistered)
             for nid in _IDS]
    traffic = [TrafficSpec(source=src, count=draw(st.integers(1, 4)),
                           interval_ms=draw(st.integers(1, 2000)),
                           start_ms=draw(st.integers(0, 3000)),
                           payload_bytes=draw(st.integers(0, 24)))
               for src in draw(st.lists(st.sampled_from(sources), max_size=3,
                                        unique=True))]
    links = [link for route in routes for link in zip(route, route[1:])]
    # each link a source's traffic crosses, with that source
    senders = {t.source for t in traffic}
    live = [(route[0], link) for route in routes if route[0] in senders
            for link in zip(route, route[1:])]
    smallest = min((t.payload_bytes for t in traffic), default=0)
    # four in five configs draw at least one attack, broken forms included:
    # over half of the configs that pass validate then carry one
    attacks = draw(st.lists(_attacks(links, live, smallest), max_size=3,
                            min_size=min(1, draw(st.integers(0, 4)))))
    return ScenarioConfig(
        seed=draw(st.integers(0, 1000)), mode=mode,
        freshness_s=draw(st.integers(1, 60)),
        per_hop_delay_ms=draw(st.integers(1, 500)),
        key_rotation=draw(st.one_of(st.none(), st.builds(
            KeyRotationConfig, st.integers(1, 2), st.integers(2, 4)))),
        nodes=nodes, routes=routes, traffic=traffic,
        attacks=attacks)


@given(cfg=_configs())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_validated_config_runs_to_completion(cfg):
    try:
        validate(cfg)
    except ConfigError:
        return
    result = run(cfg)
    report = result.report
    counts = report["counts"]
    assert counts["emitted"] == sum(t.count for t in cfg.traffic)
    assert counts["emitted"] == sum(counts[status] for status in
                                    ("accepted", "rejected", "dropped",
                                     "in_flight"))
    # every organic frame ends, and its end writes the packet's status
    assert counts["in_flight"] == 0
    assert report["rotations"] == report["final_epoch"]
    # forwarding reads the route: a frame at hop h crosses route[h - 1] ->
    # route[h]; only a forged frame lands where its injector aims it
    if all(a.kind != "fake_inject" for a in cfg.attacks):
        routes = {route[0]: route for route in cfg.routes}
        for _, rec in events.read(result.log, ("deliver",)):
            assert rec.node == routes[rec.src][rec.hop]


@given(cfg=_configs())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_eavesdrops_and_refused_probes_change_no_organic_fate(cfg):
    # fake_inject is not among them: a forged frame that fails a check still
    # burns the genuine packet's records
    try:
        validate(cfg)
    except ConfigError:
        return
    gateways = {n.id for n in cfg.nodes if n.role == "gateway" and n.registered}
    quiet = dataclasses.replace(cfg, attacks=[
        a for a in cfg.attacks if a.kind != "eavesdrop"
        and not (a.kind == "store_probe" and a.caller_id not in gateways)])
    fates = [{key: (p["status"], p["final"], p["path"])
              for key, p in run(c).report["packets"].items()}
             for c in (cfg, quiet)]
    assert fates[0] == fates[1]


@given(cfg=_configs())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_accept_is_authentic(cfg):
    # a gateway accepts only the payload the source emitted under that
    # (src, seq), and only with the path of the source's route
    try:
        validate(cfg)
    except ConfigError:
        return
    emitted, accepted = {}, []

    def emitting(original):
        def emit(node, payload, now_ms):
            seq, frame = original(node, payload, now_ms)
            emitted[(node.id, seq)] = payload
            return seq, frame
        return emit

    def verifying(original, parse):
        def verify(node, data, now_ms):
            verdict, path = original(node, data, now_ms)
            if verdict.outcome == ACCEPTED:
                accepted.append((parse(data), path))
            return verdict, path
        return verify

    # the simulation reads the methods off the classes when it is built
    with pytest.MonkeyPatch.context() as patch:
        for mode, parse in (("multihop", extract),
                            ("singlehop", extract_bare)):
            patch.setattr(SourceNode, f"emit_{mode}",
                          emitting(getattr(SourceNode, f"emit_{mode}")))
            patch.setattr(GatewayNode, f"verify_{mode}", verifying(
                getattr(GatewayNode, f"verify_{mode}"), parse))
        run(cfg)
    ips = {n.id: n.ip for n in cfg.nodes}
    routes = {route[0]: route for route in cfg.routes}
    for pkt, path in accepted:
        assert pkt.payload == emitted.get((pkt.src, pkt.seq))
        assert [ip for ip, _ in path] == [ips[n] for n in routes[pkt.src][:-1]]
