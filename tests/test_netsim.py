"""Simulator behavior: determinism, packet fates under each attack, key
rotation, and report bookkeeping."""
import gc
import hashlib
import json
import random
import tracemalloc
import weakref
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.test_golden_outputs import GOLDEN, MULTIHOP_LINE
from zircon import adversary, cli, events, netsim
from zircon.cli import main
from zircon.nodes import GatewayNode, SourceNode
from zircon.adversary import (ATTACKS, DeleteBits, Drop, Eavesdrop, FakeInject,
                              InsertBits, ModifyPayload, ModifyWatermark,
                              Replay, StoreProbe)
from zircon.scenario import (
    EXAMPLE_CONFIG,
    ConfigError,
    KeyRotationConfig,
    NodeSpec,
    ScenarioConfig,
    TrafficSpec,
    load_config,
)
from zircon.watermark import extract, extract_bare


def base_config(count=5, **overrides):
    cfg = ScenarioConfig(
        seed=11,
        nodes=[
            NodeSpec(id=1, ip="10.0.0.1", role="source", x=5, y=50),
            NodeSpec(id=2, ip="10.0.0.2", role="intermediate", x=35, y=50),
            NodeSpec(id=3, ip="10.0.0.3", role="intermediate", x=65, y=50),
            NodeSpec(id=9, ip="10.0.0.9", role="gateway", x=95, y=50),
        ],
        routes=[[1, 2, 3, 9]],
        traffic=[TrafficSpec(source=1, count=count, interval_ms=1000,
                             payload_bytes=16)],
    )
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return cfg


def statuses(result):
    return {key: p.status for key, p in result.report["packets"].items()}


def flow_verdicts(result, flow):
    out = []
    for p in result.report["packets"].values():
        out.extend(v.outcome for v in p.verdicts if v.flow == flow)
    return out


# -- clean runs -------------------------------------------------------------------

def test_clean_run_accepts_everything():
    result = netsim.run(base_config())
    counts = result.report["counts"]
    assert counts == {"emitted": 5, "accepted": 5, "rejected": 0,
                      "dropped": 0, "in_flight": 0}
    for p in result.report["packets"].values():
        assert p.status == "accepted"
        assert p.final.node == 9
        assert p.path == [("10.0.0.1", (p.emitted_ms) // 1000),
                          ("10.0.0.2", (p.emitted_ms + 300) // 1000),
                          ("10.0.0.3", (p.emitted_ms + 600) // 1000)]
        assert p.store_records == 0  # purged on delivery
    assert result.report["drops_suspected"] == []


def test_packet_entries_share_ip_strings_and_routes():
    cfg = base_config(count=4)
    cfg.nodes.append(NodeSpec(id=4, ip="10.0.0.4", role="source", x=5, y=20))
    cfg.routes.append([4, 3, 9])
    cfg.traffic.append(TrafficSpec(source=4, count=4, interval_ms=700,
                                   payload_bytes=8))
    packets = netsim.run(cfg).report["packets"].values()
    assert all(p.status == "accepted" for p in packets)
    for route in cfg.routes:
        entries = [p for p in packets if p.source == route[0]]
        assert len(entries) == 4
        assert entries[0].route == route
        assert entries[0].route is not route
        assert all(p.route is entries[0].route for p in entries)
    texts = {}
    for p in packets:
        for ip, _ in p.path:
            assert texts.setdefault(ip, ip) is ip
    assert sorted(texts) == ["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"]


def test_example_config_runs_clean():
    result = netsim.run(load_config(EXAMPLE_CONFIG))
    assert result.report["counts"]["accepted"] == 20


def test_determinism_byte_identical():
    cfg_text = EXAMPLE_CONFIG
    a = netsim.run(load_config(cfg_text))
    b = netsim.run(load_config(cfg_text))
    assert a.log_text() == b.log_text()
    assert a.report == b.report
    assert events.journal(a.log) == events.journal(b.log)


def test_different_seeds_differ():
    a = netsim.run(base_config())
    b = netsim.run(base_config(seed=12))
    assert a.log_text() != b.log_text()


def test_log_grammar_parses():
    cfg = base_config()
    cfg.attacks = [Replay(from_id=1, to_id=2,
                          delay_ms=20000)]
    cfg.key_rotation = KeyRotationConfig(3, 3)
    result = netsim.run(cfg)
    records = [events.parse(line) for line in result.log]
    emits, attacks, stores, deletes = (
        [r for r in records if type(r) is kind]
        for kind in (events.Emit, events.Attack, events.Store, events.Delete))
    assert len(emits) == 5
    assert len(attacks) == 5
    assert stores and deletes


def test_store_journal_balanced_on_clean_run():
    result = netsim.run(base_config())
    stores = [l for l in events.journal(result.log) if l.startswith("store|")]
    deletes = [l for l in events.journal(result.log) if l.startswith("delete|")]
    assert len(stores) == 5 * 3  # one record per hop: source + 2 intermediates
    assert len(deletes) == 5
    assert all(l.split("|")[3] == "3" for l in deletes)  # 3 records purged each
    assert all(p.store_records == 0
               for p in result.report["packets"].values())


def test_node_accounting():
    result = netsim.run(base_config())
    nodes = result.report["nodes"]
    assert nodes["1"] == {"role": "source", "packets": 5, "watermark_ops": 5,
                          "t_c_ms": 2.5}
    assert nodes["2"]["packets"] == 5 and nodes["2"]["watermark_ops"] == 10
    assert nodes["9"]["packets"] == 5 and nodes["9"]["t_c_ms"] == 5.0


# -- key rotation -------------------------------------------------------------------

def test_rotation_threshold_counts_generations():
    cfg = base_config(key_rotation=KeyRotationConfig(5, 5))
    result = netsim.run(cfg)
    # 5 emissions + 10 forwards = 15 generations, threshold fixed at 5
    assert result.report["rotations"] == 3
    assert result.report["final_epoch"] == 3
    assert sum(1 for l in result.log if l.startswith("rotate|")) == 3
    assert result.report["counts"]["accepted"] == 5  # rotation never breaks flow


def test_rotation_disabled_by_default():
    result = netsim.run(base_config())
    assert result.report["rotations"] == 0
    assert result.report["final_epoch"] == 0


# -- attacks ---------------------------------------------------------------------------

def test_modify_payload_rejected_at_the_receiving_hop():
    cfg = base_config()
    cfg.attacks = [ModifyPayload(from_id=2, to_id=3,
                                 seq=2, edits=((0, 0x01),))]
    result = netsim.run(cfg)
    st = statuses(result)
    assert st["1:2"] == "rejected"
    assert [s for k, s in st.items() if k != "1:2"] == ["accepted"] * 4
    final = result.report["packets"]["1:2"].final
    assert final.outcome == "integrity_fail" and final.node == 3


def test_modify_watermark_rejected_as_provenance_fail():
    cfg = base_config()
    cfg.attacks = [ModifyWatermark(from_id=1, to_id=2,
                                   edits=((3, 0xFF),))]
    result = netsim.run(cfg)
    assert set(statuses(result).values()) == {"rejected"}
    outcomes = {p.final.outcome
                for p in result.report["packets"].values()}
    assert outcomes == {"provenance_fail"}


def test_drop_localized_to_last_stored_hop():
    cfg = base_config()
    cfg.attacks = [Drop(from_id=3, to_id=9)]
    result = netsim.run(cfg)
    assert set(statuses(result).values()) == {"dropped"}
    suspects = result.report["drops_suspected"]
    assert len(suspects) == 5
    # records exist for hops 1..3, so the drop localizes past node 3
    assert all(hop == 3 for _src, _seq, hop, _t in suspects)


def test_replay_after_delivery_is_missing_record():
    cfg = base_config()
    cfg.attacks = [Replay(from_id=1, to_id=2,
                          delay_ms=30000)]
    result = netsim.run(cfg)
    assert set(statuses(result).values()) == {"accepted"}  # originals intact
    replayed = flow_verdicts(result, "replayed")
    assert replayed == ["missing_record"] * 5


def test_predelivery_mutated_replay_is_provenance_fail():
    cfg = base_config()
    cfg.attacks = [Replay(from_id=1, to_id=2, delay_ms=100,
                          mutate_timestamp=True)]
    result = netsim.run(cfg)
    # the mutated copy outruns the original and burns the record set
    assert flow_verdicts(result, "replayed") == ["provenance_fail"] * 5
    assert set(statuses(result).values()) == {"rejected"}
    assert {p.final.outcome for p in
            result.report["packets"].values()} == {"missing_record"}


def test_fake_inject_rejected_and_never_stored():
    cfg = base_config()
    cfg.attacks = [FakeInject(to_id=2, src=1, seq=2,
                              after_ms=1100, ip=bytes([10, 0, 0, 1]),
                              payload=b"forged-payload!!",
                              key_material=bytes(range(16, 32)),
                              key_epoch=999, hop=2)]
    result = netsim.run(cfg)
    assert flow_verdicts(result, "fake") == ["provenance_fail"]
    # the forged id never reaches the store: every journal write is from a
    # registered node and the set count never exceeds the route length
    for line in events.journal(result.log):
        if line.startswith("store|"):
            assert line.split("|")[5] in {"1", "2", "3"}
    assert all(p.store_records == 0
               for p in result.report["packets"].values())


def test_a_forgery_under_the_network_key_is_forwarded_to_no_one():
    # fake_inject may name the run's own key.  Node 3 stores 1:1's hop 3 at
    # 600 ms, in capture second 0; a frame forged under that key with node
    # 3's ip in the same second carries the same cipher, so node 2 accepts
    # it at 700 ms and forwards hop 4, past the route's last node
    key = random.Random("7/keys").randbytes(16).hex()
    text = EXAMPLE_CONFIG.replace("count: 20", "count: 1").replace(
        "attacks: []", "attacks: [{kind: fake_inject, to: 2, src: 1, seq: 1, "
        "hop: 3, after_ms: 400, ip: 10.0.0.3, key_epoch: 0, "
        f"key_material_hex: {key}}}]")
    result = netsim.run(load_config(text))
    verdicts = result.report["packets"]["1:1"].verdicts
    assert [(v.flow, v.node, v.hop, v.outcome, v.time) for v in verdicts] == [
        ("organic", 2, 1, "accepted", 300), ("organic", 3, 2, "accepted", 600),
        ("fake", 2, 3, "accepted", 700),
        ("organic", 9, 3, "provenance_fail", 900)]
    # node 2 stored the hop-4 record it forwarded, which no node receives
    delivered = [events.parse(line) for line in result.log
                 if line.startswith("deliver|")]
    assert [(d.node, d.hop) for d in delivered] == [(2, 1), (3, 2), (2, 3),
                                                    (9, 3)]
    assert "delete|1|1|4|900" in result.log


def test_store_probe_logged_with_result():
    cfg = base_config()
    cfg.attacks = [StoreProbe(caller_id=666, src=1, seq=1,
                              after_ms=500)]
    result = netsim.run(cfg)
    probe_lines = [l for l in result.log if l.startswith("attack|store_probe")]
    assert len(probe_lines) == 1
    assert "result=authorization_error" in probe_lines[0]
    assert result.report["counts"]["accepted"] == 5


def record_attacked_frames(monkeypatch):
    """The frames each link attack is applied to, in order: netsim calls
    `adversary.apply` through its module, so the wrapper sees every one."""
    frames = []
    original = adversary.apply

    def apply(spec, data):
        frames.append(data)
        return original(spec, data)

    monkeypatch.setattr(adversary, "apply", apply)
    return frames


def test_eavesdrop_captures_wire_bytes(monkeypatch):
    captures = record_attacked_frames(monkeypatch)
    cfg = base_config()
    cfg.attacks = [Eavesdrop(from_id=2, to_id=3)]
    result = netsim.run(cfg)
    assert len(captures) == 5
    for raw in captures:
        pkt = extract(raw)
        assert pkt.hop == 2  # captured after the first re-watermark
    assert result.report["counts"]["accepted"] == 5


def test_insert_bits_rejected():
    cfg = base_config()
    cfg.attacks = [InsertBits(from_id=2, to_id=3,
                              offset_bits=100, bits=(1, 0, 1, 1))]
    result = netsim.run(cfg)
    assert set(statuses(result).values()) == {"rejected"}


def test_delete_bits_rejected_as_frame_fail():
    cfg = base_config()
    cfg.attacks = [DeleteBits(from_id=1, to_id=2, q=8)]
    result = netsim.run(cfg)
    assert set(statuses(result).values()) == {"rejected"}
    assert {p.final.outcome for p in
            result.report["packets"].values()} == {"frame_fail"}


def test_garbled_header_rejection_is_filed_under_the_delivered_packet():
    # 56 one-bits over the header read as source 65535, seq 2**32 - 1; the
    # rejection used to be filed under those ids, so every genuine packet
    # was counted dropped
    ones = ", ".join(["1"] * 56)
    result = netsim.run(load_config(EXAMPLE_CONFIG.replace(
        "attacks: []", "attacks: [{kind: insert_bits, from: 1, to: 2, "
        f"offset_bits: 0, bits: [{ones}]}}]")))
    assert result.report["counts"] == {"emitted": 20, "accepted": 0,
                                       "rejected": 20, "dropped": 0,
                                       "in_flight": 0}
    assert {p.final.outcome for p in
            result.report["packets"].values()} == {"frame_fail"}
    # the log keeps the verdict as node 2 read it
    verdicts = [line for line in result.log if line.startswith("verdict|")]
    assert len(verdicts) == 20
    assert all(line.startswith("verdict|2|65535|4294967295|")
               for line in verdicts)


# -- singlehop mode -----------------------------------------------------------------

def singlehop_config(**overrides):
    cfg = ScenarioConfig(
        seed=5,
        mode="singlehop",
        nodes=[
            NodeSpec(id=1, ip="10.0.0.1", role="source", x=5, y=50),
            NodeSpec(id=9, ip="10.0.0.9", role="gateway", x=95, y=50),
        ],
        routes=[[1, 9]],
        traffic=[TrafficSpec(source=1, count=4, payload_bytes=12)],
    )
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return cfg


def test_singlehop_clean_run():
    result = netsim.run(singlehop_config())
    assert result.report["counts"]["accepted"] == 4
    for p in result.report["packets"].values():
        assert len(p.path) == 1


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a failed check burns the set its frame names, so a forgery that names "
    "a live single-hop packet destroys it"))
def test_an_off_path_forgery_leaves_a_singlehop_packet_accepted():
    # 1:3 is emitted at 2000 ms and lands at 2300; the forgery naming it
    # lands at 2050, fails extract_bare, and its header still names 1:3
    cfg = singlehop_config(traffic=[TrafficSpec(source=1, count=5,
                                                payload_bytes=12)])
    cfg.attacks = [FakeInject(to_id=9, src=1, seq=3,
                              after_ms=1750, ip=bytes([10, 0, 0, 66]),
                              payload=b"forged-payload!!",
                              key_material=bytes(range(16)))]
    result = netsim.run(cfg)
    assert flow_verdicts(result, "fake") == ["frame_fail"]
    assert statuses(result) == {f"1:{seq}": "accepted" for seq in range(1, 6)}


def test_singlehop_frames_are_bare(monkeypatch):
    captures = record_attacked_frames(monkeypatch)
    cfg = singlehop_config()
    cfg.attacks = [Eavesdrop(from_id=1, to_id=9)]
    netsim.run(cfg)
    assert len(captures) == 4
    for raw in captures:
        assert len(raw) == 9 + 12
        extract_bare(raw)


def test_singlehop_payload_tamper_detected():
    cfg = singlehop_config()
    cfg.attacks = [ModifyPayload(from_id=1, to_id=9,
                                 edits=((5, 0x20),))]
    result = netsim.run(cfg)
    assert {p.final.outcome for p in
            result.report["packets"].values()} == {"integrity_fail"}


@pytest.mark.parametrize("make, profile", [(singlehop_config, "singlehop"),
                                           (base_config, "multihop")])
def test_the_wire_profile_is_looked_up_when_the_simulation_is_built(
        monkeypatch, make, profile):
    # a wrapper put on a class after import, as a tracer does, sees every
    # call, and the other profile's pair is never called
    calls = Counter()
    for cls, verb in ((SourceNode, "emit"), (GatewayNode, "verify")):
        for mode in ("singlehop", "multihop"):
            name = f"{verb}_{mode}"

            def counted(*args, _name=name, _original=getattr(cls, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(cls, name, counted)
    result = netsim.run(make())
    delivered = sum(1 for _, d in events.read(result.log, ("deliver",))
                    if d.node == 9)
    assert calls == {f"emit_{profile}": result.report["counts"]["emitted"],
                     f"verify_{profile}": delivered}
    assert delivered > 0


# -- same-millisecond ties ----------------------------------------------------------

# Two sources emit on the same milliseconds, a forged frame is injected on one
# of those milliseconds (so it reaches node 3 together with a genuine frame)
# and a store probe runs on another; key rotation fires between them.  Ties
# pop in scheduling order, so the digests, recorded when every emit was still
# pushed one at a time, pin that order.
TIES = """\
seed: 17
mode: multihop
freshness_s: 60
per_hop_delay_ms: 250
key_rotation: {min_generations: 3, max_generations: 5}
nodes:
  - {id: 1, ip: 10.0.2.1, role: source, x: 5.0, y: 20.0}
  - {id: 2, ip: 10.0.2.2, role: source, x: 5.0, y: 80.0}
  - {id: 3, ip: 10.0.2.3, role: intermediate, x: 50.0, y: 50.0}
  - {id: 9, ip: 10.0.2.9, role: gateway, x: 95.0, y: 50.0}
routes:
  - [1, 3, 9]
  - [2, 3, 9]
traffic:
  - {source: 1, count: 6, interval_ms: 1000, start_ms: 500, payload_bytes: 16}
  - {source: 2, count: 6, interval_ms: 1000, start_ms: 500, payload_bytes: 16}
attacks:
  - {kind: fake_inject, to: 3, src: 1, seq: 3, after_ms: 2500, ip: 10.0.2.1, payload_hex: "74696564", key_material_hex: 202122232425262728292a2b2c2d2e2f}
  - {kind: store_probe, caller_id: 3, src: 2, seq: 2, after_ms: 1500}
"""
TIES_SHA256 = {
    "events.log": "58bc8a6979d0d1adc8f5e0da9011db898d6b5e5b77e0ffab72280d99d711f995",
    "report.json": "b03b7509375c46d6a8584e6efa1ae632ca2482bb55ae6c7584be71b607b3900c",
    "provenance.journal": "056885d451b4c1b7cb28f2a0b40b321e28e2f773243f767407f4d1a213a61bae",
}


def test_same_millisecond_ties_keep_their_order(tmp_path, capsys):
    cfg = tmp_path / "ties.yaml"
    cfg.write_text(TIES, encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
           for name in TIES_SHA256}
    assert got == TIES_SHA256
    # the probe and the injection ran first on their milliseconds, then
    # source 1's emit, then source 2's
    log = (out_dir / "events.log").read_text(encoding="utf-8").splitlines()
    at = {t: [line.split("|")[0] + "|" + line.split("|")[1]
              for line in log if line.endswith(f"|{t}")
              and line.startswith(("attack", "emit"))]
          for t in (1500, 2500)}
    assert at == {1500: ["attack|store_probe", "emit|1", "emit|2"],
                  2500: ["attack|fake_inject", "emit|1", "emit|2"]}


def short_line_config(traffic, per_hop_delay_ms=300):
    """Source 1 straight through intermediate 3 to gateway 9."""
    return ScenarioConfig(
        seed=5,
        nodes=[NodeSpec(id=1, ip="10.0.0.1", role="source", x=5, y=50),
               NodeSpec(id=3, ip="10.0.0.3", role="intermediate", x=50, y=50),
               NodeSpec(id=9, ip="10.0.0.9", role="gateway", x=95, y=50)],
        routes=[[1, 3, 9]], traffic=traffic,
        per_hop_delay_ms=per_hop_delay_ms)


@pytest.mark.parametrize("per_hop_delay_ms, pinned", [
    # the delivery of packet k to 3 falls on packet k + 1's emit
    (1000, [("emit|1|1|2|1|1000", "deliver|3|1|1|1|1000"),
            ("emit|1|1|3|1|2000", "deliver|3|1|2|1|2000")]),
    # packet 1's delivery to 9, queued at 1500, falls on packet 4's emit,
    # whose predecessor only runs at 2000
    (1500, [("emit|1|1|4|1|3000", "deliver|9|1|1|2|3000")]),
])
def test_emits_run_before_deliveries_on_their_millisecond(per_hop_delay_ms,
                                                          pinned):
    # every emit holds its traffic entry's tie-break place, ahead of each
    # event queued during the run
    log = netsim.run(short_line_config(
        [TrafficSpec(source=1, count=4, interval_ms=1000, payload_bytes=8)],
        per_hop_delay_ms)).log
    for emit, deliver in pinned:
        assert log.index(emit) < log.index(deliver)
    kinds = {}
    for line in log:
        kind, *_, time = line.split("|")
        if kind in ("emit", "deliver"):
            kinds.setdefault(int(time), []).append(kind)
    for seen in kinds.values():
        assert seen == sorted(seen, key=("emit", "deliver").index)


def test_set_up_memory_does_not_grow_with_packet_count():
    def set_up_peak(count):
        cfg = short_line_config(
            [TrafficSpec(source=1, count=count, interval_ms=1, payload_bytes=8)])
        tracemalloc.start()
        try:
            netsim.Simulation(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert set_up_peak(200_000) - set_up_peak(10) < 64 * 1024


def attacked_config():
    """A replay, a forged frame and a store probe: every kind of event the
    queue holds besides emits and plain deliveries."""
    return base_config(attacks=[
        Replay(from_id=1, to_id=2, delay_ms=20000),
        FakeInject(to_id=2, src=1, seq=2, after_ms=1100,
                   ip=bytes([10, 0, 0, 1]), payload=b"forged-payload!!",
                   key_material=bytes(range(16, 32)), key_epoch=9, hop=2),
        StoreProbe(caller_id=666, src=1, seq=1,
                   after_ms=500)])


@pytest.mark.parametrize("make", [base_config, singlehop_config,
                                  attacked_config])
def test_a_run_leaves_no_reference_cycle(make):
    # reference counts alone free a finished simulation; a cycle through it
    # would hold the run's state until the cyclic collector ran
    gc.disable()
    try:
        sim = netsim.Simulation(make())
        sim.run()
        dead = weakref.ref(sim)
        del sim
        assert dead() is None
    finally:
        gc.enable()


def test_two_traffic_entries_of_one_source_interleave_in_time_order():
    traffic = [TrafficSpec(source=1, count=4, interval_ms=1000,
                           payload_bytes=8),
               TrafficSpec(source=1, count=3, interval_ms=700, start_ms=600,
                           payload_bytes=8)]
    log = netsim.run(short_line_config(traffic)).log
    emits = [(e.time, e.seq) for _, e in events.read(log, ("emit",))]
    # seqs are numbered in pop order: by time, then by entry, then by packet
    pops = sorted((t.start_ms + i * t.interval_ms, ti, i)
                  for ti, t in enumerate(traffic) for i in range(t.count))
    assert emits == [(time, seq) for seq, (time, _, _)
                     in enumerate(pops, start=1)]
    assert [time for time, _ in emits] == [0, 600, 1000, 1300, 2000, 2000,
                                           3000]


# -- construction guards ---------------------------------------------------------------

def test_simulation_validates_config():
    cfg = base_config()
    cfg.routes = []
    cfg.traffic = []
    cfg.nodes[0].role = "router"
    with pytest.raises(ConfigError):
        netsim.Simulation(cfg)


# -- report.json writer ----------------------------------------------------------------

# every leaf kind json writes differently from str(): 70-bit ints, floats
# such as 0.1 * 3 (and nan, inf), booleans and None, and strings that need
# escaping
_INTS = st.integers(min_value=-(1 << 70), max_value=1 << 70)
_LEAVES = st.one_of(_INTS, st.floats(), st.just(0.1 * 3), st.booleans(),
                    st.none())
_TEXT = st.text(max_size=6)
_VERDICT = st.builds(netsim.ReportVerdict, outcome=_TEXT, node=_LEAVES,
                     hop=_LEAVES, time=_LEAVES, flow=_TEXT)
_PACKET = st.builds(
    netsim.Packet, source=_LEAVES, seq=_INTS,
    route=st.lists(_LEAVES, max_size=3), emitted_ms=_LEAVES, status=_TEXT,
    final=st.one_of(st.none(), _VERDICT),
    path=st.one_of(st.none(), st.lists(st.tuples(_TEXT, _LEAVES),
                                       max_size=3)),
    verdicts=st.lists(_VERDICT, max_size=3), store_records=_LEAVES)
# "10:1" sorts before "9:1" as a string
_PACKET_KEYS = st.one_of(
    st.builds("{}:{}".format, st.integers(0, 12), st.integers(0, 12)), _TEXT)
_REPORT = st.fixed_dictionaries({
    "seed": _INTS, "mode": _TEXT,
    "counts": st.dictionaries(_TEXT, _INTS, max_size=3),
    "packets": st.dictionaries(_PACKET_KEYS, _PACKET, max_size=8),
    "drops_suspected": st.lists(st.lists(_INTS, max_size=4), max_size=2),
    "nodes": st.dictionaries(st.builds(str, st.integers(0, 12)),
                             st.fixed_dictionaries({
                                 "role": _TEXT, "packets": _INTS,
                                 "watermark_ops": _INTS,
                                 "t_c_ms": st.floats()}), max_size=3),
    "rotations": _INTS, "final_epoch": _INTS,
    "energy": st.dictionaries(_TEXT, st.floats(), max_size=3)})

_HOP_NULL = netsim.ReportVerdict(outcome="frame_fail", node=3, hop=None,
                                 time=10, flow="organic")


def _entry(source, route, hop, path=None):
    verdict = _HOP_NULL._replace(hop=hop)
    return netsim.Packet(source=source, seq=1, route=route, emitted_ms=0,
                         status="rejected", final=verdict, path=path,
                         verdicts=[verdict], store_records=0)


def as_json(report):
    """`report` with each record turned into a dict, as report.json holds
    it."""
    def fate(p):
        return dict(p._asdict(),
                    final=None if p.final is None else p.final._asdict(),
                    verdicts=[v._asdict() for v in p.verdicts])
    return dict(report, packets={key: fate(p) for key, p
                                 in report["packets"].items()})


def test_report_records_list_their_fields_in_json_key_order():
    # report_text writes a record's values by position into templates whose
    # keys json's sort_keys puts in order; another field order would move
    # values under the wrong keys
    for record in (netsim.Packet, netsim.ReportVerdict):
        assert list(record._fields) == sorted(record._fields)


@given(report=_REPORT)
@example(report={
    "seed": 1, "mode": "multihop", "counts": {}, "drops_suspected": [],
    "nodes": {}, "rotations": 0, "final_epoch": 0, "energy": {},
    "packets": {
        "9:1": netsim.Packet(source=9, seq=1, route=[], emitted_ms=0,
                             status="dropped", final=None, path=None,
                             verdicts=[], store_records=1),
        "10:1": netsim.Packet(source=10, seq=1, route=[10, 3], emitted_ms=5,
                              status="rejected", final=_HOP_NULL, path=[],
                              verdicts=[_HOP_NULL], store_records=0)}})
# entries of one shape whose slots hold an int in one and a float, a bool or
# None in the other; and a null path beside a one-item path
@example(report={
    "seed": 1, "mode": "multihop", "counts": {}, "drops_suspected": [],
    "nodes": {}, "rotations": 0, "final_epoch": 0, "energy": {},
    "packets": {
        "1:1": _entry(1, [1, 9], 1),
        "2:1": _entry(2.5, [float("nan"), True], None),
        "3:1": _entry(None, [False, 1 << 70], 0.1 * 3),
        "4:1": _entry(4, [4, 9], 2, path=[("10.0.0.4", 0)])}})
@settings(max_examples=200, deadline=None)
def test_report_text_is_json_dumps_byte_for_byte(report):
    result = netsim.SimResult(log=[], report=report)
    assert result.report_text() == \
        json.dumps(as_json(report), indent=2, sort_keys=True) + "\n"


def test_report_packets_keep_numeric_order():
    # MULTIHOP_LINE's 25 packets put "1:10" before "1:2" as strings; the
    # report dict keeps (src, seq) order, and only report.json sorts the text
    result = netsim.run(load_config(MULTIHOP_LINE))
    keys = list(result.report["packets"])
    assert keys == [f"1:{seq}" for seq in range(1, 26)]
    assert keys != sorted(keys)
    config = cli._suite_base(3)
    config.attacks = [a for a in cli._SUITE_ATTACKS if a.kind == Drop.kind]
    report = netsim.run(config).report
    assert report["counts"]["dropped"] == 10
    assert list(report["packets"]) == [f"1:{seq}" for seq in range(1, 11)]
    assert [seq for _, seq, _, _ in report["drops_suspected"]] == \
        list(range(1, 11))


def test_the_report_takes_over_each_live_entry():
    # the report's record holds the entry's own lists, and the finished
    # simulation holds no entry a second time
    sim = netsim.Simulation(base_config())
    while (1, 1) not in sim.packets:
        assert sim.step()
    verdicts = sim.packets[(1, 1)][-1]
    assert verdicts == []
    report = sim.run().report
    assert sim.packets is None
    assert report["packets"]["1:1"].verdicts is verdicts
    assert len(verdicts) == 3
    # a finished simulation refuses a second run
    with pytest.raises(RuntimeError, match="runs once"):
        sim.run()


# the golden scenarios and the attack suite's runs, one per attack kind
@pytest.mark.parametrize("name", sorted(GOLDEN) + list(ATTACKS))
def test_report_text_matches_the_simulated_report(name):
    if name in GOLDEN:
        config = load_config(GOLDEN[name][0])
    else:
        config = cli._suite_base(3)
        config.attacks = [a for a in cli._SUITE_ATTACKS if a.kind == name]
    result = netsim.run(config)
    assert result.report_text() == \
        json.dumps(as_json(result.report), indent=2, sort_keys=True) + "\n"
