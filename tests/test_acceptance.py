"""End-to-end acceptance checks.

One test per delivery guarantee: clean-run completeness, tamper and replay
detection, injection resistance, store access control, the cost and energy
models, internal datagram labeling, determinism, and agreement with the
reference crypto implementations.  The terminal summary prints one
[PASS]/[FAIL] line per test (see conftest.pytest_terminal_summary).
"""
import io
import json
import random
import time
from collections import Counter

import mpmath as mp
import pytest

from tests.conftest import build_chain
from tests.reference import aes_ref, sha256_ref
from zircon import analysis, crypto, events, netsim
from zircon.adversary import AttackSpec, apply as apply_attack
from zircon.internal_datagram import (
    INTERNAL_AUTHENTICATED,
    INTERNAL_FORGED,
    REQUIRES_IDS,
    Ipv4HeaderModel,
    check_datagram,
    label_datagram,
)
from zircon.nodes import ACCEPTED
from zircon.provstore import (
    AuthorizationError,
    OneRetrievalError,
    ProvenanceKey,
    ProvenanceStore,
)
from zircon.scenario import NodeSpec, ScenarioConfig, TrafficSpec
from zircon.watermark import (
    HEADER_BYTES,
    make_hash_subwatermark,
    make_provenance_record,
)

PAYLOAD = bytes(range(16))


def five_node_config(count, seed=11, **overrides):
    cfg = ScenarioConfig(
        seed=seed,
        nodes=[
            NodeSpec(id=1, ip="10.0.0.1", role="source", x=5, y=50),
            NodeSpec(id=2, ip="10.0.0.2", role="intermediate", x=30, y=50),
            NodeSpec(id=3, ip="10.0.0.3", role="intermediate", x=55, y=50),
            NodeSpec(id=4, ip="10.0.0.4", role="intermediate", x=80, y=50),
            NodeSpec(id=9, ip="10.0.0.9", role="gateway", x=95, y=50),
        ],
        routes=[[1, 2, 3, 4, 9]],
        traffic=[TrafficSpec(source=1, count=count, interval_ms=1000,
                             payload_bytes=16)],
    )
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return cfg


def flow_verdicts(result, flow):
    out = []
    for p in result.report["packets"].values():
        out.extend((v["node"], v["outcome"]) for v in p["verdicts"]
                   if v["flow"] == flow)
    return out


def test_01_clean_multihop_delivery():
    cfg = five_node_config(count=1000)
    cfg.traffic[0].interval_ms = 100
    started = time.monotonic()
    result = netsim.run(cfg)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"1000-packet run took {elapsed:.1f}s"

    counts = result.report["counts"]
    assert counts == {"emitted": 1000, "accepted": 1000, "rejected": 0,
                      "dropped": 0, "in_flight": 0}

    route_ips = ["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"]
    for p in result.report["packets"].values():
        assert p["status"] == "accepted"
        assert [ip for ip, _ in p["path"]] == route_ips
        times = [t for _, t in p["path"]]
        assert times[0] == p["emitted_ms"] // 1000
        assert all(a <= b for a, b in zip(times, times[1:]))
        assert p["store_records"] == 0

    stores = [l for l in events.journal(result.log) if l.startswith("store|")]
    deletes = [l for l in events.journal(result.log) if l.startswith("delete|")]
    assert len(stores) == 4000  # one record per traversed hop
    assert len(deletes) == 1000
    assert all(l.split("|")[3] == "4" for l in deletes)


def test_02_single_bit_tampering_always_detected():
    frame_len = HEADER_BYTES + len(PAYLOAD) + 16 + 8
    payload_end = HEADER_BYTES + len(PAYLOAD)
    cipher_end = payload_end + 16
    outcomes = Counter()

    for byte_i in range(HEADER_BYTES, frame_len):
        for bit in range(8):
            chain = build_chain(n_intermediates=1)
            frame = bytearray(chain.source.emit_multihop(PAYLOAD, 0)[1])
            assert len(frame) == frame_len
            frame[byte_i] ^= 1 << bit
            verdict, forwarded = chain.intermediates[0].process(bytes(frame),
                                                                now_ms=300)
            assert forwarded is None
            assert verdict.outcome != ACCEPTED
            if byte_i < payload_end or byte_i >= cipher_end:
                assert verdict.outcome == "integrity_fail", (byte_i, bit)
            else:
                assert verdict.outcome == "provenance_fail", (byte_i, bit)
            outcomes[verdict.outcome] += 1

    assert sum(outcomes.values()) == 320
    assert outcomes == {"integrity_fail": 192, "provenance_fail": 128}


def test_03_length_tampering_never_accepted():
    rng = random.Random(20260821)
    accepted = 0

    for _ in range(500):  # trailing truncation
        chain = build_chain(n_intermediates=1)
        _, frame = chain.source.emit_multihop(PAYLOAD, 0)
        q = rng.randint(1, 8)
        verdict, forwarded = chain.intermediates[0].process(frame[:-q], 300)
        accepted += verdict.outcome == ACCEPTED or forwarded is not None

    for _ in range(500):  # bit insertion at random offsets
        chain = build_chain(n_intermediates=1)
        _, frame = chain.source.emit_multihop(PAYLOAD, 0)
        n_bits = 8 * rng.randint(1, 8)
        offset = rng.randrange(0, len(frame) * 8 + 1)
        spec = AttackSpec(kind="insert_bits", from_id=1, to_id=2,
                          offset_bits=offset,
                          bits=tuple(rng.randrange(2) for _ in range(n_bits)))
        mutated = apply_attack(spec, frame).deliver
        assert len(mutated) == len(frame) + n_bits // 8
        verdict, forwarded = chain.intermediates[0].process(mutated, 300)
        accepted += verdict.outcome == ACCEPTED or forwarded is not None

    assert accepted == 0


def test_04_replay_variants_rejected():
    # a replayed copy arriving after delivery finds no records left
    cfg = five_node_config(count=100)
    cfg.attacks = [AttackSpec(kind="replay", from_id=1, to_id=2,
                              delay_ms=30000)]
    result = netsim.run(cfg)
    assert result.report["counts"]["accepted"] == 100  # originals unharmed
    replayed = flow_verdicts(result, "replayed")
    assert [o for _, o in replayed] == ["missing_record"] * 100

    # a mutated copy outrunning the original burns the record set
    cfg = five_node_config(count=100)
    cfg.attacks = [AttackSpec(kind="replay", from_id=1, to_id=2, delay_ms=100,
                              mutate_timestamp=True)]
    result = netsim.run(cfg)
    replayed = flow_verdicts(result, "replayed")
    assert [o for _, o in replayed] == ["provenance_fail"] * 100
    assert result.report["counts"]["accepted"] == 0

    # an unmodified copy held past the freshness window is stale on arrival
    cfg = ScenarioConfig(
        seed=5,
        freshness_s=10,
        nodes=[
            NodeSpec(id=1, ip="10.0.0.1", role="source", x=5, y=50),
            NodeSpec(id=9, ip="10.0.0.9", role="gateway", x=95, y=50),
        ],
        routes=[[1, 9]],
        traffic=[TrafficSpec(source=1, count=100, interval_ms=1000,
                             payload_bytes=16)],
        attacks=[
            AttackSpec(kind="replay", from_id=1, to_id=9, delay_ms=15000),
            AttackSpec(kind="drop", from_id=1, to_id=9),
        ],
    )
    result = netsim.run(cfg)
    replayed = flow_verdicts(result, "replayed")
    assert replayed == [(9, "stale_timestamp")] * 100


def test_05_fake_injection_rejected():
    cfg = five_node_config(count=100)
    cfg.attacks = [
        AttackSpec(kind="fake_inject", to_id=2, src=1, seq=s,
                   after_ms=(s - 1) * 1000 + 100, ip=bytes([10, 0, 0, 1]),
                   payload=b"forged-payload!!",
                   key_material=bytes(range(16, 32)), key_epoch=999, hop=2)
        for s in range(1, 101)
    ]
    result = netsim.run(cfg)
    fake = flow_verdicts(result, "fake")
    assert fake == [(2, "provenance_fail")] * 100
    # nothing forged ever reaches the store, and nothing lingers
    for line in events.journal(result.log):
        if line.startswith("store|"):
            assert line.split("|")[5] in {"1", "2", "3", "4"}
    assert all(p["store_records"] == 0
               for p in result.report["packets"].values())


def test_06_store_access_control():
    key = crypto.SymmetricKey(material=bytes(range(16)), epoch=0)
    store = ProvenanceStore()
    for nid in (1, 2):
        store.register_node(nid)
    store.register_gateway(9)

    def record(ip_last, t):
        return make_provenance_record(bytes([10, 0, 0, ip_last]), t, key)

    for seq in range(1, 101):
        store.store(ProvenanceKey(1, seq, 1), record(1, seq), key.epoch, by=1)
        store.store(ProvenanceKey(1, seq, 2), record(2, seq), key.epoch, by=2)

    for seq in range(1, 101):
        for node_id in (1, 2, 666):
            with pytest.raises(AuthorizationError):
                store.query_all(1, seq, by=node_id)
        records = store.query_all(1, seq, by=9)
        assert [r.hop for r in records] == [1, 2]
        with pytest.raises(OneRetrievalError):
            store.query_all(1, seq, by=9)

    with pytest.raises(AuthorizationError):
        store.store(ProvenanceKey(2, 1, 1), record(3, 1), key.epoch, by=666)


def test_07_provenance_cost_model():
    mp.mp.dps = 50
    for hops in range(1, 31):
        assert analysis.provenance_size(analysis.CostModel("ssp", hops)) \
            == 42 * hops
        assert analysis.provenance_size(analysis.CostModel("mp", hops)) \
            == 6 * hops
        assert analysis.provenance_size(analysis.CostModel("zircon", hops)) \
            == 24
        exact = (-hops * mp.log(mp.mpf("0.02"))) / (mp.log(2) ** 2)
        assert abs(analysis.bfp_bits(hops) - float(exact)) < 1.0  # within a bit

    assert analysis.provenance_size(analysis.CostModel("mp", 3)) < 24
    assert analysis.provenance_size(analysis.CostModel("mp", 4)) == 24
    assert analysis.provenance_size(analysis.CostModel("mp", 5)) > 24


def test_08_energy_model():
    params = analysis.EnergyParams()
    assert analysis.node_energy(params, 0.0) == 18.015
    assert analysis.node_energy(params, 10.0) == 18.315

    sweep = [analysis.node_energy(params, t / 4) for t in range(0, 81)]
    assert all(a < b for a, b in zip(sweep, sweep[1:]))
    powers = [analysis.node_energy(analysis.EnergyParams(p_n_mw=p), 5.0)
              for p in (10.0, 20.0, 30.0, 40.0)]
    assert all(a < b for a, b in zip(powers, powers[1:]))

    assert analysis.node_budget(params, "source") == params.e0_mj
    expected_relay = params.e0_mj + params.intermediate_multiplier * params.e0_mj
    assert analysis.node_budget(params, "intermediate") == expected_relay
    assert analysis.node_budget(params, "gateway") == expected_relay


def test_09_internal_datagram_labeling():
    internal = {bytes([10, 0, 0, n]) for n in range(1, 21)}
    rng = random.Random(4242)

    for _ in range(100):
        src, dst = rng.sample(sorted(internal), 2)
        payload = rng.randbytes(20)
        d = label_datagram(Ipv4HeaderModel(src=src, dst=dst, payload=payload))
        got = check_datagram(d, internal.__contains__, expected_size=34)
        assert got == INTERNAL_AUTHENTICATED

    base = label_datagram(Ipv4HeaderModel(
        src=bytes([10, 0, 0, 1]), dst=bytes([10, 0, 0, 9]),
        payload=bytes(range(20)),
    ))
    raw = base.to_bytes()
    assert len(raw) == 34
    for byte_i in range(10, 34):  # every destination and payload bit
        for bit in range(8):
            mutated = bytearray(raw)
            mutated[byte_i] ^= 1 << bit
            got = check_datagram(Ipv4HeaderModel.from_bytes(bytes(mutated)),
                                 lambda addr: True, expected_size=34)
            assert got == INTERNAL_FORGED, (byte_i, bit)

    external = Ipv4HeaderModel(src=bytes([8, 8, 8, 8]),
                               dst=bytes([10, 0, 0, 9]),
                               payload=bytes(20))
    assert check_datagram(external, internal.__contains__,
                          expected_size=34) == REQUIRES_IDS
    oversized = label_datagram(Ipv4HeaderModel(
        src=bytes([10, 0, 0, 1]), dst=bytes([10, 0, 0, 9]),
        payload=bytes(49),  # sensor frame riding inside a datagram
    ))
    assert check_datagram(oversized, internal.__contains__,
                          expected_size=34) == REQUIRES_IDS


def test_10_deterministic_runs():
    def run_twice(make_cfg):
        outputs = []
        for _ in range(2):
            result = netsim.run(make_cfg())
            outputs.append((
                result.log_text(),
                json.dumps(result.report, sort_keys=True),
                "\n".join(events.journal(result.log)),
            ))
        return outputs

    clean = run_twice(lambda: five_node_config(count=50, seed=77))
    assert clean[0] == clean[1]

    def attacked():
        cfg = five_node_config(count=50, seed=77)
        cfg.attacks = [
            AttackSpec(kind="modify_payload", from_id=2, to_id=3,
                       edits=((0, 0x01),), seq=10),
            AttackSpec(kind="replay", from_id=1, to_id=2, delay_ms=30000),
            AttackSpec(kind="drop", from_id=3, to_id=4, seq=20),
        ]
        return cfg

    attacked_runs = run_twice(attacked)
    assert attacked_runs[0] == attacked_runs[1]

    csvs = []
    for _ in range(2):
        out = io.StringIO()
        analysis.write_cost_csv(out, analysis.cost_rows())
        energy_out = io.StringIO()
        report = netsim.run(five_node_config(count=10, seed=3)).report
        analysis.write_energy_csv(energy_out, report, analysis.EnergyParams())
        csvs.append((out.getvalue(), energy_out.getvalue()))
    assert csvs[0] == csvs[1]


def test_11_crypto_reference_agreement():
    rng = random.Random(0xC0FFEE)
    padding = bytes([8] * 8)

    for _ in range(100):
        key_material = rng.randbytes(16)
        plain = rng.randbytes(8)
        key = crypto.SymmetricKey(material=key_material, epoch=0)
        got = crypto.encrypt_block(key, plain)
        assert got == aes_ref.encrypt_block(key_material, plain + padding)
        assert crypto.decrypt_block(key, got) == plain

    for _ in range(100):
        data = rng.randbytes(rng.randrange(0, 400))
        assert bytes(crypto.digest(data)) == sha256_ref.sha256(data)

    assert make_hash_subwatermark(b"abc") == bytes.fromhex("ba7816bf8f01cfea")
