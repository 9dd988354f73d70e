"""Role state machines: emission, hop-by-hop verification, re-watermarking,
gateway path reconstruction, and every failure verdict."""
import random

import pytest

from tests.conftest import build_chain
from zircon import events
from zircon.crypto import SymmetricKey, decrypt_block
from zircon.nodes import (
    ACCEPTED,
    FRAME_FAIL,
    INTEGRITY_FAIL,
    MISSING_RECORD,
    PROVENANCE_FAIL,
    STALE_TIMESTAMP,
    GatewayNode,
    IntermediateNode,
    KeyRing,
    NodeIdentity,
    SourceNode,
    VerificationVerdict,
    rotate_keys,
)
from zircon.provstore import ProvenanceKey
from zircon.watermark import (
    FeatureSubWatermark,
    embed,
    extract,
    make_hash_subwatermark,
)

PAYLOAD = b"sensor reading 7"


def walk_to_gateway(chain, payload=PAYLOAD, t0=0, step_ms=300):
    """Drive one packet through every intermediate; returns the gateway
    verdict, the reconstructed path, and the arrival time."""
    frame = chain.source.emit_multihop(payload, t0).to_bytes()
    t = t0
    for node in chain.intermediates:
        t += step_ms
        verdict, forwarded = node.process(frame, t)
        assert verdict.outcome == ACCEPTED
        frame = forwarded.to_bytes()
    t += step_ms
    verdict, path = chain.gateway.verify_multihop(frame, t)
    return verdict, path, t


# -- key ring -----------------------------------------------------------------

def test_keyring_epochs_strictly_increase(keyring, key):
    with pytest.raises(ValueError):
        keyring.add(SymmetricKey(material=bytes(16), epoch=0))
    keyring.add(SymmetricKey(material=bytes(16), epoch=1))
    assert keyring.current.epoch == 1
    assert keyring.get(0) == key
    assert keyring.get(7) is None
    assert keyring.epochs() == [0, 1]


def test_rotate_keys_is_deterministic(key):
    ring_a, ring_b = KeyRing(key), KeyRing(key)
    k_a = rotate_keys(ring_a, random.Random("seed/keys"))
    k_b = rotate_keys(ring_b, random.Random("seed/keys"))
    assert k_a == k_b
    assert k_a.epoch == 1
    assert k_a.material != key.material


# -- source -------------------------------------------------------------------

def test_source_emit_multihop(chain):
    pkt = chain.source.emit_multihop(PAYLOAD, now_ms=5300)
    assert (pkt.src, pkt.seq, pkt.hop) == (1, 1, 1)
    assert pkt.hash_part == make_hash_subwatermark(PAYLOAD)
    stored = chain.store.query_last(1, 1)
    assert stored.key.hop == 1 and stored.by == 1
    assert stored.cipher == pkt.cipher
    assert stored.epoch == chain.keyring.current.epoch
    # the record hides the emitter's ip and capture seconds
    plain = decrypt_block(chain.keyring.current, stored.cipher)
    sw = FeatureSubWatermark.from_bytes(plain)
    assert sw.ip == chain.identity_of(1).ip
    assert sw.capture_time == 5  # 5300 ms
    # sequence numbers increment per emission
    assert chain.source.emit_multihop(PAYLOAD, 6000).seq == 2


def test_source_emit_singlehop_keeps_watermark_home(chain):
    pkt = chain.source.emit_singlehop(PAYLOAD, now_ms=0)
    assert pkt.to_bytes()[9:] == PAYLOAD  # no tail on the wire
    stored = chain.store.query_last(1, 1)
    assert stored.hash_part == make_hash_subwatermark(PAYLOAD)


@pytest.mark.parametrize("emit", ["emit_multihop", "emit_singlehop"])
def test_source_stores_nothing_when_the_frame_cannot_be_built(emit, keyring,
                                                              store):
    ident = NodeIdentity(id=70000, ip=bytes([10, 0, 0, 1]), role="source")
    store.register_node(ident.id)
    source = SourceNode(ident, keyring, store)
    with pytest.raises(ValueError, match="16 bits"):
        getattr(source, emit)(PAYLOAD, now_ms=0)
    assert store.packet_ids() == []
    assert events.journal(store.log) == []
    assert source.next_seq == 1


def test_role_guards(chain, keyring, store):
    wrong = NodeIdentity(id=5, ip=bytes(4), role="intermediate")
    with pytest.raises(ValueError):
        SourceNode(wrong, keyring, store)
    with pytest.raises(ValueError):
        GatewayNode(wrong, keyring, store, {})
    with pytest.raises(ValueError):
        IntermediateNode(chain.identity_of(1), keyring, store)
    with pytest.raises(ValueError):
        NodeIdentity(id=5, ip=bytes(4), role="router")


# -- intermediate ---------------------------------------------------------------

def test_intermediate_accept_rewatermarks(chain):
    frame = chain.source.emit_multihop(PAYLOAD, 0).to_bytes()
    node = chain.intermediates[0]
    verdict, forwarded = node.process(frame, now_ms=4000)
    assert verdict.outcome == ACCEPTED
    assert forwarded.hop == 2
    # hash part rides through unchanged; the record is the node's own
    original = extract(frame)
    assert forwarded.hash_part == original.hash_part
    assert forwarded.cipher != original.cipher
    sw = FeatureSubWatermark.from_bytes(
        decrypt_block(chain.keyring.current, forwarded.cipher))
    assert sw.ip == node.identity.ip
    assert sw.capture_time == 4
    stored = chain.store.query_last(1, 1)
    assert stored.key.hop == 2 and stored.by == node.identity.id


def test_intermediate_integrity_fail_deletes_records(chain):
    frame = bytearray(chain.source.emit_multihop(PAYLOAD, 0).to_bytes())
    frame[10] ^= 0x40  # payload byte
    verdict, forwarded = chain.intermediates[0].process(bytes(frame), 300)
    assert verdict.outcome == INTEGRITY_FAIL
    assert forwarded is None
    assert chain.store.record_count(1, 1) == 0


def test_intermediate_provenance_fail_on_record_tamper(chain):
    frame = bytearray(chain.source.emit_multihop(PAYLOAD, 0).to_bytes())
    frame[9 + len(PAYLOAD) + 3] ^= 0x01  # inside the encrypted record
    verdict, _ = chain.intermediates[0].process(bytes(frame), 300)
    assert verdict.outcome == PROVENANCE_FAIL
    assert chain.store.record_count(1, 1) == 0


def test_intermediate_provenance_fail_on_hop_mismatch(chain):
    pkt = chain.source.emit_multihop(PAYLOAD, 0)
    skipped = embed(pkt.payload, pkt.cipher, pkt.hash_part, (pkt.src, pkt.seq),
                    hop=2)
    verdict, _ = chain.intermediates[0].process(skipped.to_bytes(), 300)
    assert verdict.outcome == PROVENANCE_FAIL


def test_intermediate_missing_record(chain):
    frame = chain.source.emit_multihop(PAYLOAD, 0).to_bytes()
    other = build_chain()  # same key material, empty store
    verdict, _ = other.intermediates[0].process(frame, 300)
    assert verdict.outcome == MISSING_RECORD
    # a missing set is replay evidence, not something to delete
    assert not any(line.startswith("delete|")
                   for line in events.journal(other.store.log))


def test_intermediate_frame_fail_deletes_when_identity_known(chain):
    frame = chain.source.emit_multihop(PAYLOAD, 0).to_bytes()
    verdict, _ = chain.intermediates[0].process(frame[:20], 300)
    assert verdict.outcome == FRAME_FAIL
    assert (verdict.src, verdict.seq) == (1, 1)
    assert chain.store.record_count(1, 1) == 0


def test_intermediate_frame_fail_without_identity_keeps_records(chain):
    chain.source.emit_multihop(PAYLOAD, 0)
    verdict, _ = chain.intermediates[0].process(b"\x00\x01\x00", 300)
    assert verdict.outcome == FRAME_FAIL
    assert verdict.seq is None
    assert chain.store.record_count(1, 1) == 1


# -- gateway, multihop ----------------------------------------------------------

def test_gateway_accepts_and_reconstructs_path(chain):
    verdict, path, t = walk_to_gateway(chain)
    assert verdict.outcome == ACCEPTED
    assert verdict.hop == 3
    assert path == [("10.0.0.1", 0), ("10.0.0.2", 0), ("10.0.0.3", 0)]
    # purge on delivery empties the set
    assert chain.store.record_count(1, 1) == 0


def test_gateway_path_times_follow_receive_times():
    chain = build_chain(n_intermediates=2)
    verdict, path, _ = walk_to_gateway(chain, t0=2000, step_ms=1000)
    assert verdict.outcome == ACCEPTED
    assert [t for _ip, t in path] == [2, 3, 4]


def test_gateway_integrity_fail(chain):
    frame = chain.source.emit_multihop(PAYLOAD, 0).to_bytes()
    direct = build_chain(n_intermediates=0)
    direct.source.emit_multihop(PAYLOAD, 0)
    tampered = bytearray(frame)
    tampered[12] ^= 0xFF
    verdict, path = direct.gateway.verify_multihop(bytes(tampered), 300)
    assert verdict.outcome == INTEGRITY_FAIL
    assert path is None
    assert direct.store.record_count(1, 1) == 0


def test_gateway_rejects_replay_after_delivery(chain):
    frame = chain.source.emit_multihop(PAYLOAD, 0).to_bytes()
    v1, _ = chain.gateway.verify_multihop(frame, 300)
    assert v1.outcome == ACCEPTED
    v2, _ = chain.gateway.verify_multihop(frame, 600)
    assert v2.outcome == MISSING_RECORD


def test_gateway_one_retrieval_blocks_second_delivery():
    chain = build_chain(n_intermediates=0, purge_on_delivery=False)
    frame = chain.source.emit_multihop(PAYLOAD, 0).to_bytes()
    v1, _ = chain.gateway.verify_multihop(frame, 300)
    assert v1.outcome == ACCEPTED
    assert chain.store.record_count(1, 1) == 1  # kept, but consumed
    v2, _ = chain.gateway.verify_multihop(frame, 600)
    assert v2.outcome == MISSING_RECORD


def test_gateway_freshness_boundary():
    delta = 60
    chain = build_chain(n_intermediates=0, freshness_s=delta)
    frame = chain.source.emit_multihop(PAYLOAD, 0).to_bytes()
    verdict, _ = chain.gateway.verify_multihop(frame, now_ms=delta * 1000)
    assert verdict.outcome == ACCEPTED  # age == delta is still fresh

    chain = build_chain(n_intermediates=0, freshness_s=delta)
    frame = chain.source.emit_multihop(PAYLOAD, 0).to_bytes()
    verdict, _ = chain.gateway.verify_multihop(frame, now_ms=(delta + 1) * 1000)
    assert verdict.outcome == STALE_TIMESTAMP
    assert chain.store.record_count(1, 1) == 0


def test_gateway_rejects_unknown_key_epoch():
    chain = build_chain(n_intermediates=0)
    cipher = bytes(range(16))
    chain.store.store(ProvenanceKey(1, 1, 1), cipher, 57, by=1)
    frame = embed(PAYLOAD, cipher, make_hash_subwatermark(PAYLOAD), (1, 1),
                  hop=1).to_bytes()
    verdict, _ = chain.gateway.verify_multihop(frame, 300)
    assert verdict.outcome == PROVENANCE_FAIL


def test_gateway_rejects_record_encrypted_under_foreign_key():
    chain = build_chain(n_intermediates=0)
    from zircon.watermark import FeatureSubWatermark, make_provenance_record
    foreign = SymmetricKey(material=bytes(range(16, 32)), epoch=0)
    cipher = make_provenance_record(
        FeatureSubWatermark(chain.identity_of(1).ip, 0), foreign)
    # claims epoch 0, but the ring's epoch-0 key cannot decrypt it
    chain.store.store(ProvenanceKey(1, 1, 1), cipher, foreign.epoch, by=1)
    frame = embed(PAYLOAD, cipher, make_hash_subwatermark(PAYLOAD), (1, 1),
                  hop=1).to_bytes()
    verdict, _ = chain.gateway.verify_multihop(frame, 300)
    assert verdict.outcome == PROVENANCE_FAIL


def test_gateway_rejects_unregistered_origin(chain):
    chain.registry[1] = NodeIdentity(id=1, ip=chain.identity_of(1).ip,
                                     role="source", registered=False)
    frame = chain.source.emit_multihop(PAYLOAD, 0).to_bytes()
    verdict, _ = chain.gateway.verify_multihop(frame, 300)
    assert verdict.outcome == PROVENANCE_FAIL


def test_gateway_rejects_origin_ip_mismatch(chain):
    chain.registry[1] = NodeIdentity(id=1, ip=bytes([10, 9, 9, 9]),
                                     role="source")
    frame = chain.source.emit_multihop(PAYLOAD, 0).to_bytes()
    verdict, _ = chain.gateway.verify_multihop(frame, 300)
    assert verdict.outcome == PROVENANCE_FAIL


def test_gateway_accepts_across_key_rotation(chain):
    frame = chain.source.emit_multihop(PAYLOAD, 0).to_bytes()
    rotate_keys(chain.keyring, random.Random(5))
    t = 300
    for node in chain.intermediates:
        verdict, forwarded = node.process(frame, t)
        assert verdict.outcome == ACCEPTED
        frame = forwarded.to_bytes()
        t += 300
    verdict, path = chain.gateway.verify_multihop(frame, t)
    assert verdict.outcome == ACCEPTED
    assert len(path) == 3  # epoch-0 record still decrypts next to epoch-1 ones


def test_gateway_frame_fail(chain):
    frame = chain.source.emit_multihop(PAYLOAD, 0).to_bytes()
    verdict, path = chain.gateway.verify_multihop(frame[:30], 300)
    assert verdict.outcome == FRAME_FAIL
    assert path is None
    assert chain.store.record_count(1, 1) == 0


# -- gateway, singlehop ----------------------------------------------------------

def test_singlehop_accept():
    chain = build_chain(n_intermediates=0)
    frame = chain.source.emit_singlehop(PAYLOAD, 2000).to_bytes()
    verdict, path = chain.gateway.verify_singlehop(frame, 2300)
    assert verdict.outcome == ACCEPTED
    assert path == [("10.0.0.1", 2)]
    assert chain.store.record_count(1, 1) == 0


def test_singlehop_detects_payload_tamper():
    chain = build_chain(n_intermediates=0)
    frame = bytearray(chain.source.emit_singlehop(PAYLOAD, 0).to_bytes())
    frame[-1] ^= 0x80
    verdict, _ = chain.gateway.verify_singlehop(bytes(frame), 300)
    assert verdict.outcome == INTEGRITY_FAIL
    assert chain.store.record_count(1, 1) == 0


def test_singlehop_missing_record():
    chain = build_chain(n_intermediates=0)
    frame = chain.source.emit_singlehop(PAYLOAD, 0).to_bytes()
    v1, _ = chain.gateway.verify_singlehop(frame, 300)
    assert v1.outcome == ACCEPTED
    v2, _ = chain.gateway.verify_singlehop(frame, 600)
    assert v2.outcome == MISSING_RECORD


def test_singlehop_rejects_multihop_record_set():
    # records stored without a hash part cannot vouch for a bare frame
    chain = build_chain(n_intermediates=0)
    pkt = chain.source.emit_multihop(PAYLOAD, 0)
    bare = pkt.to_bytes()[:9 + len(PAYLOAD)]
    verdict, _ = chain.gateway.verify_singlehop(bare, 300)
    assert verdict.outcome == PROVENANCE_FAIL


def test_singlehop_freshness():
    chain = build_chain(n_intermediates=0, freshness_s=10)
    frame = chain.source.emit_singlehop(PAYLOAD, 0).to_bytes()
    verdict, _ = chain.gateway.verify_singlehop(frame, now_ms=11000)
    assert verdict.outcome == STALE_TIMESTAMP


# -- verdict formatting -----------------------------------------------------------

def test_verdict_line_format():
    v = VerificationVerdict(outcome=ACCEPTED, node=9, src=1, seq=12, hop=3,
                            time=4200)
    assert events.verdict(*v) == "verdict|9|1|12|3|accepted|4200"
    v = VerificationVerdict(outcome=FRAME_FAIL, node=5, src=None, seq=None,
                            hop=None, time=7)
    assert events.verdict(*v) == "verdict|5|-|-|-|frame_fail|7"
