"""Role state machines: emission, hop-by-hop verification, re-watermarking,
gateway path reconstruction, and every failure verdict."""
import random

import pytest

from tests.conftest import build_chain
from zircon import events, nodes
from zircon.crypto import LengthError, SymmetricKey, decrypt_block
from zircon.nodes import (
    ACCEPTED,
    FRAME_FAIL,
    INTEGRITY_FAIL,
    MISSING_RECORD,
    PROVENANCE_FAIL,
    STALE_TIMESTAMP,
    IntermediateNode,
    KeyRing,
    SourceNode,
)
from zircon.provstore import ProvenanceKey
from zircon.watermark import (
    FEATURE,
    embed,
    extract,
    format_ip,
    make_hash_subwatermark,
    make_provenance_record,
)

PAYLOAD = b"sensor reading 7"


def walk_to_gateway(chain, payload=PAYLOAD, t0=0, step_ms=300):
    """Drive one packet through every intermediate; returns the gateway
    verdict, the reconstructed path, and the arrival time."""
    _, frame = chain.source.emit_multihop(payload, t0)
    t = t0
    for node in chain.intermediates:
        t += step_ms
        verdict, forwarded = node.process(frame, t)
        assert verdict.outcome == ACCEPTED
        frame = forwarded
    t += step_ms
    verdict, path = chain.gateway.verify_multihop(frame, t)
    return verdict, path, t


# -- key ring -----------------------------------------------------------------

def test_keyring_epochs_strictly_increase(keyring, key):
    assert keyring.rotate(random.Random(1)) is keyring.current
    assert keyring.current.epoch == 1
    assert keyring.get(0) == key
    assert keyring.get(7) is None
    assert [e for e in range(8) if keyring.get(e) is not None] == [0, 1]


def test_keyring_rotate_is_deterministic(key):
    ring_a, ring_b = KeyRing(key), KeyRing(key)
    k_a = ring_a.rotate(random.Random("seed/keys"))
    k_b = ring_b.rotate(random.Random("seed/keys"))
    assert k_a == k_b
    assert k_a.epoch == 1
    assert k_a.material != key.material


# -- source -------------------------------------------------------------------

def test_source_emit_multihop(chain):
    seq, frame = chain.source.emit_multihop(PAYLOAD, now_ms=5300)
    pkt = extract(frame)
    assert seq == 1
    assert (pkt.src, pkt.seq, pkt.hop) == (1, 1, 1)
    assert pkt.hash_part == make_hash_subwatermark(PAYLOAD)
    stored = chain.store.query_last(1, 1)
    assert stored.hop == 1
    assert events.parse(chain.store.log[-1]).by == 1
    assert stored.cipher == pkt.cipher
    assert stored.epoch == chain.keyring.current.epoch
    # the record hides the emitter's ip and capture seconds
    plain = decrypt_block(chain.keyring.current, stored.cipher)
    assert FEATURE.unpack(plain) == (chain.origins[1], 5)  # 5300 ms
    # sequence numbers increment per emission
    seq, frame = chain.source.emit_multihop(PAYLOAD, 6000)
    assert seq == extract(frame).seq == 2


def test_source_emit_singlehop_keeps_watermark_home(chain):
    seq, frame = chain.source.emit_singlehop(PAYLOAD, now_ms=0)
    assert seq == 1
    assert frame[9:] == PAYLOAD  # no tail on the wire
    stored = chain.store.query_last(1, 1)
    assert stored.hash_part == make_hash_subwatermark(PAYLOAD)


@pytest.mark.parametrize("emit", ["emit_multihop", "emit_singlehop"])
def test_source_stores_nothing_when_the_frame_cannot_be_built(emit, keyring,
                                                              store):
    store.register_node(70000)
    source = SourceNode(70000, bytes([10, 0, 0, 1]), keyring, store)
    with pytest.raises(ValueError, match="16 bits"):
        getattr(source, emit)(PAYLOAD, now_ms=0)
    assert store.record_count(70000, 1) == 0
    assert events.journal(store.log) == []
    assert source.next_seq == 1


def test_a_node_with_a_short_ip_stores_no_record(chain):
    # validate refuses such a node in a config; built by hand, it fails on
    # its first record, before anything is stored
    for emit in ("emit_multihop", "emit_singlehop"):
        source = SourceNode(1, bytes([10, 0, 0]), chain.keyring, chain.store)
        with pytest.raises(LengthError):
            getattr(source, emit)(PAYLOAD, now_ms=0)
        assert chain.store.record_count(1, 1) == 0
        assert source.next_seq == 1

    _, frame = chain.source.emit_multihop(PAYLOAD, 0)
    node = IntermediateNode(2, bytes([10, 0, 0]), chain.keyring, chain.store)
    with pytest.raises(LengthError):
        node.process(frame, now_ms=300)
    assert chain.store.record_count(1, 1) == 1
    assert chain.store.query_last(1, 1).hop == 1


# -- intermediate ---------------------------------------------------------------

def test_intermediate_accept_rewatermarks(chain):
    _, frame = chain.source.emit_multihop(PAYLOAD, 0)
    node = chain.intermediates[0]
    verdict, forwarded = node.process(frame, now_ms=4000)
    assert verdict.outcome == ACCEPTED
    forwarded = extract(forwarded)
    assert forwarded.hop == 2
    # hash part rides through unchanged; the record is the node's own
    original = extract(frame)
    assert forwarded.hash_part == original.hash_part
    assert forwarded.cipher != original.cipher
    plain = decrypt_block(chain.keyring.current, forwarded.cipher)
    assert FEATURE.unpack(plain) == (node.ip, 4)
    stored = chain.store.query_last(1, 1)
    assert stored.hop == 2
    assert events.parse(chain.store.log[-1]).by == node.id


def test_intermediate_stores_nothing_when_the_forward_cannot_be_built(chain):
    # validate keeps routes inside the 8-bit hop index; a hand-built hop-255
    # frame that passes every check still cannot be forwarded
    key = chain.keyring.current
    for hop in range(1, 256):
        cipher = make_provenance_record(chain.origins[1], 0, key)
        chain.store.store(ProvenanceKey(1, 1, hop), cipher, key.epoch, by=1)
    frame = embed(1, 1, 255, PAYLOAD, cipher, make_hash_subwatermark(PAYLOAD))
    with pytest.raises(ValueError, match="hop index"):
        chain.intermediates[0].process(frame, now_ms=300)
    assert chain.store.record_count(1, 1) == 255
    assert chain.store.query_last(1, 1).hop == 255


def test_intermediate_integrity_fail_deletes_records(chain):
    frame = bytearray(chain.source.emit_multihop(PAYLOAD, 0)[1])
    frame[10] ^= 0x40  # payload byte
    verdict, forwarded = chain.intermediates[0].process(bytes(frame), 300)
    assert verdict.outcome == INTEGRITY_FAIL
    assert forwarded is None
    assert chain.store.record_count(1, 1) == 0


def test_intermediate_provenance_fail_on_record_tamper(chain):
    frame = bytearray(chain.source.emit_multihop(PAYLOAD, 0)[1])
    frame[9 + len(PAYLOAD) + 3] ^= 0x01  # inside the encrypted record
    verdict, _ = chain.intermediates[0].process(bytes(frame), 300)
    assert verdict.outcome == PROVENANCE_FAIL
    assert chain.store.record_count(1, 1) == 0


def test_intermediate_provenance_fail_on_hop_mismatch(chain):
    pkt = extract(chain.source.emit_multihop(PAYLOAD, 0)[1])
    skipped = embed(pkt.src, pkt.seq, 2, pkt.payload, pkt.cipher,
                    pkt.hash_part)
    verdict, _ = chain.intermediates[0].process(skipped, 300)
    assert verdict.outcome == PROVENANCE_FAIL


def test_intermediate_missing_record(chain):
    _, frame = chain.source.emit_multihop(PAYLOAD, 0)
    other = build_chain()  # same key material, empty store
    verdict, _ = other.intermediates[0].process(frame, 300)
    assert verdict.outcome == MISSING_RECORD
    # a missing set is replay evidence, not something to delete
    assert not any(line.startswith("delete|")
                   for line in events.journal(other.store.log))


def test_intermediate_frame_fail_deletes_when_identity_known(chain):
    _, frame = chain.source.emit_multihop(PAYLOAD, 0)
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
    _, frame = chain.source.emit_multihop(PAYLOAD, 0)
    direct = build_chain(n_intermediates=0)
    direct.source.emit_multihop(PAYLOAD, 0)
    tampered = bytearray(frame)
    tampered[12] ^= 0xFF
    verdict, path = direct.gateway.verify_multihop(bytes(tampered), 300)
    assert verdict.outcome == INTEGRITY_FAIL
    assert path is None
    assert direct.store.record_count(1, 1) == 0


def test_gateway_rejects_replay_after_delivery(chain):
    _, frame = chain.source.emit_multihop(PAYLOAD, 0)
    v1, _ = chain.gateway.verify_multihop(frame, 300)
    assert v1.outcome == ACCEPTED
    v2, _ = chain.gateway.verify_multihop(frame, 600)
    assert v2.outcome == MISSING_RECORD


def test_gateway_one_retrieval_blocks_second_delivery():
    chain = build_chain(n_intermediates=0)
    _, frame = chain.source.emit_multihop(PAYLOAD, 0)
    # a pull by a registered gateway id outside verification (a store_probe
    # with that caller) consumes the set without deleting it
    assert len(chain.store.query_all(1, 1, by=9)) == 1
    assert chain.store.record_count(1, 1) == 1  # kept, but consumed
    v2, _ = chain.gateway.verify_multihop(frame, 600)
    assert v2.outcome == MISSING_RECORD


def test_gateway_freshness_boundary():
    delta = 60
    chain = build_chain(n_intermediates=0, freshness_s=delta)
    _, frame = chain.source.emit_multihop(PAYLOAD, 0)
    verdict, _ = chain.gateway.verify_multihop(frame, now_ms=delta * 1000)
    assert verdict.outcome == ACCEPTED  # age == delta is still fresh

    chain = build_chain(n_intermediates=0, freshness_s=delta)
    _, frame = chain.source.emit_multihop(PAYLOAD, 0)
    verdict, _ = chain.gateway.verify_multihop(frame, now_ms=(delta + 1) * 1000)
    assert verdict.outcome == STALE_TIMESTAMP
    assert chain.store.record_count(1, 1) == 0


def test_gateway_rejects_unknown_key_epoch():
    chain = build_chain(n_intermediates=0)
    cipher = bytes(range(16))
    chain.store.store(ProvenanceKey(1, 1, 1), cipher, 57, by=1)
    frame = embed(1, 1, 1, PAYLOAD, cipher, make_hash_subwatermark(PAYLOAD))
    verdict, _ = chain.gateway.verify_multihop(frame, 300)
    assert verdict.outcome == PROVENANCE_FAIL


def test_gateway_rejects_record_encrypted_under_foreign_key():
    chain = build_chain(n_intermediates=0)
    foreign = SymmetricKey(material=bytes(range(16, 32)), epoch=0)
    cipher = make_provenance_record(chain.origins[1], 0, foreign)
    # claims epoch 0, but the ring's epoch-0 key cannot decrypt it
    chain.store.store(ProvenanceKey(1, 1, 1), cipher, foreign.epoch, by=1)
    frame = embed(1, 1, 1, PAYLOAD, cipher, make_hash_subwatermark(PAYLOAD))
    verdict, _ = chain.gateway.verify_multihop(frame, 300)
    assert verdict.outcome == PROVENANCE_FAIL


def count_decrypts(monkeypatch):
    """Count the gateway's block decryptions from now on."""
    calls = []

    def counting(key, cipher):
        calls.append(cipher)
        return decrypt_block(key, cipher)

    monkeypatch.setattr(nodes, "decrypt_block", counting)
    return calls


def test_gateway_decrypts_each_record_once(chain, monkeypatch):
    calls = count_decrypts(monkeypatch)
    verdict, path, _ = walk_to_gateway(chain)
    assert verdict.outcome == ACCEPTED
    assert len(path) == 3
    assert len(calls) == 3


def test_gateway_stops_at_the_first_undecryptable_record(monkeypatch):
    chain = build_chain(n_intermediates=2)
    chain.source.emit_multihop(PAYLOAD, 0)
    # hop 2 claims epoch 0, but the ring's epoch-0 key cannot decrypt it
    foreign = SymmetricKey(material=bytes(range(16, 32)), epoch=0)
    ciphers = [make_provenance_record(chain.origins[hop], 0, key)
               for hop, key in ((2, foreign), (3, chain.keyring.current))]
    for hop, cipher in enumerate(ciphers, start=2):
        chain.store.store(ProvenanceKey(1, 1, hop), cipher, 0, by=hop)
    frame = embed(1, 1, 3, PAYLOAD, ciphers[-1],
                  make_hash_subwatermark(PAYLOAD))
    calls = count_decrypts(monkeypatch)
    verdict, path = chain.gateway.verify_multihop(frame, 300)
    assert verdict.outcome == PROVENANCE_FAIL
    assert path is None
    assert len(calls) == 2
    assert chain.store.record_count(1, 1) == 0


def test_path_formats_an_ip_unknown_when_the_gateway_was_built(chain):
    walk_to_gateway(chain)
    # the source re-registers under a new ip once the gateway has run
    chain.origins[1] = ip = bytes([192, 168, 7, 1])
    chain.source = SourceNode(1, ip, chain.keyring, chain.store)
    chain.source.next_seq = 2
    verdict, path, _ = walk_to_gateway(chain)
    assert verdict.outcome == ACCEPTED
    assert path[0][0] == format_ip(ip) == "192.168.7.1"
    assert [ip for ip, _ in path[1:]] == ["10.0.0.2", "10.0.0.3"]


def test_gateway_rejects_unregistered_origin(chain):
    del chain.origins[1]
    _, frame = chain.source.emit_multihop(PAYLOAD, 0)
    verdict, _ = chain.gateway.verify_multihop(frame, 300)
    assert verdict.outcome == PROVENANCE_FAIL


def test_gateway_rejects_origin_ip_mismatch(chain):
    chain.origins[1] = bytes([10, 9, 9, 9])
    _, frame = chain.source.emit_multihop(PAYLOAD, 0)
    verdict, _ = chain.gateway.verify_multihop(frame, 300)
    assert verdict.outcome == PROVENANCE_FAIL


def test_gateway_accepts_across_key_rotation(chain):
    _, frame = chain.source.emit_multihop(PAYLOAD, 0)
    chain.keyring.rotate(random.Random(5))
    t = 300
    for node in chain.intermediates:
        verdict, forwarded = node.process(frame, t)
        assert verdict.outcome == ACCEPTED
        frame = forwarded
        t += 300
    verdict, path = chain.gateway.verify_multihop(frame, t)
    assert verdict.outcome == ACCEPTED
    assert len(path) == 3  # epoch-0 record still decrypts next to epoch-1 ones


def test_gateway_frame_fail(chain):
    _, frame = chain.source.emit_multihop(PAYLOAD, 0)
    verdict, path = chain.gateway.verify_multihop(frame[:30], 300)
    assert verdict.outcome == FRAME_FAIL
    assert path is None
    assert chain.store.record_count(1, 1) == 0


# -- gateway, singlehop ----------------------------------------------------------

def test_singlehop_accept():
    chain = build_chain(n_intermediates=0)
    _, frame = chain.source.emit_singlehop(PAYLOAD, 2000)
    verdict, path = chain.gateway.verify_singlehop(frame, 2300)
    assert verdict.outcome == ACCEPTED
    assert path == [("10.0.0.1", 2)]
    assert chain.store.record_count(1, 1) == 0


def test_singlehop_detects_payload_tamper():
    chain = build_chain(n_intermediates=0)
    frame = bytearray(chain.source.emit_singlehop(PAYLOAD, 0)[1])
    frame[-1] ^= 0x80
    verdict, _ = chain.gateway.verify_singlehop(bytes(frame), 300)
    assert verdict.outcome == INTEGRITY_FAIL
    assert chain.store.record_count(1, 1) == 0


def test_singlehop_missing_record():
    chain = build_chain(n_intermediates=0)
    _, frame = chain.source.emit_singlehop(PAYLOAD, 0)
    v1, _ = chain.gateway.verify_singlehop(frame, 300)
    assert v1.outcome == ACCEPTED
    v2, _ = chain.gateway.verify_singlehop(frame, 600)
    assert v2.outcome == MISSING_RECORD


def test_singlehop_rejects_multihop_record_set():
    # records stored without a hash part cannot vouch for a bare frame
    chain = build_chain(n_intermediates=0)
    _, frame = chain.source.emit_multihop(PAYLOAD, 0)
    bare = frame[:9 + len(PAYLOAD)]
    verdict, _ = chain.gateway.verify_singlehop(bare, 300)
    assert verdict.outcome == PROVENANCE_FAIL


def test_singlehop_freshness():
    chain = build_chain(n_intermediates=0, freshness_s=10)
    _, frame = chain.source.emit_singlehop(PAYLOAD, 0)
    verdict, _ = chain.gateway.verify_singlehop(frame, now_ms=11000)
    assert verdict.outcome == STALE_TIMESTAMP


# -- verdict formatting -----------------------------------------------------------

def test_verdict_line_format():
    v = events.Verdict(outcome=ACCEPTED, node=9, src=1, seq=12, hop=3,
                       time=4200)
    assert events.verdict(*v) == "verdict|9|1|12|3|accepted|4200"
    v = events.Verdict(outcome=FRAME_FAIL, node=5, src=None, seq=None,
                       hop=None, time=7)
    assert events.verdict(*v) == "verdict|5|-|-|-|frame_fail|7"
