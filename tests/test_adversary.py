"""Attack primitives: bitstream arithmetic, per-kind apply semantics,
forged frames, and store probes."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.conftest import build_chain
from tests.test_scenario import small_config
from zircon.adversary import (
    AttackSpec,
    AttackSpecError,
    apply,
    build_fake_frame,
    run_store_probe,
)
from zircon.crypto import DecryptionError, decrypt_block
from zircon.nodes import ACCEPTED, PROVENANCE_FAIL
from zircon.provstore import ProvenanceKey
from zircon.scenario import ConfigError, validate
from zircon.watermark import extract


def frame_of(payload=b"0123456789abcdef"):
    chain = build_chain()
    return chain, chain.source.emit_multihop(payload, 0)[1]


# -- bitstream splice -------------------------------------------------------------

# The bit-list model the integer splice replaced: one int per bit, most
# significant first, folded back into whole bytes with the partial tail
# dropped.  The properties below hold apply to it.

def _to_bits(data):
    out = []
    for byte in data:
        for i in range(7, -1, -1):
            out.append((byte >> i) & 1)
    return out


def _from_bits(bits):
    usable = len(bits) - len(bits) % 8
    out = bytearray()
    for off in range(0, usable, 8):
        byte = 0
        for b in bits[off:off + 8]:
            byte = (byte << 1) | b
        out.append(byte)
    return bytes(out)


def insert(data, offset, bits):
    return apply(AttackSpec(kind="insert_bits", from_id=1, to_id=2,
                            offset_bits=offset, bits=tuple(bits)), data)


def delete(data, offset, q):
    return apply(AttackSpec(kind="delete_bits", from_id=1, to_id=2,
                            offset_bits=offset, q=q), data)


def test_bits_are_msb_first():
    assert _to_bits(b"\xb2") == [1, 0, 1, 1, 0, 0, 1, 0]
    assert insert(b"", 0, [1, 0, 1, 1, 0, 0, 1, 0]).deliver == b"\xb2"
    # one bit in at the front pushes the low bit of the last byte out
    assert insert(b"\xb2", 0, [1]).deliver == b"\xd9"
    assert delete(b"\xb2\x00", 0, 1).deliver == b"\x64"


@given(data=st.binary(max_size=40), at=st.integers(0, 40 * 8))
@settings(max_examples=50)
def test_bits_roundtrip(data, at):
    assert _from_bits(_to_bits(data)) == data
    offset = min(at, len(data) * 8)
    byte = [1, 0, 1, 1, 0, 0, 1, 0]
    assert delete(insert(data, offset, byte).deliver, offset, 8).deliver \
        == data


def test_partial_bytes_truncate():
    # 11 bits -> one whole byte survives
    assert insert(b"", 0, [1] * 11).deliver == b"\xff"
    assert insert(b"", 0, [0, 1, 1]).deliver == b""


def _model(spec, data):
    bits = _to_bits(data)
    off = len(bits) - spec.q if spec.offset_bits is None else spec.offset_bits
    if spec.kind == "insert_bits":
        return _from_bits(bits[:off] + list(spec.bits) + bits[off:])
    return _from_bits(bits[:off] + bits[off + spec.q:])


@given(data=st.binary(max_size=24), at=st.integers(0, 24 * 8),
       bits=st.lists(st.integers(0, 1), min_size=1, max_size=80))
@example(data=b"", at=0, bits=[1] * 65)
@example(data=b"\x12\x34", at=16, bits=[1, 0, 1])
@example(data=bytes(range(9)), at=0, bits=[0, 1] * 40)
@settings(max_examples=300)
def test_insert_bits_matches_the_bit_list_model(data, at, bits):
    offset = min(at, len(data) * 8)
    spec = AttackSpec(kind="insert_bits", from_id=1, to_id=2,
                      offset_bits=offset, bits=tuple(bits))
    result = apply(spec, data)
    assert result.deliver == _model(spec, data)
    assert result.detail == f"offset={offset},n={len(bits)}"


@given(data=st.binary(min_size=1, max_size=24),
       at=st.one_of(st.none(), st.integers(0, 24 * 8)),
       q=st.integers(1, 24 * 8))
@example(data=b"\xb2", at=0, q=8)
@example(data=b"\xb2\x5c", at=None, q=16)
@example(data=b"\xb2\x5c", at=None, q=3)
@example(data=b"\xb2\x5c", at=13, q=3)
@settings(max_examples=300)
def test_delete_bits_matches_the_bit_list_model(data, at, q):
    q = min(q, len(data) * 8)
    offset = None if at is None else min(at, len(data) * 8 - q)
    spec = AttackSpec(kind="delete_bits", from_id=1, to_id=2,
                      offset_bits=offset, q=q)
    result = apply(spec, data)
    assert result.deliver == _model(spec, data)
    shown = len(data) * 8 - q if offset is None else offset
    assert result.detail == f"offset={shown},q={q}"


@pytest.mark.parametrize("spec, data, message", [
    (dict(kind="insert_bits", bits=(1,)), b"\xb2",
     "insert offset None outside 0..8"),
    (dict(kind="insert_bits", offset_bits=9, bits=(1,)), b"\xb2",
     "insert offset 9 outside 0..8"),
    (dict(kind="insert_bits", offset_bits=1, bits=(1,)), b"",
     "insert offset 1 outside 0..0"),
    (dict(kind="delete_bits", q=9), b"\xb2", "delete range -1+9 outside 8 bits"),
    (dict(kind="delete_bits", offset_bits=5, q=4), b"\xb2",
     "delete range 5+4 outside 8 bits"),
    (dict(kind="delete_bits", q=1), b"", "delete range -1+1 outside 0 bits"),
])
def test_bit_attacks_outside_the_frame_are_refused(spec, data, message):
    with pytest.raises(AttackSpecError) as exc:
        apply(AttackSpec(from_id=1, to_id=2, **spec), data)
    assert str(exc.value) == message


# -- link attack application -------------------------------------------------------

def test_eavesdrop_copies_without_altering():
    _, frame = frame_of()
    result = apply(AttackSpec(kind="eavesdrop", from_id=1, to_id=2), frame)
    assert result.deliver == frame
    assert result.replay is None


def test_drop_suppresses_delivery():
    _, frame = frame_of()
    result = apply(AttackSpec(kind="drop", from_id=1, to_id=2), frame)
    assert result.deliver is None


def test_replay_schedules_unmodified_copy():
    _, frame = frame_of()
    spec = AttackSpec(kind="replay", from_id=1, to_id=2, delay_ms=7000)
    result = apply(spec, frame)
    assert result.deliver == frame  # original continues
    copy, delay = result.replay
    assert copy == frame and delay == 7000
    assert "delay=7000" in result.detail


def test_replay_mutation_flips_one_record_byte():
    payload = b"0123456789abcdef"
    _, frame = frame_of(payload)
    spec = AttackSpec(kind="replay", from_id=1, to_id=2, delay_ms=100,
                      mutate_timestamp=True)
    copy, _ = apply(spec, frame).replay
    tail = 9 + len(payload)
    diff = [i for i in range(len(frame)) if frame[i] != copy[i]]
    assert diff == [tail + 7]  # inside the encrypted record, time half
    assert copy[tail + 7] == frame[tail + 7] ^ 0x01


def test_insert_bits_lengthens_stream():
    _, frame = frame_of()
    spec = AttackSpec(kind="insert_bits", from_id=1, to_id=2, offset_bits=16,
                      bits=(1, 0, 1, 1, 0, 0, 1, 0))
    out = apply(spec, frame).deliver
    assert len(out) == len(frame) + 1
    assert out[:2] == frame[:2]
    assert out[2] == 0xB2
    assert out[3:] == frame[2:]


def test_insert_nonbyte_multiple_truncates():
    _, frame = frame_of()
    spec = AttackSpec(kind="insert_bits", from_id=1, to_id=2, offset_bits=0,
                      bits=(1, 1, 1))
    out = apply(spec, frame).deliver
    # 3 bits in, 3 bits lost off the tail: length unchanged, content shifted
    assert len(out) == len(frame)
    assert out != frame


def test_delete_bits_default_trims_tail():
    _, frame = frame_of()
    out = apply(AttackSpec(kind="delete_bits", from_id=1, to_id=2, q=8),
                frame).deliver
    assert out == frame[:-1]


def test_delete_bits_at_offset():
    data = bytes([0b10110010, 0b01011100])
    out = apply(AttackSpec(kind="delete_bits", from_id=1, to_id=2, q=3,
                           offset_bits=2), data).deliver
    # remaining 13 bits, first 8 kept: 10 + 010 + 010 -> 10010010
    assert out == bytes([0b10010010])


def test_modify_payload_xors_inside_payload_region():
    payload = b"0123456789abcdef"
    _, frame = frame_of(payload)
    spec = AttackSpec(kind="modify_payload", from_id=1, to_id=2,
                      edits=((0, 0x01), (15, 0x80)))
    out = apply(spec, frame).deliver
    assert out[9] == frame[9] ^ 0x01
    assert out[24] == frame[24] ^ 0x80
    assert out[:9] == frame[:9] and out[25:] == frame[25:]
    with pytest.raises(AttackSpecError):
        apply(AttackSpec(kind="modify_payload", from_id=1, to_id=2,
                         edits=((16, 0x01),)), frame)


def test_modify_watermark_xors_the_tail():
    payload = b"0123456789abcdef"
    _, frame = frame_of(payload)
    spec = AttackSpec(kind="modify_watermark", from_id=1, to_id=2,
                      edits=((23, 0xFF),))
    out = apply(spec, frame).deliver
    tail = 9 + len(payload)
    assert out[tail + 23] == frame[tail + 23] ^ 0xFF
    with pytest.raises(AttackSpecError):
        apply(AttackSpec(kind="modify_watermark", from_id=1, to_id=2,
                         edits=((24, 0xFF),)), frame)
    bare = frame[:tail]  # no tail to modify
    with pytest.raises(AttackSpecError):
        apply(spec, bare)


def test_store_probe_is_not_a_link_attack():
    _, frame = frame_of()
    with pytest.raises(AttackSpecError):
        apply(AttackSpec(kind="store_probe", caller_id=6), frame)


# -- spec validation ---------------------------------------------------------------

def test_spec_validation_errors():
    def errors_of(**spec):
        cfg = small_config(attacks=[AttackSpec(from_id=1, to_id=2, **spec)])
        with pytest.raises(ConfigError) as exc:
            validate(cfg)
        return exc.value.errors

    assert "attacks[0].kind: unknown attack kind 'jam'" in errors_of(
        kind="jam")
    assert "attacks[0].bits: insert_bits needs at least one bit" in errors_of(
        kind="insert_bits", offset_bits=0, bits=())
    assert "attacks[0].bits: 2 is not a bit (0 or 1)" in errors_of(
        kind="insert_bits", offset_bits=0, bits=(0, 2))
    assert "attacks[0].q: delete_bits needs q >= 1" in errors_of(
        kind="delete_bits", q=0)
    assert "attacks[0].edits: modify_payload needs an edit" in errors_of(
        kind="modify_payload", edits=())
    assert "attacks[0].edits: xor mask 0 is not a byte (1..255)" in \
        errors_of(kind="modify_payload", edits=((0, 0),))
    errors = errors_of(kind="fake_inject", src=1, seq=1)
    assert "attacks[0].ip: fake_inject needs a 4-byte forged address" in errors
    assert "attacks[0].key_material_hex: fake_inject needs a 16-byte forging " \
        "key" in errors
    assert "attacks[0].caller_id: store_probe needs a caller_id" in errors_of(
        kind="store_probe", src=1, seq=1)


def test_spec_matching():
    spec = AttackSpec(kind="drop", from_id=1, to_id=2, src=1, seq=5,
                      after_ms=1000)
    assert spec.matches(1, 5, 1000)
    assert not spec.matches(1, 5, 999)
    assert not spec.matches(1, 6, 1000)
    assert not spec.matches(2, 5, 1000)
    unfiltered = AttackSpec(kind="drop", from_id=1, to_id=2)
    assert unfiltered.matches(3, 9, 0)


def test_target_labels():
    assert AttackSpec(kind="drop", from_id=1, to_id=2).target_label() == "1->2"
    assert AttackSpec(kind="store_probe", caller_id=6).target_label() == "store"


# -- forged frames -------------------------------------------------------------------

def fake_spec(seq=3):
    return AttackSpec(kind="fake_inject", to_id=2, src=1, seq=seq,
                      ip=bytes([10, 0, 0, 1]), payload=b"forged-payload!!",
                      key_material=bytes(range(16, 32)), key_epoch=999)


def test_fake_frame_is_well_formed_with_honest_hash():
    frame = build_fake_frame(fake_spec(), now_s=12, seq=3)
    pkt = extract(frame)
    assert (pkt.src, pkt.seq, pkt.hop) == (1, 3, 1)
    from zircon.watermark import make_hash_subwatermark
    assert pkt.hash_part == make_hash_subwatermark(b"forged-payload!!")


def test_fake_frame_does_not_decrypt_under_network_key():
    chain = build_chain()
    frame = build_fake_frame(fake_spec(), now_s=12, seq=3)
    pkt = extract(frame)
    with pytest.raises(DecryptionError):
        decrypt_block(chain.keyring.current, pkt.cipher)


def test_fake_frame_rejected_when_records_exist():
    chain = build_chain()
    chain.source.emit_multihop(b"forged-payload!!", 0)
    forged = build_fake_frame(fake_spec(seq=1), now_s=0, seq=1)
    verdict, _ = chain.intermediates[0].process(forged, 300)
    assert verdict.outcome == PROVENANCE_FAIL
    assert verdict.outcome != ACCEPTED


# -- store probes --------------------------------------------------------------------

def test_store_probe_results(store):
    store.register_node(1)
    store.register_gateway(9)
    store.store(ProvenanceKey(1, 1, 1), bytes(16), 0, by=1)

    outsider = AttackSpec(kind="store_probe", caller_id=666)
    assert run_store_probe(outsider, store, 1, 1) == "authorization_error"
    # a registered non-gateway node is refused the same way
    node_probe = AttackSpec(kind="store_probe", caller_id=1)
    assert run_store_probe(node_probe, store, 1, 1) == "authorization_error"

    gw_probe = AttackSpec(kind="store_probe", caller_id=9)
    assert run_store_probe(gw_probe, store, 2, 2) == "missing_record"
    assert run_store_probe(gw_probe, store, 1, 1) == "retrieved"
    assert run_store_probe(gw_probe, store, 1, 1) == "one_retrieval_violation"
