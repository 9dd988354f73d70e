"""Attack primitives: bitstream arithmetic, per-kind apply semantics,
forged frames, and store probes."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.conftest import build_chain
from tests.test_scenario import small_config
from zircon.adversary import (
    AttackError,
    DeleteBits,
    Drop,
    Eavesdrop,
    FakeInject,
    InsertBits,
    LinkAttack,
    ModifyPayload,
    ModifyWatermark,
    Replay,
    StoreProbe,
    apply,
    build_fake_frame,
    run_store_probe,
)
from zircon.crypto import DecryptionError, decrypt_block
from zircon.nodes import ACCEPTED, PROVENANCE_FAIL
from zircon.provstore import StoredRecord
from zircon.scenario import ConfigError, from_dict, validate
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
    return apply(InsertBits(from_id=1, to_id=2,
                            offset_bits=offset, bits=tuple(bits)), data)


def delete(data, offset, q):
    return apply(DeleteBits(from_id=1, to_id=2,
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
    spec = InsertBits(from_id=1, to_id=2,
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
    spec = DeleteBits(from_id=1, to_id=2,
                      offset_bits=offset, q=q)
    result = apply(spec, data)
    assert result.deliver == _model(spec, data)
    shown = len(data) * 8 - q if offset is None else offset
    assert result.detail == f"offset={shown},q={q}"


@pytest.mark.parametrize("spec, data, message", [
    (InsertBits(from_id=1, to_id=2, offset_bits=9, bits=(1,)), b"\xb2",
     "insert offset 9 outside 0..8"),
    (InsertBits(from_id=1, to_id=2, offset_bits=1, bits=(1,)), b"",
     "insert offset 1 outside 0..0"),
    (DeleteBits(from_id=1, to_id=2, q=9), b"\xb2",
     "delete range -1+9 outside 8 bits"),
    (DeleteBits(from_id=1, to_id=2, offset_bits=5, q=4), b"\xb2",
     "delete range 5+4 outside 8 bits"),
    (DeleteBits(from_id=1, to_id=2, q=1), b"",
     "delete range -1+1 outside 0 bits"),
], ids=[
    # fixed names, those the cases had beside an insert with no offset
    "spec1-\xb2-insert offset 9 outside 0..8",
    "spec2--insert offset 1 outside 0..0",
    "spec3-\xb2-delete range -1+9 outside 8 bits",
    "spec4-\xb2-delete range 5+4 outside 8 bits",
    "spec5--delete range -1+1 outside 0 bits",
])
def test_bit_attacks_outside_the_frame_are_refused(spec, data, message):
    with pytest.raises(AttackError) as exc:
        apply(spec, data)
    assert str(exc.value) == message


# -- link attack application -------------------------------------------------------

def test_eavesdrop_copies_without_altering():
    _, frame = frame_of()
    result = apply(Eavesdrop(from_id=1, to_id=2), frame)
    assert result.deliver == frame
    assert result.replay is None


def test_drop_suppresses_delivery():
    _, frame = frame_of()
    result = apply(Drop(from_id=1, to_id=2), frame)
    assert result.deliver is None


def test_replay_schedules_unmodified_copy():
    _, frame = frame_of()
    spec = Replay(from_id=1, to_id=2, delay_ms=7000)
    result = apply(spec, frame)
    assert result.deliver == frame  # original continues
    copy, delay = result.replay
    assert copy == frame and delay == 7000
    assert "delay=7000" in result.detail


def test_replay_mutation_flips_one_record_byte():
    payload = b"0123456789abcdef"
    _, frame = frame_of(payload)
    spec = Replay(from_id=1, to_id=2, delay_ms=100,
                  mutate_timestamp=True)
    copy, _ = apply(spec, frame).replay
    tail = 9 + len(payload)
    diff = [i for i in range(len(frame)) if frame[i] != copy[i]]
    assert diff == [tail + 7]  # inside the encrypted record, time half
    assert copy[tail + 7] == frame[tail + 7] ^ 0x01
    with pytest.raises(AttackError,
                       match="frame carries no watermark to mutate"):
        apply(spec, frame[:tail])


def test_insert_bits_lengthens_stream():
    _, frame = frame_of()
    spec = InsertBits(from_id=1, to_id=2, offset_bits=16,
                      bits=(1, 0, 1, 1, 0, 0, 1, 0))
    out = apply(spec, frame).deliver
    assert len(out) == len(frame) + 1
    assert out[:2] == frame[:2]
    assert out[2] == 0xB2
    assert out[3:] == frame[2:]


def test_insert_nonbyte_multiple_truncates():
    _, frame = frame_of()
    spec = InsertBits(from_id=1, to_id=2, offset_bits=0,
                      bits=(1, 1, 1))
    out = apply(spec, frame).deliver
    # 3 bits in, 3 bits lost off the tail: length unchanged, content shifted
    assert len(out) == len(frame)
    assert out != frame


def test_delete_bits_default_trims_tail():
    _, frame = frame_of()
    out = apply(DeleteBits(from_id=1, to_id=2, q=8),
                frame).deliver
    assert out == frame[:-1]


def test_delete_bits_at_offset():
    data = bytes([0b10110010, 0b01011100])
    out = apply(DeleteBits(from_id=1, to_id=2, q=3,
                           offset_bits=2), data).deliver
    # remaining 13 bits, first 8 kept: 10 + 010 + 010 -> 10010010
    assert out == bytes([0b10010010])


def test_modify_payload_xors_inside_payload_region():
    payload = b"0123456789abcdef"
    _, frame = frame_of(payload)
    spec = ModifyPayload(from_id=1, to_id=2,
                         edits=((0, 0x01), (15, 0x80)))
    out = apply(spec, frame).deliver
    assert out[9] == frame[9] ^ 0x01
    assert out[24] == frame[24] ^ 0x80
    assert out[:9] == frame[:9] and out[25:] == frame[25:]
    with pytest.raises(AttackError):
        apply(ModifyPayload(from_id=1, to_id=2,
                            edits=((16, 0x01),)), frame)
    # cut inside the header, the frame declares no payload length
    with pytest.raises(AttackError,
                       match="frame too short to locate payload"):
        apply(spec, frame[:8])


def test_modify_watermark_xors_the_tail():
    payload = b"0123456789abcdef"
    _, frame = frame_of(payload)
    spec = ModifyWatermark(from_id=1, to_id=2,
                           edits=((23, 0xFF),))
    out = apply(spec, frame).deliver
    tail = 9 + len(payload)
    assert out[tail + 23] == frame[tail + 23] ^ 0xFF
    with pytest.raises(AttackError):
        apply(ModifyWatermark(from_id=1, to_id=2,
                              edits=((24, 0xFF),)), frame)
    bare = frame[:tail]  # no tail to modify
    with pytest.raises(AttackError):
        apply(spec, bare)


def test_store_probe_is_not_a_link_attack():
    _, frame = frame_of()
    probe = StoreProbe(caller_id=6, src=1, seq=1)
    assert not isinstance(probe, LinkAttack)
    with pytest.raises(AttributeError):
        apply(probe, frame)


# -- spec validation ---------------------------------------------------------------

def test_spec_validation_errors():
    def errors_of(attack):
        with pytest.raises(ConfigError) as exc:
            validate(small_config(attacks=[attack]))
        return exc.value.errors

    def load_errors(**attack):
        with pytest.raises(ConfigError) as exc:
            from_dict({"attacks": [attack]})
        return exc.value.errors

    # a kind no record has is refused as the scenario loads
    assert load_errors(kind="jam", **{"from": 1, "to": 2}) == [
        "attacks[0].kind: unknown attack kind 'jam'"]
    assert "attacks[0].bits: insert_bits needs at least one bit" in errors_of(
        InsertBits(from_id=1, to_id=2, offset_bits=0, bits=()))
    assert "attacks[0].bits: 2 is not a bit (0 or 1)" in errors_of(
        InsertBits(from_id=1, to_id=2, offset_bits=0, bits=(0, 2)))
    assert "attacks[0].q: delete_bits needs q >= 1" in errors_of(
        DeleteBits(from_id=1, to_id=2, q=0))
    assert "attacks[0].edits: modify_payload needs an edit" in errors_of(
        ModifyPayload(from_id=1, to_id=2, edits=()))
    assert "attacks[0].edits: xor mask 0 is not a byte (1..255)" in \
        errors_of(ModifyPayload(from_id=1, to_id=2, edits=((0, 0),)))
    # a required field: a missing key as the scenario loads, and a None in
    # a record built in code refused by its type
    assert load_errors(kind="insert_bits", bits=[1]) == [
        "attacks[0].offset_bits: missing required key"]
    assert errors_of(InsertBits(from_id=1, to_id=2, offset_bits=None,
                                bits=(1,))) == [
        "attacks[0].offset_bits: must be an integer, got None"]
    assert load_errors(kind="fake_inject", to=2, src=1, seq=1) == [
        "attacks[0].ip: missing required key",
        "attacks[0].key_material_hex: missing required key"]
    errors = errors_of(FakeInject(to_id=2, src=1, seq=1, ip=None,
                                  key_material=None))
    assert "attacks[0].ip: must be bytes, got None" in errors
    assert "attacks[0].key_material_hex: must be bytes, got None" in errors
    assert load_errors(kind="store_probe", caller_id=6) == [
        "attacks[0].src: missing required key",
        "attacks[0].seq: missing required key"]
    assert load_errors(kind="store_probe", src=1, seq=1) == [
        "attacks[0].caller_id: missing required key"]
    assert errors_of(StoreProbe(src=1, seq=1, caller_id=None)) == [
        "attacks[0].caller_id: must be an integer, got None"]


def test_spec_matching():
    spec = Drop(from_id=1, to_id=2, src=1, seq=5,
                after_ms=1000)
    assert spec.matches(1, 5, 1000)
    assert not spec.matches(1, 5, 999)
    assert not spec.matches(1, 6, 1000)
    assert not spec.matches(2, 5, 1000)
    unfiltered = Drop(from_id=1, to_id=2)
    assert unfiltered.matches(3, 9, 0)


def test_target_labels():
    assert Drop(from_id=1, to_id=2).target_label() == "1->2"
    assert StoreProbe(caller_id=6, src=1, seq=1).target_label() == "store"
    # a forger crosses no link
    assert fake_spec().target_label() == "None->2"


# -- forged frames -------------------------------------------------------------------

def fake_spec(seq=3):
    return FakeInject(to_id=2, src=1, seq=seq,
                      ip=bytes([10, 0, 0, 1]), payload=b"forged-payload!!",
                      key_material=bytes(range(16, 32)), key_epoch=999)


def test_fake_frame_is_well_formed_with_honest_hash():
    frame = build_fake_frame(fake_spec(), now_s=12)
    pkt = extract(frame)
    assert (pkt.src, pkt.seq, pkt.hop) == (1, 3, 1)
    from zircon.watermark import make_hash_subwatermark
    assert pkt.hash_part == make_hash_subwatermark(b"forged-payload!!")


def test_fake_frame_does_not_decrypt_under_network_key():
    chain = build_chain()
    frame = build_fake_frame(fake_spec(), now_s=12)
    pkt = extract(frame)
    with pytest.raises(DecryptionError):
        decrypt_block(chain.keyring.current, pkt.cipher)


def test_fake_frame_rejected_when_records_exist():
    chain = build_chain()
    chain.source.emit_multihop(b"forged-payload!!", 0)
    forged = build_fake_frame(fake_spec(seq=1), now_s=0)
    verdict, _ = chain.intermediates[0].process(forged, 300)
    assert verdict.outcome == PROVENANCE_FAIL
    assert verdict.outcome != ACCEPTED


# -- store probes --------------------------------------------------------------------

def test_store_probe_results(store):
    store.register_node(1)
    store.register_gateway(9)
    store.store(StoredRecord(1, bytes(16), 0, 0), 1, 1, by=1)

    def probe(caller_id, src=1, seq=1):
        return StoreProbe(caller_id=caller_id, src=src,
                          seq=seq)

    assert run_store_probe(probe(666), store) == "authorization_error"
    # a registered non-gateway node is refused the same way
    assert run_store_probe(probe(1), store) == "authorization_error"

    assert run_store_probe(probe(9, 2, 2), store) == "missing_record"
    assert run_store_probe(probe(9), store) == "retrieved"
    assert run_store_probe(probe(9), store) == "one_retrieval_violation"
