"""Framing and watermark construction."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.reference import vectors as V
from zircon.crypto import LengthError, SymmetricKey
from zircon.watermark import (
    HEADER_BYTES,
    WATERMARK_BYTES,
    BarePacket,
    FeatureSubWatermark,
    FinalWatermark,
    FrameError,
    HashSubWatermark,
    ProvenanceRecordValue,
    embed,
    embed_bare,
    extract,
    extract_bare,
    format_ip,
    make_hash_subwatermark,
    make_provenance_record,
    parse_ip,
)

KEY = SymmetricKey(material=V.AES_KAT_KEY, epoch=0)


def golden_packet():
    sw = FeatureSubWatermark(bytes([192, 168, 1, 10]), 0x655B0F00)
    record = make_provenance_record(sw, KEY)
    hash_part = make_hash_subwatermark(b"abc")
    return embed(b"abc", FinalWatermark(record, hash_part), (1, 1), hop=1)


def test_golden_frame_bytes():
    assert golden_packet().to_bytes() == V.GOLDEN_FRAME


def test_golden_frame_parses_back():
    pkt = extract(V.GOLDEN_FRAME)
    assert (pkt.src, pkt.seq, pkt.hop) == (1, 1, 1)
    assert pkt.payload == b"abc"
    assert pkt.watermark.record.cipher == V.FEATURE_CIPHER16
    assert bytes(pkt.watermark.hash_part) == V.HASH8_ABC
    # epoch is not on the wire
    assert pkt.watermark.record.key_epoch is None


def test_watermark_is_constant_size():
    for n in (0, 1, 16, 255, 1000):
        hash_part = make_hash_subwatermark(bytes(n))
        record = make_provenance_record(
            FeatureSubWatermark(bytes(4), 0), KEY)
        w = FinalWatermark(record, hash_part)
        assert len(w.to_bytes()) == WATERMARK_BYTES == 24


def test_frame_sizes():
    pkt = golden_packet()
    assert len(pkt.to_bytes()) == HEADER_BYTES + 3 + WATERMARK_BYTES
    empty = embed(b"", pkt.watermark, (1, 2), hop=1)
    assert len(empty.to_bytes()) == 33
    bare = embed_bare(b"", (1, 3), hop=1)
    assert len(bare.to_bytes()) == 9


@given(ip=st.binary(min_size=4, max_size=4),
       t=st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_feature_subwatermark_roundtrip(ip, t):
    sw = FeatureSubWatermark(ip=ip, capture_time=t)
    assert FeatureSubWatermark.from_bytes(sw.to_bytes()) == sw
    assert len(sw.to_bytes()) == 8


def test_feature_subwatermark_bounds():
    with pytest.raises(LengthError):
        FeatureSubWatermark(ip=b"xyz", capture_time=0)
    with pytest.raises(ValueError):
        FeatureSubWatermark(ip=bytes(4), capture_time=2 ** 32)
    with pytest.raises(LengthError):
        FeatureSubWatermark.from_bytes(b"1234567")


@given(src=st.integers(0, 0xFFFF), seq=st.integers(0, 0xFFFFFFFF),
       hop=st.integers(1, 255), payload=st.binary(max_size=64))
@settings(max_examples=60)
def test_multihop_roundtrip(src, seq, hop, payload):
    record = ProvenanceRecordValue(cipher=bytes(range(16)))
    w = FinalWatermark(record=record,
                       hash_part=make_hash_subwatermark(payload))
    pkt = embed(payload, w, (src, seq), hop)
    back = extract(pkt.to_bytes())
    assert back == pkt
    assert (back.src, back.seq, back.hop, back.payload) == (src, seq, hop, payload)
    assert back.watermark.to_bytes() == w.to_bytes()


@given(src=st.integers(0, 0xFFFF), seq=st.integers(0, 0xFFFFFFFF),
       hop=st.integers(1, 255), payload=st.binary(max_size=64))
@settings(max_examples=60)
def test_bare_roundtrip(src, seq, hop, payload):
    pkt = embed_bare(payload, (src, seq), hop)
    back = extract_bare(pkt.to_bytes())
    assert back == BarePacket(src=src, seq=seq, hop=hop, payload=payload)


def test_extract_rejects_truncation():
    frame = V.GOLDEN_FRAME
    for cut in (len(frame) - 1, len(frame) - 8, HEADER_BYTES + 1, HEADER_BYTES):
        with pytest.raises(FrameError):
            extract(frame[:cut])


def test_extract_rejects_extension():
    with pytest.raises(FrameError):
        extract(V.GOLDEN_FRAME + b"\x00")


def test_frame_error_carries_best_effort_identity():
    # header fully present, tail truncated
    err = pytest.raises(FrameError, extract, V.GOLDEN_FRAME[:20]).value
    assert (err.src, err.seq, err.hop) == (1, 1, 1)
    # only the source id survives
    err = pytest.raises(FrameError, extract, V.GOLDEN_FRAME[:4]).value
    assert err.src == 1
    assert err.seq is None and err.hop is None
    # nothing survives
    err = pytest.raises(FrameError, extract, b"\x01").value
    assert err.src is None


def test_extract_rejects_hop_zero():
    data = bytearray(V.GOLDEN_FRAME)
    data[6] = 0
    with pytest.raises(FrameError):
        extract(bytes(data))
    bare = bytearray(embed_bare(b"abc", (1, 1), hop=1).to_bytes())
    bare[6] = 0
    with pytest.raises(FrameError):
        extract_bare(bytes(bare))


def test_extract_bare_rejects_watermarked_frame():
    # a multihop frame read as bare has 24 undeclared trailing bytes
    with pytest.raises(FrameError):
        extract_bare(V.GOLDEN_FRAME)


def test_embed_field_bounds():
    w = golden_packet().watermark
    with pytest.raises(ValueError):
        embed(b"x", w, (0x10000, 1), hop=1)
    with pytest.raises(ValueError):
        embed(b"x", w, (1, 2 ** 32), hop=1)
    with pytest.raises(ValueError):
        embed(b"x", w, (1, 1), hop=0)
    with pytest.raises(ValueError):
        embed_bare(b"x", (1, 1), hop=256)


def test_watermark_split_and_assemble():
    w = golden_packet().watermark
    record, hash_part = w.record, w.hash_part
    assert FinalWatermark(record, hash_part) == w
    assert FinalWatermark.from_bytes(w.to_bytes()).to_bytes() == w.to_bytes()
    with pytest.raises(LengthError):
        FinalWatermark.from_bytes(b"x" * 23)
    with pytest.raises(LengthError):
        HashSubWatermark(b"x" * 7)
    with pytest.raises(LengthError):
        ProvenanceRecordValue(cipher=b"x" * 15)


def test_parse_and_format_ip():
    assert parse_ip("10.0.0.1") == bytes([10, 0, 0, 1])
    assert format_ip(bytes([192, 168, 1, 10])) == "192.168.1.10"
    for bad in ("10.0.0", "10.0.0.256", "a.b.c.d", "1.2.3.4.5"):
        with pytest.raises(ValueError):
            parse_ip(bad)
    with pytest.raises(LengthError):
        format_ip(b"xyz")
