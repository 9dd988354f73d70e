"""Framing and watermark construction."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.reference import vectors as V
from zircon.crypto import LengthError, SymmetricKey, decrypt_block, digest
from zircon.watermark import (
    FEATURE,
    HEADER_BYTES,
    WATERMARK_BYTES,
    Frame,
    FrameError,
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
    cipher = make_provenance_record(bytes([192, 168, 1, 10]), 0x655B0F00, KEY)
    hash_part = make_hash_subwatermark(b"abc")
    return embed(1, 1, 1, b"abc", cipher, hash_part)


def test_golden_frame_bytes():
    assert golden_packet() == V.GOLDEN_FRAME


def test_golden_frame_parses_back():
    pkt = extract(V.GOLDEN_FRAME)
    assert (pkt.src, pkt.seq, pkt.hop) == (1, 1, 1)
    assert pkt.payload == b"abc"
    assert pkt.cipher == V.FEATURE_CIPHER16
    assert pkt.hash_part == V.HASH8_ABC
    # epoch is not on the wire
    assert "epoch" not in Frame._fields
    # a Frame is only ever parsed: every field is read off the wire
    assert Frame._field_defaults == {}
    assert not hasattr(Frame, "to_bytes")


def test_frozen_hash_part_vector():
    assert make_hash_subwatermark(b"abc") == V.HASH8_ABC
    assert V.HASH8_ABC == V.SHA256_ABC[:8]


def test_hash_part_takes_leading_digest_bytes():
    d = digest(b"anything")
    assert make_hash_subwatermark(b"anything") == bytes(d)[:8]


def test_watermark_is_constant_size():
    for n in (0, 1, 16, 255, 1000):
        hash_part = make_hash_subwatermark(bytes(n))
        cipher = make_provenance_record(bytes(4), 0, KEY)
        pkt = embed(1, 1, 1, bytes(n), cipher, hash_part)
        assert len(pkt) - HEADER_BYTES - n == WATERMARK_BYTES == 24


def test_frame_sizes():
    pkt = golden_packet()
    assert len(pkt) == HEADER_BYTES + 3 + WATERMARK_BYTES
    w = extract(pkt)
    empty = embed(1, 2, 1, b"", w.cipher, w.hash_part)
    assert len(empty) == 33
    bare = embed_bare(1, 3, 1, b"")
    assert len(bare) == 9


@given(ip=st.binary(min_size=4, max_size=4),
       t=st.integers(min_value=0, max_value=0xFFFFFFFF))
@example(ip=bytes(4), t=0)
@example(ip=b"\xff" * 4, t=0xFFFFFFFF)
def test_feature_subwatermark_roundtrip(ip, t):
    plain = decrypt_block(KEY, make_provenance_record(ip, t, KEY))
    assert len(plain) == 8
    assert FEATURE.unpack(plain) == (ip, t)


def test_feature_subwatermark_bounds():
    # the ranges are checked where a feature record is written
    with pytest.raises(LengthError):
        make_provenance_record(b"xyz", 0, KEY)
    for late_or_early in (2 ** 32, -1):
        with pytest.raises(ValueError):
            make_provenance_record(bytes(4), late_or_early, KEY)


@given(ip=st.binary(min_size=4, max_size=4))
def test_format_ip_matches_dotted_decimal(ip):
    assert format_ip(ip) == ".".join(str(b) for b in ip)


@given(src=st.integers(0, 0xFFFF), seq=st.integers(0, 0xFFFFFFFF),
       hop=st.integers(1, 255), payload=st.binary(max_size=64))
@settings(max_examples=60)
def test_multihop_roundtrip(src, seq, hop, payload):
    cipher, hash_part = bytes(range(16)), make_hash_subwatermark(payload)
    data = embed(src, seq, hop, payload, cipher, hash_part)
    back = extract(data)
    assert back == Frame(src, seq, hop, payload, cipher, hash_part)
    assert embed(*back) == data
    assert (back.src, back.seq, back.hop, back.payload) == (src, seq, hop, payload)
    assert back.cipher + back.hash_part == cipher + hash_part


@given(src=st.integers(0, 0xFFFF), seq=st.integers(0, 0xFFFFFFFF),
       hop=st.integers(1, 255), payload=st.binary(max_size=64))
@settings(max_examples=60)
def test_bare_roundtrip(src, seq, hop, payload):
    data = embed_bare(src, seq, hop, payload)
    back = extract_bare(data)
    assert back == Frame(src=src, seq=seq, hop=hop, payload=payload,
                         cipher=b"", hash_part=b"")
    assert back.cipher == back.hash_part == b""
    assert embed_bare(*back[:4]) == data


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
    bare = bytearray(embed_bare(1, 1, 1, b"abc"))
    bare[6] = 0
    with pytest.raises(FrameError):
        extract_bare(bytes(bare))


def test_extract_bare_rejects_watermarked_frame():
    # a multihop frame read as bare has 24 undeclared trailing bytes
    err = pytest.raises(FrameError, extract_bare, V.GOLDEN_FRAME).value
    assert (err.src, err.seq, err.hop) == (1, 1, 1)


def test_extract_rejects_bare_frame():
    # a bare frame read as multihop is 24 bytes short of its declared length
    bare = embed_bare(7, 9, 3, b"abc")
    err = pytest.raises(FrameError, extract, bare).value
    assert (err.src, err.seq, err.hop) == (7, 9, 3)


def test_embed_field_bounds():
    w = extract(golden_packet())
    with pytest.raises(ValueError):
        embed(0x10000, 1, 1, b"x", w.cipher, w.hash_part)
    with pytest.raises(ValueError):
        embed(1, 2 ** 32, 1, b"x", w.cipher, w.hash_part)
    with pytest.raises(ValueError):
        embed(1, 1, 0, b"x", w.cipher, w.hash_part)
    with pytest.raises(ValueError):
        embed_bare(1, 1, 256, b"x")


def test_watermark_split_and_assemble():
    data = golden_packet()
    w = extract(data)
    assert embed(w.src, w.seq, w.hop, w.payload, w.cipher,
                 w.hash_part) == data
    assert extract(embed(*w)) == w
    with pytest.raises(FrameError):
        extract(data[:-1])
    with pytest.raises(LengthError):
        embed(1, 1, 1, b"x", w.cipher, b"x" * 7)
    with pytest.raises(LengthError):
        embed(1, 1, 1, b"x", b"x" * 15, w.hash_part)


def test_parse_and_format_ip():
    assert parse_ip("10.0.0.1") == bytes([10, 0, 0, 1])
    assert parse_ip("0.0.0.0") == bytes(4)
    assert parse_ip("255.255.255.255") == b"\xff" * 4
    assert format_ip(bytes([192, 168, 1, 10])) == "192.168.1.10"
    with pytest.raises(LengthError):
        format_ip(b"xyz")


@pytest.mark.parametrize("text", [
    "10.0.0", "10.0.0.256", "a.b.c.d", "1.2.3.4.5", "1_0.0.0.1",
    "+10.0.0.1", " 10.0.0.1", "10.0.0.1 ", "10.0.0.1\n", "10.0.0.\u0664",
    "-0.0.0.1", "010.0.0.1", "10.0.0.00", "10..0.1", "1000.0.0.1", "",
    167772161, b"10.0.0.1", None])
def test_parse_ip_refuses_all_but_strict_dotted_decimal(text):
    with pytest.raises(ValueError, match="bad IPv4 address"):
        parse_ip(text)
