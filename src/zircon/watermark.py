"""Watermark construction and packet framing.

A final watermark is 24 bytes: the encrypted feature record (node IP and
capture/receive time, 16 bytes after encryption) followed by the first 8
bytes of the payload digest.  The watermark size never depends on payload
length or path length; that constancy is the basis of the storage-cost
comparison in the analysis layer.

Two framing profiles exist on the wire.  Multi-hop frames carry the
watermark tail; single-hop frames carry the bare payload because the
receiving gateway regenerates everything it needs from the stored copy.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from .crypto import (
    LengthError,
    SymmetricKey,
    digest,
    encrypt_block,
    truncate_digest,
)

WATERMARK_BYTES = 24
RECORD_BYTES = 16
HASH_PART_BYTES = 8

# [src:2][seq:4][hop:1][len:2] big-endian
_HEADER = struct.Struct(">HIBH")
HEADER_BYTES = _HEADER.size  # 9

MAX_PAYLOAD = 0xFFFF
MAX_SEQ = 0xFFFFFFFF
MAX_SRC = 0xFFFF
MAX_HOP = 0xFF


class FrameError(ValueError):
    """Received bytes do not parse as a well-formed frame.

    Carries whatever identity fields could still be read from the header so
    the verifier can attribute the event to a packet when possible.
    """

    def __init__(self, message: str, src: Optional[int] = None,
                 seq: Optional[int] = None, hop: Optional[int] = None):
        super().__init__(message)
        self.src = src
        self.seq = seq
        self.hop = hop


def parse_ip(text: str) -> bytes:
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address {text!r}")
    out = []
    for p in parts:
        v = int(p)
        if not 0 <= v <= 255:
            raise ValueError(f"bad IPv4 address {text!r}")
        out.append(v)
    return bytes(out)


def format_ip(ip: bytes) -> str:
    if len(ip) != 4:
        raise LengthError(f"IPv4 address must be 4 bytes, got {len(ip)}")
    return ".".join(str(b) for b in ip)


@dataclass(frozen=True)
class FeatureSubWatermark:
    """Node IP plus capture (or receive) time, both 4 bytes on the wire."""

    ip: bytes
    capture_time: int

    def __post_init__(self) -> None:
        if len(self.ip) != 4:
            raise LengthError(f"ip must be 4 bytes, got {len(self.ip)}")
        if not 0 <= self.capture_time <= 0xFFFFFFFF:
            raise ValueError("capture_time must fit 32 unsigned bits")

    def to_bytes(self) -> bytes:
        return self.ip + self.capture_time.to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "FeatureSubWatermark":
        if len(data) != 8:
            raise LengthError(f"feature sub-watermark must be 8 bytes, got {len(data)}")
        return cls(ip=data[:4], capture_time=int.from_bytes(data[4:], "big"))


@dataclass(frozen=True)
class ProvenanceRecordValue:
    """Encrypted feature record as stored per hop.

    key_epoch identifies which rotation generation encrypted it; frames on
    the wire carry only the cipher bytes, so records parsed from a frame
    have epoch None until matched against the store.
    """

    cipher: bytes
    key_epoch: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.cipher) != RECORD_BYTES:
            raise LengthError(f"record cipher must be {RECORD_BYTES} bytes")


class HashSubWatermark(bytes):
    """First 8 digest bytes of the payload."""

    def __new__(cls, data: bytes) -> "HashSubWatermark":
        if len(data) != HASH_PART_BYTES:
            raise LengthError(
                f"hash sub-watermark must be {HASH_PART_BYTES} bytes, got {len(data)}"
            )
        return super().__new__(cls, data)


@dataclass(frozen=True)
class FinalWatermark:
    record: ProvenanceRecordValue
    hash_part: HashSubWatermark

    def to_bytes(self) -> bytes:
        return self.record.cipher + bytes(self.hash_part)

    @classmethod
    def from_bytes(cls, data: bytes) -> "FinalWatermark":
        if len(data) != WATERMARK_BYTES:
            raise LengthError(f"watermark must be {WATERMARK_BYTES} bytes, got {len(data)}")
        return cls(
            record=ProvenanceRecordValue(cipher=data[:RECORD_BYTES]),
            hash_part=HashSubWatermark(data[RECORD_BYTES:]),
        )


@dataclass(frozen=True)
class WatermarkedPacket:
    src: int
    seq: int
    hop: int
    payload: bytes
    watermark: FinalWatermark

    def to_bytes(self) -> bytes:
        header = _HEADER.pack(self.src, self.seq, self.hop, len(self.payload))
        return header + self.payload + self.watermark.to_bytes()


@dataclass(frozen=True)
class BarePacket:
    """Single-hop frame: header and payload only, no watermark tail."""

    src: int
    seq: int
    hop: int
    payload: bytes

    def to_bytes(self) -> bytes:
        header = _HEADER.pack(self.src, self.seq, self.hop, len(self.payload))
        return header + self.payload


def make_provenance_record(sw: FeatureSubWatermark,
                           key: SymmetricKey) -> ProvenanceRecordValue:
    return ProvenanceRecordValue(
        cipher=encrypt_block(key, sw.to_bytes()),
        key_epoch=key.epoch,
    )


def make_hash_subwatermark(payload: bytes) -> HashSubWatermark:
    return HashSubWatermark(truncate_digest(digest(payload)))


def _check_header_fields(src: int, seq: int, hop: int) -> None:
    if not 0 <= src <= MAX_SRC:
        raise ValueError("source id must fit 16 bits")
    if not 0 <= seq <= MAX_SEQ:
        raise ValueError("sequence must fit 32 bits")
    if not 1 <= hop <= MAX_HOP:
        raise ValueError("hop index must be in 1..255")


def embed(payload: bytes, w: FinalWatermark, packet_id: Tuple[int, int],
          hop: int) -> WatermarkedPacket:
    src, seq = packet_id
    _check_header_fields(src, seq, hop)
    if len(payload) > MAX_PAYLOAD:
        raise LengthError(f"payload too long ({len(payload)} bytes)")
    return WatermarkedPacket(src=src, seq=seq, hop=hop, payload=bytes(payload),
                             watermark=w)


def _parse_header(data: bytes) -> Tuple[int, int, int, int]:
    # best-effort identity for error reporting even when too short
    if len(data) < HEADER_BYTES:
        src = int.from_bytes(data[0:2], "big") if len(data) >= 2 else None
        seq = int.from_bytes(data[2:6], "big") if len(data) >= 6 else None
        hop = data[6] if len(data) >= 7 else None
        raise FrameError(f"frame too short ({len(data)} bytes)",
                         src=src, seq=seq, hop=hop)
    return _HEADER.unpack_from(data)


def extract(data: bytes) -> WatermarkedPacket:
    """Parse a multi-hop frame; any framing inconsistency raises FrameError."""
    src, seq, hop, plen = _parse_header(data)
    expected = HEADER_BYTES + plen + WATERMARK_BYTES
    if len(data) != expected:
        raise FrameError(
            f"frame length {len(data)} != declared {expected}",
            src=src, seq=seq, hop=hop,
        )
    if hop < 1:
        raise FrameError("hop index 0 is invalid", src=src, seq=seq, hop=hop)
    payload = data[HEADER_BYTES:HEADER_BYTES + plen]
    tail = data[HEADER_BYTES + plen:]
    return WatermarkedPacket(src=src, seq=seq, hop=hop, payload=payload,
                             watermark=FinalWatermark.from_bytes(tail))


def extract_bare(data: bytes) -> BarePacket:
    """Parse a single-hop frame (no watermark tail)."""
    src, seq, hop, plen = _parse_header(data)
    expected = HEADER_BYTES + plen
    if len(data) != expected:
        raise FrameError(
            f"bare frame length {len(data)} != declared {expected}",
            src=src, seq=seq, hop=hop,
        )
    if hop < 1:
        raise FrameError("hop index 0 is invalid", src=src, seq=seq, hop=hop)
    return BarePacket(src=src, seq=seq, hop=hop,
                      payload=data[HEADER_BYTES:])


def embed_bare(payload: bytes, packet_id: Tuple[int, int], hop: int) -> BarePacket:
    src, seq = packet_id
    _check_header_fields(src, seq, hop)
    if len(payload) > MAX_PAYLOAD:
        raise LengthError(f"payload too long ({len(payload)} bytes)")
    return BarePacket(src=src, seq=seq, hop=hop, payload=bytes(payload))
