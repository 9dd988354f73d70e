"""Watermark construction and packet framing.

A final watermark is 24 bytes: the encrypted feature record (node IP and
capture/receive time, 16 bytes after encryption) followed by the first 8
bytes of the payload digest.  The watermark size never depends on payload
length or path length; that constancy is the basis of the storage-cost
comparison in the analysis layer.

Two framing profiles exist on the wire, both built and parsed by one codec
into one `Frame` type.  Multi-hop frames carry the watermark tail;
single-hop frames carry the bare payload because the receiving gateway
regenerates everything it needs from the stored copy.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

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
    parts = text.split(".") if isinstance(text, str) else ()
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


class Frame(NamedTuple):
    """One frame of either wire profile: the 9-byte header, the payload,
    then, on a multi-hop frame, the watermark: the 16-byte encrypted feature
    record (`cipher`) and the 8-byte hash part.  A bare (single-hop) frame
    leaves both empty."""

    src: int
    seq: int
    hop: int
    payload: bytes
    cipher: bytes = b""
    hash_part: bytes = b""

    def to_bytes(self) -> bytes:
        return (_HEADER.pack(self.src, self.seq, self.hop, len(self.payload))
                + self.payload + self.cipher + self.hash_part)


def make_provenance_record(sw: FeatureSubWatermark, key: SymmetricKey) -> bytes:
    """The 16-byte encrypted feature record."""
    return encrypt_block(key, sw.to_bytes())


def make_hash_subwatermark(payload: bytes) -> bytes:
    """The first 8 digest bytes of the payload."""
    return truncate_digest(digest(payload))


def _frame(payload: bytes, packet_id: Tuple[int, int], hop: int,
           cipher: bytes, hash_part: bytes) -> Frame:
    src, seq = packet_id
    if not 0 <= src <= MAX_SRC:
        raise ValueError("source id must fit 16 bits")
    if not 0 <= seq <= MAX_SEQ:
        raise ValueError("sequence must fit 32 bits")
    if not 1 <= hop <= MAX_HOP:
        raise ValueError("hop index must be in 1..255")
    if len(payload) > MAX_PAYLOAD:
        raise LengthError(f"payload too long ({len(payload)} bytes)")
    return Frame(src, seq, hop, bytes(payload), cipher, hash_part)


def embed(payload: bytes, cipher: bytes, hash_part: bytes,
          packet_id: Tuple[int, int], hop: int) -> Frame:
    """A multi-hop frame: the payload followed by its 24-byte watermark."""
    if len(cipher) != RECORD_BYTES:
        raise LengthError(f"record cipher must be {RECORD_BYTES} bytes, "
                          f"got {len(cipher)}")
    if len(hash_part) != HASH_PART_BYTES:
        raise LengthError(f"hash sub-watermark must be {HASH_PART_BYTES} "
                          f"bytes, got {len(hash_part)}")
    return _frame(payload, packet_id, hop, cipher, hash_part)


def embed_bare(payload: bytes, packet_id: Tuple[int, int], hop: int) -> Frame:
    """A single-hop frame: header and payload, no watermark tail."""
    return _frame(payload, packet_id, hop, b"", b"")


def _unframe(data: bytes, tail_bytes: int) -> Frame:
    """Parse a frame that ends in `tail_bytes` of watermark (24 or 0); any
    framing inconsistency raises FrameError."""
    if len(data) < HEADER_BYTES:
        # best-effort identity for error reporting
        src = int.from_bytes(data[0:2], "big") if len(data) >= 2 else None
        seq = int.from_bytes(data[2:6], "big") if len(data) >= 6 else None
        hop = data[6] if len(data) >= 7 else None
        raise FrameError(f"frame too short ({len(data)} bytes)",
                         src=src, seq=seq, hop=hop)
    src, seq, hop, plen = _HEADER.unpack_from(data)
    end = HEADER_BYTES + plen
    if len(data) != end + tail_bytes:
        raise FrameError(f"frame length {len(data)} != declared "
                         f"{end + tail_bytes}", src=src, seq=seq, hop=hop)
    if hop < 1:
        raise FrameError("hop index 0 is invalid", src=src, seq=seq, hop=hop)
    return Frame(src, seq, hop, data[HEADER_BYTES:end],
                 data[end:end + RECORD_BYTES], data[end + RECORD_BYTES:])


def extract(data: bytes) -> Frame:
    """Parse a multi-hop frame."""
    return _unframe(data, WATERMARK_BYTES)


def extract_bare(data: bytes) -> Frame:
    """Parse a single-hop frame (no watermark tail)."""
    return _unframe(data, 0)
