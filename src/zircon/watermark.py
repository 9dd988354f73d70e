"""Watermark construction and packet framing.

A final watermark is 24 bytes: the encrypted feature record (node IP and
capture/receive time, 16 bytes after encryption) followed by the first 8
bytes of the payload digest.  The watermark size never depends on payload
length or path length; that constancy is the basis of the storage-cost
comparison in the analysis layer.

Two framing profiles exist on the wire, both written and parsed by one
codec.  Multi-hop frames carry the watermark tail; single-hop frames carry
the bare payload because the receiving gateway regenerates everything it
needs from the stored copy.

`embed`/`embed_bare` write a frame's wire bytes, and `extract`/`extract_bare`
parse them into a `Frame`, a plain named tuple of the same fields in the
same order, so `embed(*extract(data)) == data`.  A feature record is
the 8-byte `FEATURE` plaintext of an ip and a capture time; its ranges (a
4-byte ip, a 32-bit capture time) are checked in `make_provenance_record`,
its one writer.  8 decrypted bytes fit them by construction, so the gateway
reads a plaintext with `FEATURE.unpack` into a bare pair.
"""
from __future__ import annotations

import re
import struct
from typing import NamedTuple, Optional

from .crypto import (
    LengthError,
    SymmetricKey,
    digest,
    encrypt_block,
)

WATERMARK_BYTES = 24
RECORD_BYTES = 16
HASH_PART_BYTES = 8

# [src:2][seq:4][hop:1][len:2] big-endian
_HEADER = struct.Struct(">HIBH")
HEADER_BYTES = _HEADER.size  # 9
# [ip:4][capture time:4] big-endian, the plaintext of a feature record
FEATURE = struct.Struct(">4sI")

MAX_PAYLOAD = 0xFFFF
MAX_SEQ = 0xFFFFFFFF
MAX_SRC = 0xFFFF
MAX_HOP = 0xFF
MAX_CAPTURE_S = 0xFFFFFFFF  # capture times are whole seconds in 32 bits
# strict dotted decimal: four parts, each 0..255 in ASCII digits with no
# leading zero (some tools read 010 as octal)
_IP_PART = r"(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_IPV4 = re.compile(r"\.".join([_IP_PART] * 4))
# builds a Frame of struct's fields without its Python-level __new__
_new = tuple.__new__


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
    match = _IPV4.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"bad IPv4 address {text!r}")
    return bytes(map(int, match.groups()))


def format_ip(ip: bytes) -> str:
    if len(ip) != 4:
        raise LengthError(f"IPv4 address must be 4 bytes, got {len(ip)}")
    return "%d.%d.%d.%d" % tuple(ip)


class Frame(NamedTuple):
    """A parsed frame of either wire profile: the 9-byte header fields, the
    payload, then, on a multi-hop frame, the watermark: the 16-byte encrypted
    feature record (`cipher`) and the 8-byte hash part.  A bare (single-hop)
    frame parses both as empty."""

    src: int
    seq: int
    hop: int
    payload: bytes
    cipher: bytes
    hash_part: bytes


def make_provenance_record(ip: bytes, capture_time: int,
                           key: SymmetricKey) -> bytes:
    """The 16-byte encrypted feature record of a node's ip and its capture
    (or receive) time in whole seconds."""
    if len(ip) != 4:
        raise LengthError(f"ip must be 4 bytes, got {len(ip)}")
    if not 0 <= capture_time <= MAX_CAPTURE_S:
        raise ValueError("capture_time must fit 32 unsigned bits")
    return encrypt_block(key, FEATURE.pack(ip, capture_time))


def make_hash_subwatermark(payload: bytes) -> bytes:
    """The first 8 digest bytes of the payload."""
    return digest(payload)[:HASH_PART_BYTES]


def _frame(src: int, seq: int, hop: int, payload: bytes, cipher: bytes,
           hash_part: bytes) -> bytes:
    if not 0 <= src <= MAX_SRC:
        raise ValueError("source id must fit 16 bits")
    if not 0 <= seq <= MAX_SEQ:
        raise ValueError("sequence must fit 32 bits")
    if not 1 <= hop <= MAX_HOP:
        raise ValueError("hop index must be in 1..255")
    if len(payload) > MAX_PAYLOAD:
        raise LengthError(f"payload too long ({len(payload)} bytes)")
    return b"".join((_HEADER.pack(src, seq, hop, len(payload)), payload,
                     cipher, hash_part))


def embed(src: int, seq: int, hop: int, payload: bytes, cipher: bytes,
          hash_part: bytes) -> bytes:
    """A multi-hop frame: the payload followed by its 24-byte watermark."""
    if len(cipher) != RECORD_BYTES:
        raise LengthError(f"record cipher must be {RECORD_BYTES} bytes, "
                          f"got {len(cipher)}")
    if len(hash_part) != HASH_PART_BYTES:
        raise LengthError(f"hash sub-watermark must be {HASH_PART_BYTES} "
                          f"bytes, got {len(hash_part)}")
    return _frame(src, seq, hop, payload, cipher, hash_part)


def embed_bare(src: int, seq: int, hop: int, payload: bytes) -> bytes:
    """A single-hop frame: header and payload, no watermark tail."""
    return _frame(src, seq, hop, payload, b"", b"")


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
    return _new(Frame, (src, seq, hop, data[HEADER_BYTES:end],
                        data[end:end + RECORD_BYTES],
                        data[end + RECORD_BYTES:]))


def extract(data: bytes) -> Frame:
    """Parse a multi-hop frame."""
    return _unframe(data, WATERMARK_BYTES)


def extract_bare(data: bytes) -> Frame:
    """Parse a single-hop frame (no watermark tail)."""
    return _unframe(data, 0)
