"""Self-authenticating labels for internal management datagrams.

Management traffic between infrastructure nodes skips deep inspection when it
can prove it is internal: 32 bits derived from the destination address and
the first 20 payload bytes are written into the identification, flags, and
fragment-offset fields of a modeled IPv4 header.  A checker on the receiving
side recomputes the label; sensed data frames never match the fixed internal
datagram size, so they always fall through to full inspection.

The header model covers only the fields this scheme touches (total length,
identification, flags, fragment offset, addresses); writing the label uses
all 32 bits including the reserved flag bit, which is a modeling choice, not
standards-conformant traffic.  The model is a checked named tuple: every way
of building one, `_make` and `_replace` included, runs the field range checks.
"""
from __future__ import annotations

import struct
from collections import namedtuple
from typing import Callable, Optional

from .crypto import LABEL_MODE_LSB32, digest, select_label_bits

_HEADER = struct.Struct(">HHH4s4s")
HEADER_BYTES = _HEADER.size  # 14

INTERNAL_AUTHENTICATED = "internal_authenticated"
INTERNAL_FORGED = "internal_forged"
REQUIRES_IDS = "requires_ids"

HASH_PREFIX_BYTES = 20


class Ipv4HeaderModel(namedtuple("Ipv4HeaderModel", (
        "src", "dst", "payload", "identification", "flags",
        "fragment_offset", "total_length"))):
    __slots__ = ()

    def __new__(cls, src: bytes, dst: bytes, payload: bytes = b"",
                identification: int = 0, flags: int = 0,
                fragment_offset: int = 0,
                total_length: Optional[int] = None) -> "Ipv4HeaderModel":
        if len(src) != 4 or len(dst) != 4:
            raise ValueError("addresses must be 4 bytes")
        if not 0 <= identification <= 0xFFFF:
            raise ValueError("identification must fit 16 bits")
        if not 0 <= flags <= 0x7:
            raise ValueError("flags must fit 3 bits")
        if not 0 <= fragment_offset <= 0x1FFF:
            raise ValueError("fragment offset must fit 13 bits")
        if total_length is None:
            total_length = HEADER_BYTES + len(payload)
        if not 0 <= total_length <= 0xFFFF:
            raise ValueError("total length must fit 16 bits")
        return tuple.__new__(cls, (src, dst, payload, identification, flags,
                                   fragment_offset, total_length))

    @classmethod
    def _make(cls, iterable) -> "Ipv4HeaderModel":
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

    def to_bytes(self) -> bytes:
        packed = _HEADER.pack(
            self.total_length,
            self.identification,
            (self.flags << 13) | self.fragment_offset,
            self.src,
            self.dst,
        )
        return packed + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Ipv4HeaderModel":
        if len(data) < HEADER_BYTES:
            raise ValueError(f"datagram shorter than header ({len(data)} bytes)")
        total, ident, flags_frag, src, dst = _HEADER.unpack_from(data)
        return cls(src, dst, data[HEADER_BYTES:], ident, flags_frag >> 13,
                   flags_frag & 0x1FFF, total)


def _hash_input(d: Ipv4HeaderModel) -> bytes:
    prefix = d.payload[:HASH_PREFIX_BYTES]
    if len(prefix) < HASH_PREFIX_BYTES:
        prefix = prefix + bytes(HASH_PREFIX_BYTES - len(prefix))
    return d.dst + prefix


def compute_label(d: Ipv4HeaderModel, mode: str = LABEL_MODE_LSB32,
                  seed: object = None) -> int:
    return select_label_bits(digest(_hash_input(d)), mode, seed)


def extract_label(d: Ipv4HeaderModel) -> int:
    return (d.identification << 16) | (d.flags << 13) | d.fragment_offset


def label_datagram(d: Ipv4HeaderModel, mode: str = LABEL_MODE_LSB32,
                   seed: object = None) -> Ipv4HeaderModel:
    """Write the 32 label bits into identification ∥ flags ∥ fragment offset,
    most significant bits first."""
    bits = compute_label(d, mode, seed)
    return Ipv4HeaderModel(d.src, d.dst, d.payload, bits >> 16,
                           (bits >> 13) & 0x7, bits & 0x1FFF, d.total_length)


def check_datagram(d: Ipv4HeaderModel,
                   is_internal: Callable[[bytes], bool],
                   expected_size: int,
                   mode: str = LABEL_MODE_LSB32,
                   seed: object = None) -> str:
    """Classify a datagram: authenticated internal, forged internal, or
    ordinary traffic that must go through the IDS."""
    if not (is_internal(d.src) and is_internal(d.dst)
            and d.total_length == expected_size):
        return REQUIRES_IDS
    if extract_label(d) == compute_label(d, mode, seed):
        return INTERNAL_AUTHENTICATED
    return INTERNAL_FORGED
