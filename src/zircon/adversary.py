"""Executable threat model.

Attacks are declarative specs scheduled by the simulator.  Byte- and
bit-level manipulations (insert, delete, modify, drop, eavesdrop, replay
capture) are pure transformations applied while a frame crosses the targeted
link; fake injection and store probes are synthesized events.

Bit edits operate on the frame as a bitstream, most-significant bit first.
A receiver only ever sees whole octets, so after an edit the stream is
truncated to its largest whole-byte prefix before delivery; edits of a
non-multiple of 8 bits therefore also shorten the frame by the remainder.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import events
from .crypto import SymmetricKey
from .provstore import (
    AuthorizationError,
    MissingRecordError,
    OneRetrievalError,
    ProvenanceStore,
)
from .watermark import (
    HEADER_BYTES,
    WATERMARK_BYTES,
    FeatureSubWatermark,
    embed,
    make_hash_subwatermark,
    make_provenance_record,
)

EAVESDROP = "eavesdrop"
REPLAY = "replay"
INSERT_BITS = "insert_bits"
DELETE_BITS = "delete_bits"
MODIFY_PAYLOAD = "modify_payload"
MODIFY_WATERMARK = "modify_watermark"
DROP = "drop"
FAKE_INJECT = "fake_inject"
STORE_PROBE = "store_probe"

KINDS = (EAVESDROP, REPLAY, INSERT_BITS, DELETE_BITS, MODIFY_PAYLOAD,
         MODIFY_WATERMARK, DROP, FAKE_INJECT, STORE_PROBE)

# kinds applied to frames in flight on a link
LINK_KINDS = (EAVESDROP, REPLAY, INSERT_BITS, DELETE_BITS, MODIFY_PAYLOAD,
              MODIFY_WATERMARK, DROP)


class AttackSpecError(ValueError):
    """Malformed attack specification (bad kind, offsets out of range)."""


@dataclass
class AttackSpec:
    kind: str
    # link target: the frame is intercepted travelling from_id -> to_id;
    # store probes leave these None and target the store instead
    from_id: Optional[int] = None
    to_id: Optional[int] = None
    # trigger: all given conditions must match
    src: Optional[int] = None
    seq: Optional[int] = None
    after_ms: int = 0
    # replay
    delay_ms: int = 1000
    mutate_timestamp: bool = False
    # insert_bits / delete_bits
    offset_bits: Optional[int] = None
    bits: Tuple[int, ...] = ()
    q: int = 1
    # modify_payload / modify_watermark: (byte offset, xor mask) pairs
    edits: Tuple[Tuple[int, int], ...] = ()
    # fake_inject: forged identity and key material
    ip: Optional[bytes] = None
    payload: bytes = b""
    key_material: Optional[bytes] = None
    key_epoch: int = 0
    hop: int = 1
    # store_probe
    caller_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise AttackSpecError(f"unknown attack kind {self.kind!r}")
        if self.kind == DELETE_BITS and self.q < 1:
            raise AttackSpecError("delete_bits needs q >= 1")
        if self.kind == INSERT_BITS:
            if not self.bits or any(b not in (0, 1) for b in self.bits):
                raise AttackSpecError("insert_bits needs a non-empty 0/1 tuple")
        if self.kind in (MODIFY_PAYLOAD, MODIFY_WATERMARK):
            if not self.edits:
                raise AttackSpecError(f"{self.kind} needs a non-empty edit list")
            if any(mask == 0 for _off, mask in self.edits):
                raise AttackSpecError("xor mask 0 would be a no-op edit")
        if self.kind == FAKE_INJECT:
            if self.ip is None or self.key_material is None or self.src is None:
                raise AttackSpecError(
                    "fake_inject needs ip, key_material and a forged src id"
                )
        if self.kind == STORE_PROBE and self.caller_id is None:
            raise AttackSpecError("store_probe needs a caller_id")

    def matches(self, src: int, seq: int, now_ms: int) -> bool:
        if self.src is not None and src != self.src:
            return False
        if self.seq is not None and seq != self.seq:
            return False
        return now_ms >= self.after_ms

    def target_label(self) -> str:
        if self.kind == STORE_PROBE:
            return "store"
        return f"{self.from_id}->{self.to_id}"


@dataclass
class AttackResult:
    """Outcome of applying one link attack to one frame."""

    deliver: Optional[bytes]
    capture: Optional[bytes] = None
    replay: Optional[Tuple[bytes, int]] = None
    detail: str = ""


def _to_bits(data: bytes) -> List[int]:
    out = []
    for byte in data:
        for i in range(7, -1, -1):
            out.append((byte >> i) & 1)
    return out


def _from_bits(bits: List[int]) -> bytes:
    usable = len(bits) - len(bits) % 8
    out = bytearray()
    for off in range(0, usable, 8):
        byte = 0
        for b in bits[off:off + 8]:
            byte = (byte << 1) | b
        out.append(byte)
    return bytes(out)


def _payload_region(data: bytes) -> Tuple[int, int]:
    """(start, length) of the payload inside a well-formed multihop frame."""
    if len(data) < HEADER_BYTES:
        raise AttackSpecError("frame too short to locate payload")
    plen = int.from_bytes(data[HEADER_BYTES - 2:HEADER_BYTES], "big")
    return HEADER_BYTES, plen


def _apply_edits(data: bytes, edits: Tuple[Tuple[int, int], ...],
                 base: int, region_len: int) -> bytes:
    out = bytearray(data)
    for off, mask in edits:
        if not 0 <= off < region_len:
            raise AttackSpecError(f"edit offset {off} outside region of "
                                  f"{region_len} bytes")
        out[base + off] ^= mask & 0xFF
    return bytes(out)


def apply(spec: AttackSpec, data: bytes) -> AttackResult:
    """Apply a link attack to in-flight bytes."""
    if spec.kind == EAVESDROP:
        return AttackResult(deliver=data, capture=bytes(data),
                            detail=events.detail(captured=True))

    if spec.kind == DROP:
        return AttackResult(deliver=None, detail=events.detail(dropped=True))

    if spec.kind == REPLAY:
        copy = bytearray(data)
        if spec.mutate_timestamp:
            # the timestamp lives inside the encrypted record, so the best an
            # attacker can do is perturb cipher bytes; flip one in the
            # time half of the record region
            start, plen = _payload_region(data)
            tail = start + plen
            if len(copy) < tail + WATERMARK_BYTES:
                raise AttackSpecError("frame carries no watermark to mutate")
            copy[tail + 7] ^= 0x01
        return AttackResult(deliver=data, capture=bytes(data),
                            replay=(bytes(copy), spec.delay_ms),
                            detail=events.detail(
                                delay=spec.delay_ms,
                                mutated=bool(spec.mutate_timestamp)))

    if spec.kind == INSERT_BITS:
        bits = _to_bits(data)
        off = spec.offset_bits
        if off is None or not 0 <= off <= len(bits):
            raise AttackSpecError(f"insert offset {off} outside 0..{len(bits)}")
        mutated = bits[:off] + list(spec.bits) + bits[off:]
        return AttackResult(deliver=_from_bits(mutated),
                            detail=events.detail(offset=off,
                                                 n=len(spec.bits)))

    if spec.kind == DELETE_BITS:
        bits = _to_bits(data)
        off = len(bits) - spec.q if spec.offset_bits is None else spec.offset_bits
        if not 0 <= off or off + spec.q > len(bits):
            raise AttackSpecError(
                f"delete range {off}+{spec.q} outside {len(bits)} bits"
            )
        mutated = bits[:off] + bits[off + spec.q:]
        return AttackResult(deliver=_from_bits(mutated),
                            detail=events.detail(offset=off, q=spec.q))

    if spec.kind == MODIFY_PAYLOAD:
        start, plen = _payload_region(data)
        return AttackResult(deliver=_apply_edits(data, spec.edits, start, plen),
                            detail=events.detail(edits=len(spec.edits)))

    if spec.kind == MODIFY_WATERMARK:
        start, plen = _payload_region(data)
        tail = start + plen
        if len(data) != tail + WATERMARK_BYTES:
            raise AttackSpecError("frame carries no watermark tail")
        return AttackResult(
            deliver=_apply_edits(data, spec.edits, tail, WATERMARK_BYTES),
            detail=events.detail(edits=len(spec.edits)),
        )

    raise AttackSpecError(f"{spec.kind} is not a link attack")


def build_fake_frame(spec: AttackSpec, now_s: int, seq: int) -> bytes:
    """Forge a well-formed frame under the attacker's own key.

    The hash part is honest (the attacker knows its payload), so only the
    provenance checks can catch it.
    """
    sw = FeatureSubWatermark(bytes(spec.ip), now_s)
    key = SymmetricKey(material=spec.key_material, epoch=spec.key_epoch)
    pkt = embed(spec.payload, make_provenance_record(sw, key),
                make_hash_subwatermark(spec.payload), (spec.src, seq),
                hop=spec.hop)
    return pkt.to_bytes()


def run_store_probe(spec: AttackSpec, store: ProvenanceStore,
                    source: int, sequence: int) -> str:
    """Attempt an unauthorized full retrieval; returns the observed result."""
    try:
        store.query_all(source, sequence, by=spec.caller_id)
    except AuthorizationError:
        return "authorization_error"
    except MissingRecordError:
        return "missing_record"
    except OneRetrievalError:
        return "one_retrieval_violation"
    return "retrieved"
