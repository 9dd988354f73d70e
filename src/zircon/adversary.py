"""Executable threat model.

Attacks are declarative specs scheduled by the simulator.  Byte- and
bit-level manipulations (insert, delete, modify, drop, eavesdrop, replay
capture) are pure transformations applied while a frame crosses the targeted
link; fake injection and store probes are synthesized events.

Bit edits operate on the frame as a bitstream, most-significant bit first.
A receiver only ever sees whole octets, so after an edit the stream is
truncated to its largest whole-byte prefix before delivery; edits of a
non-multiple of 8 bits therefore also shorten the frame by the remainder,
and a frame shorter than a byte comes out empty.  The splice runs on the
frame read as one big-endian integer: shifts and masks cut or insert the
bits, and one `to_bytes` keeps the whole-byte prefix.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

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
    """An attack that cannot act on the frame `apply` is given."""


@dataclass
class AttackSpec:
    """One declared attack; scenario.validate checks its fields per kind."""

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
    replay: Optional[Tuple[bytes, int]] = None
    detail: str = ""


def _splice_bits(data: bytes, offset: int, cut: int,
                 bits: Tuple[int, ...] = ()) -> bytes:
    """`data` with `cut` bits removed at bit `offset` and `bits` put in their
    place, most-significant bit first, truncated to its largest whole-byte
    prefix.  The caller checks that the cut lies inside the frame."""
    inserted = 0
    for b in bits:
        inserted = (inserted << 1) | b
    value = int.from_bytes(data, "big")
    tail_len = len(data) * 8 - offset - cut
    head = value >> (tail_len + cut)
    tail = value & ((1 << tail_len) - 1)
    out_len = offset + len(bits) + tail_len
    spliced = (((head << len(bits)) | inserted) << tail_len) | tail
    return (spliced >> (out_len % 8)).to_bytes(out_len // 8, "big")


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
        out[base + off] ^= mask
    return bytes(out)


def apply(spec: AttackSpec, data: bytes) -> AttackResult:
    """Apply a link attack to in-flight bytes."""
    if spec.kind == EAVESDROP:
        return AttackResult(deliver=data, detail=events.detail(captured=True))

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
        return AttackResult(deliver=data, replay=(bytes(copy), spec.delay_ms),
                            detail=events.detail(
                                delay=spec.delay_ms,
                                mutated=bool(spec.mutate_timestamp)))

    if spec.kind == INSERT_BITS:
        total = len(data) * 8
        off = spec.offset_bits
        if off is None or not 0 <= off <= total:
            raise AttackSpecError(f"insert offset {off} outside 0..{total}")
        return AttackResult(deliver=_splice_bits(data, off, 0, spec.bits),
                            detail=events.detail(offset=off,
                                                 n=len(spec.bits)))

    if spec.kind == DELETE_BITS:
        total = len(data) * 8
        off = total - spec.q if spec.offset_bits is None else spec.offset_bits
        if not 0 <= off or off + spec.q > total:
            raise AttackSpecError(
                f"delete range {off}+{spec.q} outside {total} bits"
            )
        return AttackResult(deliver=_splice_bits(data, off, spec.q),
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
    key = SymmetricKey(material=spec.key_material, epoch=spec.key_epoch)
    return embed(spec.src, seq, spec.hop, spec.payload,
                 make_provenance_record(spec.ip, now_s, key),
                 make_hash_subwatermark(spec.payload))


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
