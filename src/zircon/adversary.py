"""Executable threat model.

Attacks are declarative records, one class per kind, scheduled by the
simulator.  Byte- and bit-level manipulations (insert, delete, modify, drop,
eavesdrop, replay capture) are each link kind's `apply`, a pure
transformation of a frame crossing the targeted link; fake injection and
store probes are synthesized events.

Bit edits operate on the frame as a bitstream, most-significant bit first.
A receiver only ever sees whole octets, so after an edit the stream is
truncated to its largest whole-byte prefix before delivery; edits of a
non-multiple of 8 bits therefore also shorten the frame by the remainder,
and a frame shorter than a byte comes out empty.  The splice runs on the
frame read as one big-endian integer: shifts and masks cut or insert the
bits, and one `to_bytes` keeps the whole-byte prefix.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional, Tuple

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


class AttackError(ValueError):
    """An attack that cannot act on the frame `apply` is given."""


@dataclass(frozen=True, kw_only=True)
class Attack:
    """One declared attack, of the kind its class names; scenario.validate
    checks its fields."""

    kind: ClassVar[str]
    # a link attack's trigger, all given conditions to match; the other
    # kinds make src and seq the packet they name
    src: Optional[int] = None
    seq: Optional[int] = None
    after_ms: int = 0

    def matches(self, src: int, seq: int, now_ms: int) -> bool:
        if self.src is not None and src != self.src:
            return False
        if self.seq is not None and seq != self.seq:
            return False
        return now_ms >= self.after_ms


@dataclass(frozen=True, kw_only=True)
class LinkAttack(Attack):
    """An attack on the frames in flight from from_id to to_id; its kind's
    `apply` acts on each frame it matches."""

    from_id: Optional[int] = None
    to_id: Optional[int] = None

    def target_label(self) -> str:
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
        raise AttackError("frame too short to locate payload")
    plen = int.from_bytes(data[HEADER_BYTES - 2:HEADER_BYTES], "big")
    return HEADER_BYTES, plen


def _apply_edits(data: bytes, edits: Tuple[Tuple[int, int], ...],
                 base: int, region_len: int) -> bytes:
    out = bytearray(data)
    for off, mask in edits:
        if not 0 <= off < region_len:
            raise AttackError(f"edit offset {off} outside region of "
                                  f"{region_len} bytes")
        out[base + off] ^= mask
    return bytes(out)


@dataclass(frozen=True, kw_only=True)
class Eavesdrop(LinkAttack):
    kind = "eavesdrop"

    def apply(self, data: bytes) -> AttackResult:
        return AttackResult(deliver=data, detail=events.detail(captured=True))


@dataclass(frozen=True, kw_only=True)
class Replay(LinkAttack):
    kind = "replay"
    delay_ms: int = 1000
    mutate_timestamp: bool = False

    def apply(self, data: bytes) -> AttackResult:
        copy = bytearray(data)
        if self.mutate_timestamp:
            # the timestamp lives inside the encrypted record, so the best an
            # attacker can do is perturb cipher bytes; flip one in the
            # time half of the record region
            start, plen = _payload_region(data)
            tail = start + plen
            if len(copy) < tail + WATERMARK_BYTES:
                raise AttackError("frame carries no watermark to mutate")
            copy[tail + 7] ^= 0x01
        return AttackResult(deliver=data, replay=(bytes(copy), self.delay_ms),
                            detail=events.detail(
                                delay=self.delay_ms,
                                mutated=bool(self.mutate_timestamp)))


@dataclass(frozen=True, kw_only=True)
class InsertBits(LinkAttack):
    kind = "insert_bits"
    offset_bits: int
    bits: Tuple[int, ...] = ()

    def apply(self, data: bytes) -> AttackResult:
        total, off = len(data) * 8, self.offset_bits
        if not 0 <= off <= total:
            raise AttackError(f"insert offset {off} outside 0..{total}")
        return AttackResult(deliver=_splice_bits(data, off, 0, self.bits),
                            detail=events.detail(offset=off,
                                                 n=len(self.bits)))


@dataclass(frozen=True, kw_only=True)
class DeleteBits(LinkAttack):
    kind = "delete_bits"
    # None cuts the frame's last q bits
    offset_bits: Optional[int] = None
    q: int = 1

    def apply(self, data: bytes) -> AttackResult:
        total = len(data) * 8
        off = total - self.q if self.offset_bits is None else self.offset_bits
        if not 0 <= off or off + self.q > total:
            raise AttackError(
                f"delete range {off}+{self.q} outside {total} bits"
            )
        return AttackResult(deliver=_splice_bits(data, off, self.q),
                            detail=events.detail(offset=off, q=self.q))


@dataclass(frozen=True, kw_only=True)
class ModifyPayload(LinkAttack):
    kind = "modify_payload"
    # (byte offset into the payload, xor mask) pairs
    edits: Tuple[Tuple[int, int], ...] = ()

    def apply(self, data: bytes) -> AttackResult:
        start, plen = _payload_region(data)
        return AttackResult(deliver=_apply_edits(data, self.edits, start, plen),
                            detail=events.detail(edits=len(self.edits)))


@dataclass(frozen=True, kw_only=True)
class ModifyWatermark(LinkAttack):
    kind = "modify_watermark"
    # (byte offset into the watermark, xor mask) pairs
    edits: Tuple[Tuple[int, int], ...] = ()

    def apply(self, data: bytes) -> AttackResult:
        start, plen = _payload_region(data)
        tail = start + plen
        if len(data) != tail + WATERMARK_BYTES:
            raise AttackError("frame carries no watermark tail")
        return AttackResult(
            deliver=_apply_edits(data, self.edits, tail, WATERMARK_BYTES),
            detail=events.detail(edits=len(self.edits)),
        )


@dataclass(frozen=True, kw_only=True)
class Drop(LinkAttack):
    kind = "drop"

    def apply(self, data: bytes) -> AttackResult:
        return AttackResult(deliver=None, detail=events.detail(dropped=True))


@dataclass(frozen=True, kw_only=True)
class FakeInject(Attack):
    """A frame forged under the attacker's own key, src:seq the packet it
    claims to be, delivered to to_id at after_ms."""

    kind = "fake_inject"
    to_id: Optional[int] = None
    # required: field() stops the trigger's default None being inherited
    src: int = field()
    seq: int = field()
    ip: bytes
    key_material: bytes
    payload: bytes = b""
    key_epoch: int = 0
    hop: int = 1

    def target_label(self) -> str:
        # a forger crosses no link, and events.log names none
        return f"None->{self.to_id}"


@dataclass(frozen=True, kw_only=True)
class StoreProbe(Attack):
    """A full retrieval of packet src:seq's records asked by caller_id, an
    id the store should refuse, at after_ms."""

    kind = "store_probe"
    src: int = field()
    seq: int = field()
    caller_id: int

    def target_label(self) -> str:
        return "store"


# every kind, by the name a scenario gives it
ATTACKS = {cls.kind: cls for cls in (
    Eavesdrop, Replay, InsertBits, DeleteBits, ModifyPayload, ModifyWatermark,
    Drop, FakeInject, StoreProbe)}


def apply(spec: LinkAttack, data: bytes) -> AttackResult:
    """Apply a link attack to in-flight bytes."""
    return spec.apply(data)


def build_fake_frame(spec: FakeInject, now_s: int) -> bytes:
    """Forge a well-formed frame under the attacker's own key.

    The hash part is honest (the attacker knows its payload), so only the
    provenance checks can catch it.
    """
    key = SymmetricKey(material=spec.key_material, epoch=spec.key_epoch)
    return embed(spec.src, spec.seq, spec.hop, spec.payload,
                 make_provenance_record(spec.ip, now_s, key),
                 make_hash_subwatermark(spec.payload))


def run_store_probe(spec: StoreProbe, store: ProvenanceStore) -> str:
    """Attempt an unauthorized full retrieval; returns the observed result."""
    try:
        store.query_all(spec.src, spec.seq, by=spec.caller_id)
    except AuthorizationError:
        return "authorization_error"
    except MissingRecordError:
        return "missing_record"
    except OneRetrievalError:
        return "one_retrieval_violation"
    return "retrieved"
