"""Protocol state machines for the three node roles.

Sources generate and store a fresh provenance record per packet, then either
send the bare payload (single-hop profile, the watermark stays home) or embed
the full watermark (multi-hop).  Intermediates verify integrity against the
carried hash part and provenance against the stored record, then re-watermark
with their own identity and receive time, keeping the hash part unchanged.
The gateway re-runs both checks, pulls the whole record set once, decrypts it
per-epoch, validates origin, freshness, and hop contiguity, and reconstructs
the path.

Any failed check follows the same procedure: discard the packet, delete the
packet's stored records, and emit a verdict describing what failed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .crypto import DecryptionError, SymmetricKey, decrypt_block
from .provstore import (
    MissingRecordError,
    OneRetrievalError,
    ProvenanceKey,
    ProvenanceStore,
)
from .watermark import (
    BarePacket,
    FeatureSubWatermark,
    FrameError,
    WatermarkedPacket,
    assemble_watermark,
    embed,
    embed_bare,
    extract,
    extract_bare,
    format_ip,
    make_feature_subwatermark,
    make_hash_subwatermark,
    make_provenance_record,
)

ROLE_SOURCE = "source"
ROLE_INTERMEDIATE = "intermediate"
ROLE_GATEWAY = "gateway"
ROLES = (ROLE_SOURCE, ROLE_INTERMEDIATE, ROLE_GATEWAY)

ACCEPTED = "accepted"
INTEGRITY_FAIL = "integrity_fail"
PROVENANCE_FAIL = "provenance_fail"
FRAME_FAIL = "frame_fail"
STALE_TIMESTAMP = "stale_timestamp"
MISSING_RECORD = "missing_record"

OUTCOMES = (ACCEPTED, INTEGRITY_FAIL, PROVENANCE_FAIL, FRAME_FAIL,
            STALE_TIMESTAMP, MISSING_RECORD)

# (dotted ip, capture/receive time in seconds) per hop, in hop order
ProvenancePath = List[Tuple[str, int]]


@dataclass(frozen=True)
class NodeIdentity:
    id: int
    ip: bytes
    role: str
    registered: bool = True

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if len(self.ip) != 4:
            raise ValueError("node ip must be 4 bytes")


@dataclass(frozen=True)
class VerificationVerdict:
    outcome: str
    node: int
    src: Optional[int]
    seq: Optional[int]
    hop: Optional[int]
    time: int

    def line(self) -> str:
        def fmt(v: Optional[int]) -> str:
            return "-" if v is None else str(v)

        return (f"verdict|{self.node}|{fmt(self.src)}|{fmt(self.seq)}|"
                f"{fmt(self.hop)}|{self.outcome}|{self.time}")


class KeyRing:
    """Shared symmetric keys indexed by rotation epoch.

    All registered nodes hold the same ring; historical epochs stay
    available so records stored before a rotation still decrypt.
    """

    def __init__(self, initial: SymmetricKey):
        self._keys: Dict[int, SymmetricKey] = {initial.epoch: initial}
        self.current = initial

    def add(self, key: SymmetricKey) -> None:
        if key.epoch <= self.current.epoch:
            raise ValueError("key epoch must strictly increase")
        self._keys[key.epoch] = key
        self.current = key

    def get(self, epoch: int) -> Optional[SymmetricKey]:
        return self._keys.get(epoch)

    def epochs(self) -> List[int]:
        return sorted(self._keys)


def rotate_keys(ring: KeyRing, rng: random.Random) -> SymmetricKey:
    """Install a fresh key at the next epoch and return it."""
    key = SymmetricKey(material=rng.randbytes(16), epoch=ring.current.epoch + 1)
    ring.add(key)
    return key


class SourceNode:
    def __init__(self, identity: NodeIdentity, keyring: KeyRing,
                 store: ProvenanceStore):
        if identity.role != ROLE_SOURCE:
            raise ValueError("SourceNode needs a source identity")
        self.identity = identity
        self.keyring = keyring
        self.store = store
        self.next_seq = 1

    def _new_record(self, now_ms: int):
        sw = make_feature_subwatermark(self.identity.ip, now_ms // 1000)
        return make_provenance_record(sw, self.keyring.current)

    def emit_multihop(self, payload: bytes, now_ms: int) -> WatermarkedPacket:
        record = self._new_record(now_ms)
        hash_part = make_hash_subwatermark(payload)
        seq = self.next_seq
        # build the frame first: a header field that does not fit raises
        # before any record is stored
        packet = embed(payload, assemble_watermark(record, hash_part),
                       (self.identity.id, seq), hop=1)
        self.store.store(ProvenanceKey(self.identity.id, seq, 1), record,
                         by=self.identity.id)
        self.next_seq += 1
        return packet

    def emit_singlehop(self, payload: bytes, now_ms: int) -> BarePacket:
        """Store the full watermark (record plus hash part) and send only
        the bare payload frame."""
        record = self._new_record(now_ms)
        hash_part = make_hash_subwatermark(payload)
        seq = self.next_seq
        packet = embed_bare(payload, (self.identity.id, seq), hop=1)
        self.store.store(ProvenanceKey(self.identity.id, seq, 1), record,
                         by=self.identity.id, hash_part=bytes(hash_part))
        self.next_seq += 1
        return packet


class IntermediateNode:
    def __init__(self, identity: NodeIdentity, keyring: KeyRing,
                 store: ProvenanceStore):
        if identity.role != ROLE_INTERMEDIATE:
            raise ValueError("IntermediateNode needs an intermediate identity")
        self.identity = identity
        self.keyring = keyring
        self.store = store

    def _verdict(self, outcome: str, src: Optional[int], seq: Optional[int],
                 hop: Optional[int], now_ms: int) -> VerificationVerdict:
        return VerificationVerdict(outcome=outcome, node=self.identity.id,
                                   src=src, seq=seq, hop=hop, time=now_ms)

    def process(self, data: bytes, now_ms: int
                ) -> Tuple[VerificationVerdict, Optional[WatermarkedPacket]]:
        try:
            pkt = extract(data)
        except FrameError as err:
            if err.src is not None and err.seq is not None:
                self.store.delete_all(err.src, err.seq)
            return self._verdict(FRAME_FAIL, err.src, err.seq, err.hop,
                                 now_ms), None

        expected = make_hash_subwatermark(pkt.payload)
        if bytes(expected) != bytes(pkt.watermark.hash_part):
            self.store.delete_all(pkt.src, pkt.seq)
            return self._verdict(INTEGRITY_FAIL, pkt.src, pkt.seq, pkt.hop,
                                 now_ms), None

        try:
            last = self.store.query_last(pkt.src, pkt.seq)
        except MissingRecordError:
            return self._verdict(MISSING_RECORD, pkt.src, pkt.seq, pkt.hop,
                                 now_ms), None
        if (last.key.hop != pkt.hop
                or last.value.cipher != pkt.watermark.record.cipher):
            self.store.delete_all(pkt.src, pkt.seq)
            return self._verdict(PROVENANCE_FAIL, pkt.src, pkt.seq, pkt.hop,
                                 now_ms), None

        # verified: re-watermark with own identity and receive time; the
        # hash part is carried through unchanged
        sw = make_feature_subwatermark(self.identity.ip, now_ms // 1000)
        record = make_provenance_record(sw, self.keyring.current)
        next_hop = pkt.hop + 1
        self.store.store(ProvenanceKey(pkt.src, pkt.seq, next_hop), record,
                         by=self.identity.id)
        forwarded = embed(pkt.payload,
                          assemble_watermark(record, pkt.watermark.hash_part),
                          (pkt.src, pkt.seq), next_hop)
        return self._verdict(ACCEPTED, pkt.src, pkt.seq, pkt.hop,
                             now_ms), forwarded


class GatewayNode:
    def __init__(self, identity: NodeIdentity, keyring: KeyRing,
                 store: ProvenanceStore, registry: Dict[int, NodeIdentity],
                 freshness_s: int = 60, purge_on_delivery: bool = True):
        if identity.role != ROLE_GATEWAY:
            raise ValueError("GatewayNode needs a gateway identity")
        self.identity = identity
        self.keyring = keyring
        self.store = store
        self.registry = registry
        self.freshness_s = freshness_s
        self.purge_on_delivery = purge_on_delivery

    def _verdict(self, outcome: str, src: Optional[int], seq: Optional[int],
                 hop: Optional[int], now_ms: int) -> VerificationVerdict:
        return VerificationVerdict(outcome=outcome, node=self.identity.id,
                                   src=src, seq=seq, hop=hop, time=now_ms)

    def _fail(self, outcome: str, src: int, seq: int, hop: int, now_ms: int
              ) -> Tuple[VerificationVerdict, None]:
        self.store.delete_all(src, seq)
        return self._verdict(outcome, src, seq, hop, now_ms), None

    def _decrypt_record(self, value) -> Optional[FeatureSubWatermark]:
        """Decrypt one stored record under the key of its own epoch; None
        means the record cannot have come from a registered node."""
        if value.key_epoch is None:
            return None
        key = self.keyring.get(value.key_epoch)
        if key is None:
            return None
        try:
            plain = decrypt_block(key, value.cipher)
        except DecryptionError:
            return None
        return FeatureSubWatermark.from_bytes(plain)

    def _origin_ok(self, src: int, source_ip: bytes) -> bool:
        origin = self.registry.get(src)
        return (origin is not None and origin.registered
                and origin.ip == source_ip)

    def verify_multihop(self, data: bytes, now_ms: int
                        ) -> Tuple[VerificationVerdict, Optional[ProvenancePath]]:
        try:
            pkt = extract(data)
        except FrameError as err:
            if err.src is not None and err.seq is not None:
                self.store.delete_all(err.src, err.seq)
            return self._verdict(FRAME_FAIL, err.src, err.seq, err.hop,
                                 now_ms), None

        expected = make_hash_subwatermark(pkt.payload)
        if bytes(expected) != bytes(pkt.watermark.hash_part):
            return self._fail(INTEGRITY_FAIL, pkt.src, pkt.seq, pkt.hop, now_ms)

        try:
            last = self.store.query_last(pkt.src, pkt.seq)
        except MissingRecordError:
            return self._verdict(MISSING_RECORD, pkt.src, pkt.seq, pkt.hop,
                                 now_ms), None
        if (last.key.hop != pkt.hop
                or last.value.cipher != pkt.watermark.record.cipher):
            return self._fail(PROVENANCE_FAIL, pkt.src, pkt.seq, pkt.hop, now_ms)

        try:
            records = self.store.query_all(pkt.src, pkt.seq, by=self.identity.id)
        except (MissingRecordError, OneRetrievalError):
            # the set vanished or was already pulled: treat as replay evidence
            return self._verdict(MISSING_RECORD, pkt.src, pkt.seq, pkt.hop,
                                 now_ms), None

        hops = [rec.key.hop for rec in records]
        if hops != list(range(1, len(records) + 1)) or len(records) != pkt.hop:
            return self._fail(PROVENANCE_FAIL, pkt.src, pkt.seq, pkt.hop, now_ms)

        features = []
        for rec in records:
            sw = self._decrypt_record(rec.value)
            if sw is None:
                return self._fail(PROVENANCE_FAIL, pkt.src, pkt.seq, pkt.hop,
                                  now_ms)
            features.append(sw)

        if not self._origin_ok(pkt.src, features[0].ip):
            return self._fail(PROVENANCE_FAIL, pkt.src, pkt.seq, pkt.hop, now_ms)

        if now_ms // 1000 - features[0].capture_time > self.freshness_s:
            return self._fail(STALE_TIMESTAMP, pkt.src, pkt.seq, pkt.hop, now_ms)

        path = [(format_ip(sw.ip), sw.capture_time) for sw in features]
        if self.purge_on_delivery:
            self.store.delete_all(pkt.src, pkt.seq)
        return self._verdict(ACCEPTED, pkt.src, pkt.seq, pkt.hop, now_ms), path

    def verify_singlehop(self, data: bytes, now_ms: int
                         ) -> Tuple[VerificationVerdict, Optional[ProvenancePath]]:
        """Verify a bare frame against the watermark the source left behind:
        regenerate the hash part from the received payload, compare with the
        stored one, then decrypt and validate the stored feature record."""
        try:
            pkt = extract_bare(data)
        except FrameError as err:
            if err.src is not None and err.seq is not None:
                self.store.delete_all(err.src, err.seq)
            return self._verdict(FRAME_FAIL, err.src, err.seq, err.hop,
                                 now_ms), None

        try:
            records = self.store.query_all(pkt.src, pkt.seq, by=self.identity.id)
        except (MissingRecordError, OneRetrievalError):
            return self._verdict(MISSING_RECORD, pkt.src, pkt.seq, pkt.hop,
                                 now_ms), None

        stored = records[-1]
        if len(records) != 1 or stored.hash_part is None:
            return self._fail(PROVENANCE_FAIL, pkt.src, pkt.seq, pkt.hop, now_ms)

        regenerated = make_hash_subwatermark(pkt.payload)
        if bytes(regenerated) != stored.hash_part:
            return self._fail(INTEGRITY_FAIL, pkt.src, pkt.seq, pkt.hop, now_ms)

        sw = self._decrypt_record(stored.value)
        if sw is None or not self._origin_ok(pkt.src, sw.ip):
            return self._fail(PROVENANCE_FAIL, pkt.src, pkt.seq, pkt.hop, now_ms)

        if now_ms // 1000 - sw.capture_time > self.freshness_s:
            return self._fail(STALE_TIMESTAMP, pkt.src, pkt.seq, pkt.hop, now_ms)

        path = [(format_ip(sw.ip), sw.capture_time)]
        if self.purge_on_delivery:
            self.store.delete_all(pkt.src, pkt.seq)
        return self._verdict(ACCEPTED, pkt.src, pkt.seq, pkt.hop, now_ms), path
