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

from . import events
from .crypto import DecryptionError, SymmetricKey, decrypt_block
from .provstore import (
    MissingRecordError,
    OneRetrievalError,
    ProvenanceKey,
    ProvenanceStore,
    StoredRecord,
)
from .watermark import (
    FeatureSubWatermark,
    Frame,
    FrameError,
    embed,
    embed_bare,
    extract,
    extract_bare,
    format_ip,
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


# a verdict is the record its event line parses back to: (node, src, seq,
# hop, outcome, time), with None for an id the frame did not yield
VerificationVerdict = events.Verdict


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


class _Node:
    """State every role holds: its identity, the shared key ring, and the
    provenance store."""

    role = ""

    def __init__(self, identity: NodeIdentity, keyring: KeyRing,
                 store: ProvenanceStore):
        if identity.role != self.role:
            raise ValueError(f"{type(self).__name__} needs an identity with "
                             f"role {self.role!r}")
        self.identity = identity
        self.keyring = keyring
        self.store = store

    def _new_record(self, now_ms: int) -> Tuple[bytes, int]:
        """This node's feature record, stamped with now in whole seconds and
        sealed under the current key: (cipher, key epoch)."""
        key = self.keyring.current
        sw = FeatureSubWatermark(self.identity.ip, now_ms // 1000)
        return make_provenance_record(sw, key), key.epoch


class _Verifier(_Node):
    """The checks intermediates and the gateway share."""

    def _verdict(self, outcome: str, src: Optional[int], seq: Optional[int],
                 hop: Optional[int], now_ms: int) -> VerificationVerdict:
        return VerificationVerdict(self.identity.id, src, seq, hop, outcome,
                                   now_ms)

    def _fail(self, outcome: str, src: Optional[int], seq: Optional[int],
              hop: Optional[int], now_ms: int) -> Tuple[VerificationVerdict, None]:
        """Discard the packet: delete its stored records, when the frame
        still names a packet, and report what failed."""
        if src is not None and seq is not None:
            self.store.delete_all(src, seq)
        return self._verdict(outcome, src, seq, hop, now_ms), None

    def _check_hop(self, data: bytes, now_ms: int
                   ) -> Tuple[Optional[VerificationVerdict],
                              Optional[Frame]]:
        """Parse a multi-hop frame, check its payload against the carried
        hash part, and its hop and cipher against the newest stored record.
        Returns (None, packet) when every check passed, else (verdict, None)."""
        try:
            pkt = extract(data)
        except FrameError as err:
            return self._fail(FRAME_FAIL, err.src, err.seq, err.hop, now_ms)
        if make_hash_subwatermark(pkt.payload) != pkt.hash_part:
            return self._fail(INTEGRITY_FAIL, pkt.src, pkt.seq, pkt.hop, now_ms)
        try:
            last = self.store.query_last(pkt.src, pkt.seq)
        except MissingRecordError:
            # nothing stored to burn
            return self._verdict(MISSING_RECORD, pkt.src, pkt.seq, pkt.hop,
                                 now_ms), None
        if last.key.hop != pkt.hop or last.cipher != pkt.cipher:
            return self._fail(PROVENANCE_FAIL, pkt.src, pkt.seq, pkt.hop, now_ms)
        return None, pkt


class SourceNode(_Node):
    role = ROLE_SOURCE

    def __init__(self, identity: NodeIdentity, keyring: KeyRing,
                 store: ProvenanceStore):
        super().__init__(identity, keyring, store)
        self.next_seq = 1

    def emit_multihop(self, payload: bytes, now_ms: int) -> Frame:
        cipher, epoch = self._new_record(now_ms)
        hash_part = make_hash_subwatermark(payload)
        seq = self.next_seq
        # build the frame first: a header field that does not fit raises
        # before any record is stored
        packet = embed(payload, cipher, hash_part, (self.identity.id, seq),
                       hop=1)
        self.store.store(ProvenanceKey(self.identity.id, seq, 1), cipher,
                         epoch, by=self.identity.id)
        self.next_seq += 1
        return packet

    def emit_singlehop(self, payload: bytes, now_ms: int) -> Frame:
        """Store the full watermark (record plus hash part) and send only
        the bare payload frame."""
        cipher, epoch = self._new_record(now_ms)
        hash_part = make_hash_subwatermark(payload)
        seq = self.next_seq
        packet = embed_bare(payload, (self.identity.id, seq), hop=1)
        self.store.store(ProvenanceKey(self.identity.id, seq, 1), cipher,
                         epoch, by=self.identity.id, hash_part=hash_part)
        self.next_seq += 1
        return packet


class IntermediateNode(_Verifier):
    role = ROLE_INTERMEDIATE

    def process(self, data: bytes, now_ms: int
                ) -> Tuple[VerificationVerdict, Optional[Frame]]:
        verdict, pkt = self._check_hop(data, now_ms)
        if verdict is not None:
            return verdict, None

        # verified: re-watermark with own identity and receive time; the
        # hash part is carried through unchanged
        cipher, epoch = self._new_record(now_ms)
        next_hop = pkt.hop + 1
        self.store.store(ProvenanceKey(pkt.src, pkt.seq, next_hop), cipher,
                         epoch, by=self.identity.id)
        forwarded = embed(pkt.payload, cipher, pkt.hash_part,
                          (pkt.src, pkt.seq), next_hop)
        return self._verdict(ACCEPTED, pkt.src, pkt.seq, pkt.hop,
                             now_ms), forwarded


class GatewayNode(_Verifier):
    role = ROLE_GATEWAY

    def __init__(self, identity: NodeIdentity, keyring: KeyRing,
                 store: ProvenanceStore, registry: Dict[int, NodeIdentity],
                 freshness_s: int = 60, purge_on_delivery: bool = True):
        super().__init__(identity, keyring, store)
        self.registry = registry
        self.freshness_s = freshness_s
        self.purge_on_delivery = purge_on_delivery

    def _decrypt_record(self, rec: StoredRecord
                        ) -> Optional[FeatureSubWatermark]:
        """Decrypt one stored record under the key of its own epoch; None
        means the record cannot have come from a registered node."""
        key = self.keyring.get(rec.epoch)
        if key is None:
            return None
        try:
            plain = decrypt_block(key, rec.cipher)
        except DecryptionError:
            return None
        return FeatureSubWatermark.from_bytes(plain)

    def _accept(self, pkt, first: FeatureSubWatermark, path: ProvenancePath,
                now_ms: int
                ) -> Tuple[VerificationVerdict, Optional[ProvenancePath]]:
        """The last checks of both profiles: the first decrypted record
        names the packet's registered source, and its capture time is inside
        the freshness window.  Then the path is out and the set purged."""
        source = self.registry.get(pkt.src)
        if source is None or not source.registered or source.ip != first.ip:
            return self._fail(PROVENANCE_FAIL, pkt.src, pkt.seq, pkt.hop, now_ms)

        if now_ms // 1000 - first.capture_time > self.freshness_s:
            return self._fail(STALE_TIMESTAMP, pkt.src, pkt.seq, pkt.hop, now_ms)

        if self.purge_on_delivery:
            self.store.delete_all(pkt.src, pkt.seq)
        return self._verdict(ACCEPTED, pkt.src, pkt.seq, pkt.hop, now_ms), path

    def verify_multihop(self, data: bytes, now_ms: int
                        ) -> Tuple[VerificationVerdict, Optional[ProvenancePath]]:
        verdict, pkt = self._check_hop(data, now_ms)
        if verdict is not None:
            return verdict, None

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
            sw = self._decrypt_record(rec)
            if sw is None:
                return self._fail(PROVENANCE_FAIL, pkt.src, pkt.seq, pkt.hop,
                                  now_ms)
            features.append(sw)
        path = [(format_ip(sw.ip), sw.capture_time) for sw in features]
        return self._accept(pkt, features[0], path, now_ms)

    def verify_singlehop(self, data: bytes, now_ms: int
                         ) -> Tuple[VerificationVerdict, Optional[ProvenancePath]]:
        """Verify a bare frame against the watermark the source left behind:
        regenerate the hash part from the received payload, compare with the
        stored one, then decrypt and validate the stored feature record."""
        try:
            pkt = extract_bare(data)
        except FrameError as err:
            return self._fail(FRAME_FAIL, err.src, err.seq, err.hop, now_ms)

        try:
            records = self.store.query_all(pkt.src, pkt.seq, by=self.identity.id)
        except (MissingRecordError, OneRetrievalError):
            return self._verdict(MISSING_RECORD, pkt.src, pkt.seq, pkt.hop,
                                 now_ms), None

        stored = records[-1]
        if len(records) != 1 or stored.hash_part is None:
            return self._fail(PROVENANCE_FAIL, pkt.src, pkt.seq, pkt.hop, now_ms)

        if make_hash_subwatermark(pkt.payload) != stored.hash_part:
            return self._fail(INTEGRITY_FAIL, pkt.src, pkt.seq, pkt.hop, now_ms)

        sw = self._decrypt_record(stored)
        if sw is None:
            return self._fail(PROVENANCE_FAIL, pkt.src, pkt.seq, pkt.hop, now_ms)
        return self._accept(pkt, sw, [(format_ip(sw.ip), sw.capture_time)],
                            now_ms)
