"""Protocol state machines for the three node roles; a node's class is its
role, and each node holds its own id and ip.

Sources generate and store a fresh provenance record per packet, then either
send the bare payload (single-hop profile, the watermark stays home) or embed
the full watermark (multi-hop).  Intermediates verify integrity against the
carried hash part and provenance against the stored record, then re-watermark
with their own ip and receive time, keeping the hash part unchanged.
The gateway re-runs both checks, pulls the whole record set once (the store
keeps it contiguous from hop 1), then in one pass decrypts each record
per-epoch into a path entry, checks the origin (the claimed source must be a
registered node with the first record's ip), then freshness, and purges it.

Any failed check follows the same procedure: discard the packet, delete the
stored set its frame names, and return an `events.Verdict` naming what failed.
"""
from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple, Union

from .crypto import KEY_BYTES, DecryptionError, SymmetricKey, decrypt_block
from .events import Verdict
from .provstore import (
    MissingRecordError,
    OneRetrievalError,
    ProvenanceStore,
    StoredRecord,
)
from .watermark import (
    FEATURE,
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

# builds records and verdicts without their named tuples' Python-level __new__
_new = tuple.__new__


class KeyRing:
    """Shared symmetric keys by rotation epoch; the ring rotates itself.

    All registered nodes hold the same ring; historical epochs stay
    available so records stored before a rotation still decrypt.
    """

    def __init__(self, initial: SymmetricKey):
        self._keys: Dict[int, SymmetricKey] = {initial.epoch: initial}
        self.current = initial

    def rotate(self, rng: random.Random) -> SymmetricKey:
        """Install a fresh key at the next epoch and return it."""
        key = self.current = SymmetricKey(rng.randbytes(KEY_BYTES),
                                          self.current.epoch + 1)
        self._keys[key.epoch] = key
        return key

    def get(self, epoch: int) -> Optional[SymmetricKey]:
        return self._keys.get(epoch)


class _Node:
    """State every role holds: its id and 4-byte ip, the shared key ring,
    and the provenance store."""

    role = ""

    def __init__(self, node_id: int, ip: bytes, keyring: KeyRing,
                 store: ProvenanceStore):
        self.id = node_id
        self.ip = ip
        self.keyring = keyring
        self.store = store

    def _new_record(self, hop: int, now_ms: int,
                    hash_part: Optional[bytes] = None) -> StoredRecord:
        """The record this node stores at `hop`: its feature record, stamped
        with now in whole seconds and sealed under the current key."""
        key = self.keyring.current
        return _new(StoredRecord, (
            hop, make_provenance_record(self.ip, now_ms // 1000, key),
            key.epoch, now_ms, hash_part))


class _Verifier(_Node):
    """The checks intermediates and the gateway share."""

    def _verdict(self, outcome: str, pkt: Union[Frame, FrameError],
                 now_ms: int) -> Verdict:
        # the record the verdict's event line parses back to: (node, src,
        # seq, hop, outcome, time), None for an id the frame did not yield
        return _new(Verdict, (self.id, pkt.src, pkt.seq, pkt.hop, outcome,
                              now_ms))

    def _fail(self, outcome: str, pkt: Union[Frame, FrameError],
              now_ms: int) -> Tuple[Verdict, None]:
        """Discard the packet, burning the set its frame still names."""
        if pkt.src is not None and pkt.seq is not None:
            self.store.delete_all(pkt.src, pkt.seq, now_ms)
        return self._verdict(outcome, pkt, now_ms), None

    def _check_hop(self, data: bytes, now_ms: int
                   ) -> Tuple[Optional[Verdict], Optional[Frame]]:
        """Parse a multi-hop frame, check its payload against the carried
        hash part, and its hop and cipher against the newest stored record.
        Returns (None, packet) when every check passed, else (verdict, None)."""
        try:
            pkt = extract(data)
        except FrameError as err:
            return self._fail(FRAME_FAIL, err, now_ms)
        if make_hash_subwatermark(pkt.payload) != pkt.hash_part:
            return self._fail(INTEGRITY_FAIL, pkt, now_ms)
        try:
            last = self.store.query_last(pkt.src, pkt.seq)
        except MissingRecordError:
            # nothing stored to burn
            return self._verdict(MISSING_RECORD, pkt, now_ms), None
        if last.hop != pkt.hop or last.cipher != pkt.cipher:
            return self._fail(PROVENANCE_FAIL, pkt, now_ms)
        return None, pkt


class SourceNode(_Node):
    role = ROLE_SOURCE
    next_seq = 1  # the next emit's seq; the first emit's += 1 makes it per node

    def emit_multihop(self, payload: bytes, now_ms: int) -> Tuple[int, bytes]:
        """Store the hop-1 record and return (seq, the frame's wire bytes)."""
        record = self._new_record(1, now_ms)
        seq = self.next_seq
        # build the frame first: a header field that does not fit raises
        # before any record is stored
        frame = embed(self.id, seq, 1, payload, record.cipher,
                      make_hash_subwatermark(payload))
        self.store.store(record, self.id, seq, self.id)
        self.next_seq += 1
        return seq, frame

    def emit_singlehop(self, payload: bytes, now_ms: int) -> Tuple[int, bytes]:
        """Store the full watermark (record plus hash part) and return (seq,
        the bare payload frame's wire bytes)."""
        record = self._new_record(1, now_ms, make_hash_subwatermark(payload))
        seq = self.next_seq
        frame = embed_bare(self.id, seq, 1, payload)
        self.store.store(record, self.id, seq, self.id)
        self.next_seq += 1
        return seq, frame


class IntermediateNode(_Verifier):
    role = ROLE_INTERMEDIATE

    def process(self, data: bytes, now_ms: int
                ) -> Tuple[Verdict, Optional[bytes]]:
        """Return (verdict, the forwarded frame's wire bytes or None)."""
        verdict, pkt = self._check_hop(data, now_ms)
        if verdict is not None:
            return verdict, None

        # verified: re-watermark with own ip and receive time, hash part
        # unchanged; the frame comes first, so a hop past 255 stores nothing
        record = self._new_record(pkt.hop + 1, now_ms)
        forwarded = embed(pkt.src, pkt.seq, record.hop, pkt.payload,
                          record.cipher, pkt.hash_part)
        self.store.store(record, pkt.src, pkt.seq, self.id)
        return self._verdict(ACCEPTED, pkt, now_ms), forwarded


class GatewayNode(_Verifier):
    role = ROLE_GATEWAY

    def __init__(self, node_id: int, ip: bytes, keyring: KeyRing,
                 store: ProvenanceStore, origins: Dict[int, bytes],
                 freshness_s: int):
        super().__init__(node_id, ip, keyring, store)
        # the ip of every registered node, by id
        self.origins = origins
        self.freshness_s = freshness_s
        # the dotted text of each ip a path has held, formatted on first
        # sight: the path entries of one node share its string
        self._ip_text: Dict[bytes, str] = {}

    def _open_set(self, pkt: Frame, records: List[StoredRecord], now_ms: int
                  ) -> Tuple[Verdict, Optional[ProvenancePath]]:
        """The set pass of both profiles.  Decrypt each record under the key
        of its own epoch straight into an (ip text, capture time) pair; a
        record that cannot have come from a registered node fails the packet
        there.  Then the first record must name the packet's registered
        source, with a capture time inside the freshness window, before the
        path is out and the set purged."""
        path: ProvenancePath = [None] * len(records)
        key_of = self.keyring.get
        for i, rec in enumerate(records):
            key = key_of(rec.epoch)
            if key is None:
                return self._fail(PROVENANCE_FAIL, pkt, now_ms)
            try:
                ip, capture_time = FEATURE.unpack(decrypt_block(key, rec.cipher))
            except DecryptionError:
                return self._fail(PROVENANCE_FAIL, pkt, now_ms)
            text = self._ip_text.get(ip)
            if text is None:
                text = self._ip_text[ip] = format_ip(ip)
            path[i] = (text, capture_time)
            if i == 0:
                first_ip = ip

        if self.origins.get(pkt.src) != first_ip:
            return self._fail(PROVENANCE_FAIL, pkt, now_ms)

        if now_ms // 1000 - path[0][1] > self.freshness_s:
            return self._fail(STALE_TIMESTAMP, pkt, now_ms)

        self.store.delete_all(pkt.src, pkt.seq, now_ms)
        return self._verdict(ACCEPTED, pkt, now_ms), path

    def verify_multihop(self, data: bytes, now_ms: int
                        ) -> Tuple[Verdict, Optional[ProvenancePath]]:
        verdict, pkt = self._check_hop(data, now_ms)
        if verdict is not None:
            return verdict, None

        try:
            records = self.store.query_all(pkt.src, pkt.seq, by=self.id)
        except (MissingRecordError, OneRetrievalError):
            # the set vanished or was already pulled: treat as replay evidence
            return self._verdict(MISSING_RECORD, pkt, now_ms), None

        return self._open_set(pkt, records, now_ms)

    def verify_singlehop(self, data: bytes, now_ms: int
                         ) -> Tuple[Verdict, Optional[ProvenancePath]]:
        """Verify a bare frame against the watermark the source left behind:
        regenerate the hash part from the received payload, compare with the
        stored one, then decrypt and validate the stored feature record."""
        try:
            pkt = extract_bare(data)
        except FrameError as err:
            return self._fail(FRAME_FAIL, err, now_ms)

        try:
            records = self.store.query_all(pkt.src, pkt.seq, by=self.id)
        except (MissingRecordError, OneRetrievalError):
            return self._verdict(MISSING_RECORD, pkt, now_ms), None

        stored = records[-1]
        if len(records) != 1 or stored.hash_part is None:
            return self._fail(PROVENANCE_FAIL, pkt, now_ms)

        if make_hash_subwatermark(pkt.payload) != stored.hash_part:
            return self._fail(INTEGRITY_FAIL, pkt, now_ms)

        return self._open_set(pkt, records, now_ms)
