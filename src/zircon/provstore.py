"""Tamper-proof provenance database.

One trusted store serves the whole network.  It offers append, point query,
one-time full retrieval, and whole-set deletion; there is deliberately no way
to mutate a stored record in place.  Access is gated by an id registration
table: only registered nodes may store, only registered gateways may pull a
full set, and each packet's set can be pulled exactly once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from . import events


class AuthorizationError(PermissionError):
    """Caller id is not allowed to perform the operation."""


class SequencingError(ValueError):
    """Stored hop indices must stay contiguous from 1."""


class MissingRecordError(LookupError):
    """No stored records for the requested packet."""


class OneRetrievalError(RuntimeError):
    """The full set for this packet was already retrieved once."""


@dataclass(frozen=True)
class ProvenanceKey:
    source: int
    sequence: int
    hop: int

    def __post_init__(self) -> None:
        if self.hop < 1:
            raise ValueError("hop index starts at 1")


@dataclass(frozen=True)
class StoredRecord:
    key: ProvenanceKey
    cipher: bytes  # the 16-byte encrypted feature record
    epoch: int  # the key epoch that encrypted it; not on the wire
    by: int
    time: int
    # single-hop emitters keep the full watermark, so the truncated payload
    # digest rides along; multi-hop entries leave this None
    hash_part: Optional[bytes] = None


@dataclass
class _PacketSet:
    records: List[StoredRecord] = field(default_factory=list)
    consumed: bool = False


class ProvenanceStore:
    """Every store and delete appends its event line to `log`: the caller's
    event log when one is given (the simulator passes its own), else a
    list of the store's own."""

    def __init__(self, clock: Callable[[], int] = lambda: 0,
                 log: Optional[List[str]] = None):
        self.clock = clock
        self.log: List[str] = [] if log is None else log
        self._sets: Dict[Tuple[int, int], _PacketSet] = {}
        self._node_ids: set = set()
        self._gateway_ids: set = set()

    # -- registration ------------------------------------------------------

    def register_node(self, node_id: int) -> None:
        self._node_ids.add(node_id)

    def register_gateway(self, node_id: int) -> None:
        self._gateway_ids.add(node_id)

    # -- operations --------------------------------------------------------

    def store(self, key: ProvenanceKey, cipher: bytes, epoch: int, by: int,
              hash_part: Optional[bytes] = None) -> StoredRecord:
        if by not in self._node_ids:
            raise AuthorizationError(f"id {by} is not registered to store records")
        pset = self._sets.get((key.source, key.sequence))
        current_max = pset.records[-1].key.hop if pset and pset.records else 0
        if key.hop != current_max + 1:
            raise SequencingError(
                f"hop {key.hop} does not extend current max {current_max}"
            )
        if pset is None:
            pset = _PacketSet()
            self._sets[(key.source, key.sequence)] = pset
        rec = StoredRecord(key=key, cipher=cipher, epoch=epoch, by=by,
                           time=self.clock(), hash_part=hash_part)
        pset.records.append(rec)
        self.log.append(events.store(key.source, key.sequence, key.hop,
                                     cipher.hex(), by, rec.time))
        return rec

    def query_last(self, source: int, sequence: int) -> StoredRecord:
        pset = self._sets.get((source, sequence))
        if pset is None or not pset.records:
            raise MissingRecordError(f"no records for packet ({source},{sequence})")
        return pset.records[-1]

    def query_all(self, source: int, sequence: int, by: int) -> List[StoredRecord]:
        if by not in self._gateway_ids:
            raise AuthorizationError(f"id {by} is not an authorized gateway")
        pset = self._sets.get((source, sequence))
        if pset is None or not pset.records:
            raise MissingRecordError(f"no records for packet ({source},{sequence})")
        if pset.consumed:
            raise OneRetrievalError(
                f"set for packet ({source},{sequence}) was already retrieved"
            )
        pset.consumed = True
        return list(pset.records)

    def delete_all(self, source: int, sequence: int) -> int:
        pset = self._sets.pop((source, sequence), None)
        count = len(pset.records) if pset else 0
        self.log.append(events.delete(source, sequence, count, self.clock()))
        return count

    # -- introspection (read-only; used by reports and the drop sweep) -----

    def record_count(self, source: int, sequence: int) -> int:
        pset = self._sets.get((source, sequence))
        return len(pset.records) if pset else 0

    def packet_ids(self) -> List[Tuple[int, int]]:
        return [key for key, pset in self._sets.items() if pset.records]

    def sweep_stale(self, now: int, timeout_ms: int) -> List[Tuple[int, int, int, int]]:
        """Packets whose newest record has sat longer than timeout_ms without
        the set being retrieved.  Returns (source, sequence, last hop,
        last store time) per suspect; the last hop localizes a drop."""
        suspects = []
        for (src, seq), pset in sorted(self._sets.items()):
            if pset.consumed or not pset.records:
                continue
            last = pset.records[-1]
            if now - last.time > timeout_ms:
                suspects.append((src, seq, last.key.hop, last.time))
        return suspects
