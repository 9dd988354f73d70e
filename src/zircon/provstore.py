"""Tamper-proof provenance database.

One trusted store serves the whole network.  It offers append, point query,
one-time full retrieval, and whole-set deletion; there is deliberately no way
to mutate a stored record in place.  Access is gated by an id registration
table: only registered nodes may store, only registered gateways may pull a
full set, and each packet's set can be pulled exactly once.

The records are plain named tuples, one per hop, keyed by their set's
(source, sequence).  The store guarantees hop contiguity: every set holds
hops 1..n, as `store` accepts only the hop after the newest stored one.
"""
from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from . import events


class AuthorizationError(PermissionError):
    """Caller id is not allowed to perform the operation."""


class SequencingError(ValueError):
    """Stored hop indices must stay contiguous from 1."""


class MissingRecordError(LookupError):
    """No stored records for the requested packet."""


class OneRetrievalError(RuntimeError):
    """The full set for this packet was already retrieved once."""


class StoredRecord(NamedTuple):
    hop: int  # from 1; the store accepts only max + 1
    cipher: bytes  # the 16-byte encrypted feature record
    epoch: int  # the key epoch that encrypted it; not on the wire
    time: int  # the storing node's now_ms
    # single-hop emitters keep the full watermark, so the truncated payload
    # digest rides along; multi-hop entries leave this None
    hash_part: Optional[bytes] = None


class ProvenanceStore:
    """A node hands `store` the record it built, time included, and the store
    appends that record; `delete_all` takes its time as `now_ms`.  Both add
    their event line to the caller's `log`."""

    def __init__(self, log: List[str]):
        self.log = log
        # a packet's records in hop order; a set exists only while it holds
        # at least one record
        self._sets: Dict[Tuple[int, int], List[StoredRecord]] = {}
        self._consumed: set = set()  # packets whose set was retrieved
        self._node_ids: set = set()
        self._gateway_ids: set = set()

    # -- registration ------------------------------------------------------

    def register_node(self, node_id: int) -> None:
        self._node_ids.add(node_id)

    def register_gateway(self, node_id: int) -> None:
        self._gateway_ids.add(node_id)

    # -- operations --------------------------------------------------------

    def store(self, record: StoredRecord, src: int, seq: int, by: int) -> None:
        """Append the record node `by` built, as is, to (src, seq)'s set."""
        if by not in self._node_ids:
            raise AuthorizationError(f"id {by} is not registered to store records")
        records = self._sets.get((src, seq))
        current_max = records[-1].hop if records else 0
        if record.hop != current_max + 1:
            raise SequencingError(
                f"hop {record.hop} does not extend current max {current_max}"
            )
        if records is None:
            records = self._sets[(src, seq)] = []
        records.append(record)
        self.log.append(events.store(src, seq, record.hop, record.cipher.hex(),
                                     by, record.time))

    def query_last(self, source: int, sequence: int) -> StoredRecord:
        records = self._sets.get((source, sequence))
        if records is None:
            raise MissingRecordError(f"no records for packet ({source},{sequence})")
        return records[-1]

    def query_all(self, source: int, sequence: int, by: int) -> List[StoredRecord]:
        if by not in self._gateway_ids:
            raise AuthorizationError(f"id {by} is not an authorized gateway")
        packet = (source, sequence)
        records = self._sets.get(packet)
        if records is None:
            raise MissingRecordError(f"no records for packet ({source},{sequence})")
        if packet in self._consumed:
            raise OneRetrievalError(
                f"set for packet ({source},{sequence}) was already retrieved"
            )
        self._consumed.add(packet)
        return list(records)

    def delete_all(self, source: int, sequence: int, now_ms: int) -> int:
        records = self._sets.pop((source, sequence), ())
        self._consumed.discard((source, sequence))
        self.log.append(events.delete(source, sequence, len(records), now_ms))
        return len(records)

    # -- introspection (read-only; used by reports) ------------------------

    def record_count(self, source: int, sequence: int) -> int:
        return len(self._sets.get((source, sequence), ()))

    def unretrieved(self) -> List[Tuple[int, int, int, int]]:
        """Every packet whose set was never retrieved, in packet order, as
        (source, sequence, last hop, last store time); the last hop
        localizes a drop."""
        return [(src, seq, records[-1].hop, records[-1].time)
                for (src, seq), records in sorted(self._sets.items())
                if (src, seq) not in self._consumed]
