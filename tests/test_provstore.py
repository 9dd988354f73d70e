"""Store semantics: authorization, hop contiguity, one-time retrieval,
whole-set deletion, and the journal format."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zircon import events
from zircon.provstore import (
    AuthorizationError,
    MissingRecordError,
    OneRetrievalError,
    ProvenanceKey,
    ProvenanceStore,
    SequencingError,
)


def cipher(tag: int) -> bytes:
    return bytes([tag]) * 16


@pytest.fixture
def populated():
    s = ProvenanceStore(clock=lambda: 42)
    s.register_node(1)
    s.register_node(2)
    s.register_gateway(9)
    s.store(ProvenanceKey(1, 1, 1), cipher(0xAA), 0, by=1)
    s.store(ProvenanceKey(1, 1, 2), cipher(0xBB), 0, by=2)
    return s


def test_store_requires_registration(store):
    with pytest.raises(AuthorizationError):
        store.store(ProvenanceKey(1, 1, 1), cipher(1), 0, by=5)
    store.register_node(5)
    store.store(ProvenanceKey(1, 1, 1), cipher(1), 0, by=5)
    # gateway registration alone does not grant store rights
    store.register_gateway(9)
    with pytest.raises(AuthorizationError):
        store.store(ProvenanceKey(1, 1, 2), cipher(2), 0, by=9)


def test_hop_contiguity(store):
    store.register_node(1)
    with pytest.raises(SequencingError):
        store.store(ProvenanceKey(1, 1, 2), cipher(1), 0, by=1)  # must start at 1
    store.store(ProvenanceKey(1, 1, 1), cipher(1), 0, by=1)
    with pytest.raises(SequencingError):
        store.store(ProvenanceKey(1, 1, 1), cipher(2), 0, by=1)  # duplicate hop
    with pytest.raises(SequencingError):
        store.store(ProvenanceKey(1, 1, 3), cipher(3), 0, by=1)  # gap
    store.store(ProvenanceKey(1, 1, 2), cipher(2), 0, by=1)
    assert store.record_count(1, 1) == 2


def test_hop_index_starts_at_one(store):
    store.register_node(1)
    with pytest.raises(ValueError):  # SequencingError is one
        store.store(ProvenanceKey(1, 1, 0), cipher(1), 0, by=1)
    assert store.record_count(1, 1) == 0
    assert store.unretrieved() == []
    assert store.log == []


def test_query_last_returns_newest(populated):
    rec = populated.query_last(1, 1)
    assert rec.hop == 2
    assert rec.cipher == bytes([0xBB]) * 16
    assert rec.epoch == 0
    # the storing node's id is kept in the journal only
    assert events.parse(populated.log[-1]).by == 2
    with pytest.raises(MissingRecordError):
        populated.query_last(1, 2)


def test_query_all_is_gateway_only(populated):
    with pytest.raises(AuthorizationError):
        populated.query_all(1, 1, by=1)  # registered node, still not a gateway
    with pytest.raises(AuthorizationError):
        populated.query_all(1, 1, by=666)  # unknown id
    records = populated.query_all(1, 1, by=9)
    assert [r.hop for r in records] == [1, 2]


def test_one_retrieval_semantics(populated):
    populated.query_all(1, 1, by=9)
    with pytest.raises(OneRetrievalError):
        populated.query_all(1, 1, by=9)
    # point queries are exempt: the per-hop check still works afterwards
    assert populated.query_last(1, 1).hop == 2


def test_delete_all(populated):
    assert populated.delete_all(1, 1) == 2
    assert populated.record_count(1, 1) == 0
    with pytest.raises(MissingRecordError):
        populated.query_last(1, 1)
    # deleting again reports zero, never raises
    assert populated.delete_all(1, 1) == 0
    # after deletion the hop sequence restarts at 1
    populated.store(ProvenanceKey(1, 1, 1), cipher(0xCC), 0, by=1)
    assert populated.query_last(1, 1).hop == 1


def test_deletion_clears_consumed_flag(populated):
    populated.query_all(1, 1, by=9)
    populated.delete_all(1, 1)
    populated.store(ProvenanceKey(1, 1, 1), cipher(0xDD), 0, by=1)
    # a fresh set is retrievable even though the old one was consumed
    assert len(populated.query_all(1, 1, by=9)) == 1


def test_journal_lines(populated):
    populated.delete_all(1, 1)
    assert events.journal(populated.log) == [
        f"store|1|1|1|{'aa' * 16}|1|42",
        f"store|1|1|2|{'bb' * 16}|2|42",
        "delete|1|1|2|42",
    ]


def test_journal_lines_land_in_the_given_log():
    log = ["emit|1|1|7|1|0"]
    s = ProvenanceStore(log=log)
    s.register_node(1)
    s.store(ProvenanceKey(1, 7, 1), cipher(1), 0, by=1)
    s.delete_all(1, 7)
    assert s.log is log
    assert len(log) == 3
    assert events.journal(log) == log[1:]


def test_unretrieved_sets_and_counts(populated):
    populated.store(ProvenanceKey(2, 5, 1), cipher(1), 0, by=2)
    assert [u[:2] for u in populated.unretrieved()] == [(1, 1), (2, 5)]
    assert populated.record_count(2, 5) == 1
    populated.delete_all(2, 5)
    assert [u[:2] for u in populated.unretrieved()] == [(1, 1)]


def test_unretrieved():
    now = {"t": 0}
    s = ProvenanceStore(clock=lambda: now["t"])
    s.register_node(1)
    s.register_gateway(9)
    s.store(ProvenanceKey(1, 1, 1), cipher(1), 0, by=1)
    now["t"] = 500
    s.store(ProvenanceKey(1, 2, 1), cipher(2), 0, by=1)
    s.store(ProvenanceKey(1, 2, 2), cipher(3), 0, by=1)
    s.store(ProvenanceKey(1, 3, 1), cipher(4), 0, by=1)
    s.query_all(1, 3, by=9)  # consumed: delivered, not a drop suspect

    # every set never retrieved, oldest packet first, with its last hop
    assert s.unretrieved() == [(1, 1, 1, 0), (1, 2, 2, 500)]


@given(hops=st.integers(min_value=1, max_value=12))
@settings(max_examples=25)
def test_full_retrieval_preserves_hop_order(hops):
    s = ProvenanceStore()
    s.register_node(1)
    s.register_gateway(9)
    for h in range(1, hops + 1):
        s.store(ProvenanceKey(3, 4, h), cipher(h), 0, by=1)
    records = s.query_all(3, 4, by=9)
    assert [r.hop for r in records] == list(range(1, hops + 1))
    assert [r.cipher[0] for r in records] == list(range(1, hops + 1))


def test_stored_hash_part_retained(store):
    store.register_node(1)
    store.store(ProvenanceKey(1, 1, 1), cipher(1), 0, by=1,
                hash_part=b"12345678")
    assert store.query_last(1, 1).hash_part == b"12345678"
    store.store(ProvenanceKey(1, 2, 1), cipher(1), 0, by=1)
    assert store.query_last(1, 2).hash_part is None
