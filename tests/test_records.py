"""The records built with tuple.__new__ (a hop's frames, stored records and
verdicts, and the report's packets and their verdicts) hold every field of
their class, in order: each equals the record its class's own constructor
builds from the fields by name."""
import pytest

from tests.conftest import build_chain
from zircon import events, netsim
from zircon.adversary import Drop
from zircon.nodes import (
    ACCEPTED,
    FRAME_FAIL,
    INTEGRITY_FAIL,
    MISSING_RECORD,
    PROVENANCE_FAIL,
)
from zircon.provstore import ProvenanceStore, StoredRecord
from zircon.scenario import NodeSpec, ScenarioConfig, TrafficSpec
from zircon.watermark import (
    Frame,
    FrameError,
    embed,
    embed_bare,
    extract,
    extract_bare,
    make_hash_subwatermark,
)

PAYLOAD = b"shape of a record"
CIPHER = bytes(range(16))
HASH_PART = bytes(range(100, 108))
# a store time no other field of the records below holds
NOW_MS = 7777


def assert_record(got, expected):
    assert type(got) is type(expected)
    assert len(got) == len(type(got)._fields)
    assert got == expected


def test_frames_hold_every_field_in_order():
    data = embed(513, 70000, 4, PAYLOAD, CIPHER, HASH_PART)
    assert_record(extract(data), Frame(
        src=513, seq=70000, hop=4, payload=PAYLOAD, cipher=CIPHER,
        hash_part=HASH_PART))
    assert_record(extract_bare(embed_bare(513, 70000, 4, PAYLOAD)), Frame(
        src=513, seq=70000, hop=4, payload=PAYLOAD, cipher=b"",
        hash_part=b""))
    for parse, short in ((extract, data[:-1]), (extract_bare, data[:7])):
        with pytest.raises(FrameError):
            parse(short)


def test_stored_records_hold_every_field_in_order():
    store = ProvenanceStore([])
    store.register_node(1)
    store.register_gateway(9)
    first = StoredRecord(hop=1, cipher=CIPHER, epoch=3, time=NOW_MS,
                         hash_part=HASH_PART)
    last = StoredRecord(hop=2, cipher=CIPHER[::-1], epoch=4, time=NOW_MS,
                        hash_part=None)
    store.store(first, 1, 2, by=1)
    store.store(last, 1, 2, by=1)
    assert_record(store.query_last(1, 2), last)
    got = store.query_all(1, 2, by=9)
    assert len(got) == 2
    for record, expected in zip(got, (first, last)):
        assert_record(record, expected)


def test_a_source_stores_a_record_of_every_field():
    # the stored time is the emit's own now_ms
    chain = build_chain()
    _, frame = chain.source.emit_multihop(PAYLOAD, 2000)
    assert_record(chain.store.query_last(1, 1), StoredRecord(
        hop=1, cipher=extract(frame).cipher, epoch=0, time=2000))
    chain = build_chain(n_intermediates=0)
    chain.source.emit_singlehop(PAYLOAD, 2000)
    stored = chain.store.query_last(1, 1)
    assert_record(stored, StoredRecord(
        hop=1, cipher=stored.cipher, epoch=0, time=2000,
        hash_part=make_hash_subwatermark(PAYLOAD)))


def test_nodes_store_under_keys_of_every_field(monkeypatch):
    keys, records = [], []
    store = ProvenanceStore.store
    monkeypatch.setattr(ProvenanceStore, "store",
                        lambda self, record, src, seq, by: (
                            keys.append((src, seq, record.hop)),
                            records.append(record),
                            store(self, record, src, seq, by)))
    chain = build_chain(n_intermediates=1)
    for _ in range(3):
        _, frame = chain.source.emit_multihop(PAYLOAD, 1000)
    chain.intermediates[0].process(frame, 1300)
    build_chain(n_intermediates=0).source.emit_singlehop(PAYLOAD, 1000)
    expected = [(1, 1, 1), (1, 2, 1), (1, 3, 1), (1, 3, 2), (1, 1, 1)]
    assert keys == expected
    for record in records:
        assert type(record) is StoredRecord
        assert len(record) == len(StoredRecord._fields)


def verdict(node, src, seq, hop, outcome, time):
    return events.Verdict(node=node, src=src, seq=seq, hop=hop,
                          outcome=outcome, time=time)


def second_hop_frame(chain, seq):
    """Packet `seq` of the chain's source as its first intermediate forwards
    it: every id of the frame differs from every other (src 1, hop 2)."""
    for _ in range(seq):
        _, frame = chain.source.emit_multihop(PAYLOAD, 1000)
    return chain.intermediates[0].process(frame, 1300)[1]


def test_process_verdicts_hold_every_field_in_order():
    chain = build_chain(n_intermediates=2)
    node = chain.intermediates[1]
    frame = second_hop_frame(chain, 3)
    got, forwarded = node.process(frame, 1600)
    assert forwarded is not None
    assert_record(got, verdict(3, 1, 3, 2, ACCEPTED, 1600))
    # a tampered payload, a frame with no stored set, and short frames
    hash_part = make_hash_subwatermark(PAYLOAD)
    tampered = embed(1, 2, 2, PAYLOAD[::-1], CIPHER, hash_part)
    assert_record(node.process(tampered, 1700)[0],
                  verdict(3, 1, 2, 2, INTEGRITY_FAIL, 1700))
    unknown = embed(1, 40, 2, PAYLOAD, CIPHER, hash_part)
    assert_record(node.process(unknown, 1800)[0],
                  verdict(3, 1, 40, 2, MISSING_RECORD, 1800))
    assert_record(node.process(frame[:7], 1900)[0],
                  verdict(3, 1, 3, 2, FRAME_FAIL, 1900))
    assert_record(node.process(frame[:3], 2000)[0],
                  verdict(3, 1, None, None, FRAME_FAIL, 2000))


def test_gateway_verdicts_hold_every_field_in_order():
    chain = build_chain(n_intermediates=1)
    frame = second_hop_frame(chain, 3)
    got, path = chain.gateway.verify_multihop(frame, 1600)
    assert path == [("10.0.0.1", 1), ("10.0.0.2", 1)]
    assert_record(got, verdict(9, 1, 3, 2, ACCEPTED, 1600))
    frame = second_hop_frame(chain, 1)
    forged = embed(1, 4, 2, PAYLOAD, CIPHER, make_hash_subwatermark(PAYLOAD))
    assert_record(chain.gateway.verify_multihop(forged, 1700)[0],
                  verdict(9, 1, 4, 2, PROVENANCE_FAIL, 1700))
    assert_record(chain.gateway.verify_multihop(frame[:6], 1800)[0],
                  verdict(9, 1, 4, None, FRAME_FAIL, 1800))


def test_singlehop_verdicts_hold_every_field_in_order():
    chain = build_chain(n_intermediates=0)
    for _ in range(3):
        _, frame = chain.source.emit_singlehop(PAYLOAD, 1000)
    got, path = chain.gateway.verify_singlehop(frame, 1300)
    assert path == [("10.0.0.1", 1)]
    assert_record(got, verdict(9, 1, 3, 1, ACCEPTED, 1300))
    _, frame = chain.source.emit_singlehop(PAYLOAD, 2000)
    tampered = frame[:-1] + bytes((frame[-1] ^ 1,))
    assert_record(chain.gateway.verify_singlehop(tampered, 2300)[0],
                  verdict(9, 1, 4, 1, INTEGRITY_FAIL, 2300))
    _, frame = chain.source.emit_singlehop(PAYLOAD, 2000)
    assert_record(chain.gateway.verify_singlehop(frame + b"!", 2400)[0],
                  verdict(9, 1, 5, 1, FRAME_FAIL, 2400))


def report_packets():
    """The report of source 4's packets on the line 4 -> 7 -> 9, emitted at
    2000, 3500 and 5000 ms, with the third dropped on its last link."""
    config = ScenarioConfig(
        nodes=[NodeSpec(id=4, ip="10.0.0.4", role="source"),
               NodeSpec(id=7, ip="10.0.0.7", role="intermediate"),
               NodeSpec(id=9, ip="10.0.0.9", role="gateway")],
        routes=[[4, 7, 9]],
        traffic=[TrafficSpec(source=4, count=3, interval_ms=1500,
                             start_ms=2000)],
        attacks=[Drop(from_id=7, to_id=9, seq=3)])
    return netsim.run(config).report["packets"]


def report_verdict(hop, node, time):
    return netsim.ReportVerdict(flow="organic", hop=hop, node=node,
                                outcome=ACCEPTED, time=time)


def test_report_packets_hold_every_field_in_order():
    packets = report_packets()
    final = report_verdict(hop=2, node=9, time=4100)
    assert_record(packets["4:2"], netsim.Packet(
        emitted_ms=3500, final=final, path=[("10.0.0.4", 3), ("10.0.0.7", 3)],
        route=[4, 7, 9], seq=2, source=4, status="accepted", store_records=0,
        verdicts=[report_verdict(hop=1, node=7, time=3800), final]))
    # the source and the intermediate stored a record each before the drop
    assert_record(packets["4:3"], netsim.Packet(
        emitted_ms=5000, final=None, path=None, route=[4, 7, 9], seq=3,
        source=4, status="dropped", store_records=2,
        verdicts=[report_verdict(hop=1, node=7, time=5300)]))


def test_report_verdicts_hold_every_field_in_order():
    packets = report_packets()
    expected = [report_verdict(hop=1, node=7, time=3800),
                report_verdict(hop=2, node=9, time=4100)]
    assert len(packets["4:2"].verdicts) == len(expected)
    for got, verdict in zip(packets["4:2"].verdicts, expected):
        assert_record(got, verdict)
    assert_record(packets["4:2"].final, expected[-1])
