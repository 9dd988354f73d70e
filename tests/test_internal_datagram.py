"""Self-authenticating management datagrams: header model, label placement,
and the three-way classification."""
import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import build_chain
from tests.reference import vectors as V
from zircon.internal_datagram import (
    HEADER_BYTES,
    INTERNAL_AUTHENTICATED,
    INTERNAL_FORGED,
    REQUIRES_IDS,
    Ipv4HeaderModel,
    check_datagram,
    compute_label,
    extract_label,
    label_datagram,
)
from zircon.crypto import digest

INTERNAL_NET = {bytes([10, 0, 0, n]) for n in range(1, 10)}


def is_internal(ip: bytes) -> bool:
    return ip in INTERNAL_NET


def mgmt_datagram(payload=V.LABEL_PAYLOAD):
    return Ipv4HeaderModel(src=bytes([10, 0, 0, 1]), dst=V.LABEL_DST,
                           payload=payload)


# -- header model ---------------------------------------------------------------

def test_total_length_defaults_to_header_plus_payload():
    d = mgmt_datagram()
    assert d.total_length == HEADER_BYTES + 20 == 34
    explicit = Ipv4HeaderModel(src=bytes(4), dst=bytes(4), payload=b"xy",
                               total_length=400)
    assert explicit.total_length == 400


@given(ident=st.integers(0, 0xFFFF), flags=st.integers(0, 7),
       frag=st.integers(0, 0x1FFF), payload=st.binary(max_size=64))
@settings(max_examples=60)
def test_header_roundtrip(ident, flags, frag, payload):
    d = Ipv4HeaderModel(src=bytes([1, 2, 3, 4]), dst=bytes([5, 6, 7, 8]),
                        payload=payload, identification=ident, flags=flags,
                        fragment_offset=frag)
    assert Ipv4HeaderModel.from_bytes(d.to_bytes()) == d


def test_header_field_bounds():
    with pytest.raises(ValueError):
        Ipv4HeaderModel(src=b"xyz", dst=bytes(4))
    with pytest.raises(ValueError):
        Ipv4HeaderModel(src=bytes(4), dst=bytes(4), identification=0x10000)
    with pytest.raises(ValueError):
        Ipv4HeaderModel(src=bytes(4), dst=bytes(4), flags=8)
    with pytest.raises(ValueError):
        Ipv4HeaderModel(src=bytes(4), dst=bytes(4), fragment_offset=0x2000)
    with pytest.raises(ValueError, match="total length"):
        Ipv4HeaderModel(src=bytes(4), dst=bytes(4), payload=bytes(70000))
    with pytest.raises(ValueError, match="total length"):
        Ipv4HeaderModel(src=bytes(4), dst=bytes(4), total_length=-1)
    with pytest.raises(ValueError):
        Ipv4HeaderModel.from_bytes(b"short")


@given(data=st.binary(min_size=HEADER_BYTES, max_size=80))
@settings(max_examples=80)
def test_any_header_bytes_roundtrip(data):
    assert Ipv4HeaderModel.from_bytes(data).to_bytes() == data


def test_every_construction_path_checks_field_bounds():
    m = mgmt_datagram()
    with pytest.raises(ValueError, match="flags"):
        m._replace(flags=8)
    with pytest.raises(ValueError, match="total length"):
        m._replace(total_length=0x10000)
    with pytest.raises(ValueError, match="identification"):
        Ipv4HeaderModel._make((bytes(4), bytes(4), b"", 0x10000, 0, 0, 14))
    with pytest.raises(ValueError, match="addresses"):
        Ipv4HeaderModel(b"xyz", bytes(4), b"", 0, 0, 0, 14)


def test_model_survives_pickle_and_copy():
    m = label_datagram(mgmt_datagram(), mode="prng", seed="site-9")
    assert pickle.loads(pickle.dumps(m)) == m
    assert type(pickle.loads(pickle.dumps(m))) is Ipv4HeaderModel
    assert copy.copy(m) == m


# -- label derivation -------------------------------------------------------------

def test_frozen_label_vectors():
    d = mgmt_datagram()
    assert digest(V.LABEL_DST + V.LABEL_PAYLOAD) == V.LABEL_DIGEST
    assert compute_label(d) == V.LABEL_LSB32
    assert compute_label(d, mode="prng", seed=V.LABEL_PRNG_SEED) == \
        V.LABEL_PRNG_VALUE


def test_label_input_pads_short_payloads():
    short = Ipv4HeaderModel(src=bytes(4), dst=V.LABEL_DST, payload=b"x")
    padded = Ipv4HeaderModel(src=bytes(4), dst=V.LABEL_DST,
                             payload=b"x" + bytes(19))
    assert compute_label(short) == compute_label(padded)


def test_label_uses_only_first_twenty_payload_bytes():
    base = mgmt_datagram(payload=V.LABEL_PAYLOAD + b"tail-a")
    other = mgmt_datagram(payload=V.LABEL_PAYLOAD + b"tail-b")
    assert compute_label(base) == compute_label(other) == V.LABEL_LSB32


def test_label_datagram_places_bits_msb_first():
    d = label_datagram(mgmt_datagram())
    label = V.LABEL_LSB32
    assert d.identification == label >> 16
    assert d.flags == (label >> 13) & 0x7
    assert d.fragment_offset == label & 0x1FFF
    assert extract_label(d) == label


@given(payload=st.binary(max_size=40), total=st.none() | st.integers(0, 0xFFFF),
       mode=st.sampled_from(["lsb32", "prng"]))
@settings(max_examples=40)
def test_label_datagram_keeps_addresses_payload_and_length(payload, total,
                                                           mode):
    d = Ipv4HeaderModel(src=bytes([10, 0, 0, 1]), dst=V.LABEL_DST,
                        payload=payload, identification=7, flags=1,
                        total_length=total)
    labelled = label_datagram(d, mode=mode, seed=5)
    assert (labelled.src, labelled.dst, labelled.payload,
            labelled.total_length) == (d.src, d.dst, d.payload, d.total_length)


@given(payload=st.binary(max_size=40))
@settings(max_examples=40)
def test_labeling_authenticates(payload):
    d = label_datagram(Ipv4HeaderModel(src=bytes([10, 0, 0, 1]),
                                       dst=bytes([10, 0, 0, 2]),
                                       payload=payload))
    got = check_datagram(d, is_internal, expected_size=d.total_length)
    assert got == INTERNAL_AUTHENTICATED


# -- classification ----------------------------------------------------------------

def test_unlabeled_internal_datagram_is_forged():
    got = check_datagram(mgmt_datagram(), is_internal, expected_size=34)
    assert got == INTERNAL_FORGED


def test_single_bit_forgeries_detected():
    d = label_datagram(mgmt_datagram())
    raw = bytearray(d.to_bytes())
    rng = random.Random(31337)
    # spot-check a sample here; the exhaustive 192-bit sweep runs in the
    # acceptance suite
    dst_off = 10
    payload_off = HEADER_BYTES
    for _ in range(40):
        region = rng.choice(["dst", "payload"])
        if region == "dst":
            pos = dst_off + rng.randrange(4)
        else:
            pos = payload_off + rng.randrange(20)
        mutated = bytearray(raw)
        mutated[pos] ^= 1 << rng.randrange(8)
        got = check_datagram(Ipv4HeaderModel.from_bytes(bytes(mutated)),
                             lambda ip: True, expected_size=34)
        assert got == INTERNAL_FORGED


def test_external_endpoints_require_ids():
    d = label_datagram(Ipv4HeaderModel(src=bytes([192, 168, 1, 1]),
                                       dst=V.LABEL_DST,
                                       payload=V.LABEL_PAYLOAD))
    assert check_datagram(d, is_internal, expected_size=34) == REQUIRES_IDS
    d = label_datagram(Ipv4HeaderModel(src=bytes([10, 0, 0, 1]),
                                       dst=bytes([8, 8, 8, 8]),
                                       payload=V.LABEL_PAYLOAD))
    assert check_datagram(d, is_internal, expected_size=34) == REQUIRES_IDS


def test_size_mismatch_requires_ids():
    d = label_datagram(mgmt_datagram(payload=V.LABEL_PAYLOAD + b"overflow"))
    assert d.total_length != 34
    assert check_datagram(d, is_internal, expected_size=34) == REQUIRES_IDS


def test_sensor_frames_require_ids():
    # watermarked traffic is never mistaken for a management datagram:
    # the frame sizes cannot match the fixed internal size
    chain = build_chain()
    for i in range(5):
        _, frame = chain.source.emit_multihop(bytes(16) + bytes([i]), 0)
        d = Ipv4HeaderModel(src=bytes([10, 0, 0, 1]), dst=V.LABEL_DST,
                            payload=frame)
        got = check_datagram(d, is_internal, expected_size=34)
        assert got == REQUIRES_IDS


def test_prng_mode_classification():
    d = label_datagram(mgmt_datagram(), mode="prng", seed="site-9")
    ok = check_datagram(d, is_internal, expected_size=34, mode="prng",
                        seed="site-9")
    assert ok == INTERNAL_AUTHENTICATED
    # checking with the wrong seed must not authenticate this datagram
    bad = check_datagram(d, is_internal, expected_size=34, mode="prng",
                         seed="site-8")
    assert bad == INTERNAL_FORGED
