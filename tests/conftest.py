"""Shared fixtures: a known key, a registered store, and a verification
chain (source, intermediates, gateway) wired to one store and keyring."""
import random
from dataclasses import dataclass
from typing import Dict, List

import pytest

from zircon.crypto import SymmetricKey
from zircon.nodes import (
    GatewayNode,
    IntermediateNode,
    KeyRing,
    NodeIdentity,
    ROLE_GATEWAY,
    ROLE_INTERMEDIATE,
    ROLE_SOURCE,
    SourceNode,
)
from zircon.provstore import ProvenanceStore


@pytest.fixture
def key():
    return SymmetricKey(material=bytes(range(16)), epoch=0)


@pytest.fixture
def keyring(key):
    return KeyRing(key)


@pytest.fixture
def store():
    return ProvenanceStore()


@dataclass
class Chain:
    source: SourceNode
    intermediates: List[IntermediateNode]
    gateway: GatewayNode
    store: ProvenanceStore
    keyring: KeyRing
    registry: Dict[int, NodeIdentity]

    def identity_of(self, node_id: int) -> NodeIdentity:
        return self.registry[node_id]


def build_chain(n_intermediates: int = 2, freshness_s: int = 60,
                key_material: bytes = bytes(range(16)),
                clock=lambda: 0) -> Chain:
    """One source at id 1, intermediates at 2.., gateway at 9."""
    keyring = KeyRing(SymmetricKey(material=key_material, epoch=0))
    store = ProvenanceStore(clock=clock)
    registry: Dict[int, NodeIdentity] = {}

    src_ident = NodeIdentity(id=1, ip=bytes([10, 0, 0, 1]), role=ROLE_SOURCE)
    registry[1] = src_ident
    store.register_node(1)

    intermediates = []
    for i in range(n_intermediates):
        nid = 2 + i
        ident = NodeIdentity(id=nid, ip=bytes([10, 0, 0, nid]),
                             role=ROLE_INTERMEDIATE)
        registry[nid] = ident
        store.register_node(nid)
        intermediates.append(IntermediateNode(ident, keyring, store))

    gw_ident = NodeIdentity(id=9, ip=bytes([10, 0, 0, 9]), role=ROLE_GATEWAY)
    registry[9] = gw_ident
    store.register_gateway(9)

    return Chain(
        source=SourceNode(src_ident, keyring, store),
        intermediates=intermediates,
        gateway=GatewayNode(gw_ident, keyring, store, registry,
                            freshness_s=freshness_s),
        store=store,
        keyring=keyring,
        registry=registry,
    )


@pytest.fixture
def chain():
    return build_chain()


@pytest.fixture
def rng():
    return random.Random(20240917)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One [PASS]/[FAIL] line per acceptance criterion."""
    rows = set()
    for status, ok in (("passed", True), ("failed", False), ("error", False)):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            if ok and getattr(rep, "when", "call") != "call":
                continue
            rows.add((nodeid.split("::")[-1], ok))
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok in sorted(rows):
        label = name[len("test_"):].replace("_", " ")
        terminalreporter.write_line(("[PASS] " if ok else "[FAIL] ") + label)
