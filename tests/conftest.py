"""Shared fixtures: a known key, a registered store, and a verification
chain (source, intermediates, gateway) wired to one store and keyring."""
import random
from dataclasses import dataclass
from typing import Dict, List

import pytest
from hypothesis import Phase, settings

from zircon.crypto import SymmetricKey
from zircon.nodes import (
    GatewayNode,
    IntermediateNode,
    KeyRing,
    SourceNode,
)
from zircon.provstore import ProvenanceStore

# scripts/mutants.py runs its tests with --hypothesis-profile=mutants: a
# caught mutant needs only a failing example, and shrinking one could take
# minutes and more than a gigabyte
settings.register_profile("mutants",
                          phases=set(Phase) - {Phase.shrink, Phase.explain})


@pytest.fixture
def key():
    return SymmetricKey(material=bytes(range(16)), epoch=0)


@pytest.fixture
def keyring(key):
    return KeyRing(key)


@pytest.fixture
def store():
    return ProvenanceStore([])


@dataclass
class Chain:
    source: SourceNode
    intermediates: List[IntermediateNode]
    gateway: GatewayNode
    store: ProvenanceStore
    keyring: KeyRing
    # the gateway's table of registered nodes' ips, by id
    origins: Dict[int, bytes]


def build_chain(n_intermediates: int = 2, freshness_s: int = 60,
                key_material: bytes = bytes(range(16))) -> Chain:
    """One source at id 1, intermediates at 2.., gateway at 9."""
    keyring = KeyRing(SymmetricKey(material=key_material, epoch=0))
    store = ProvenanceStore([])
    # node n has ip 10.0.0.n
    origins = {nid: bytes([10, 0, 0, nid])
               for nid in [1, *range(2, 2 + n_intermediates), 9]}
    for nid in origins:
        if nid == 9:
            store.register_gateway(nid)
        else:
            store.register_node(nid)

    return Chain(
        source=SourceNode(1, origins[1], keyring, store),
        intermediates=[IntermediateNode(nid, origins[nid], keyring, store)
                       for nid in range(2, 2 + n_intermediates)],
        gateway=GatewayNode(9, origins[9], keyring, store, origins,
                            freshness_s=freshness_s),
        store=store,
        keyring=keyring,
        origins=origins,
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
