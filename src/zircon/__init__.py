"""Zero-watermarking protocol library and deterministic network simulator.

The package splits into a protocol layer (crypto, watermark, provstore,
nodes, internal_datagram), an experiment layer (adversary, scenario, netsim,
and events, the event-log schema), and an analysis layer (energy and
provenance-cost models, detection reporting) with a CLI on top.
"""

__version__ = "0.1.0"

from .crypto import SymmetricKey, digest, encrypt_block, decrypt_block
from .nodes import (
    GatewayNode,
    IntermediateNode,
    KeyRing,
    SourceNode,
)
from .netsim import Simulation, SimResult, run
from .provstore import ProvenanceStore
from .scenario import ScenarioConfig, load_config
from .watermark import Frame

__all__ = [
    "SymmetricKey", "digest", "encrypt_block", "decrypt_block",
    "GatewayNode", "IntermediateNode", "KeyRing", "SourceNode",
    "Simulation", "SimResult", "run",
    "ProvenanceStore",
    "ScenarioConfig", "load_config",
    "Frame",
    "__version__",
]
