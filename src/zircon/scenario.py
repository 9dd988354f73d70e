"""Scenario configuration: dataclasses, validation, and YAML round-trip.

A scenario fixes everything a run needs: topology and routes inside an
L x W area, traffic schedules, the attack list, key-rotation policy, energy
constants, and the master seed.  A validated config plus its seed fully
determines the simulation output, byte for byte.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Tuple

import yaml

from .adversary import (
    FAKE_INJECT,
    LINK_KINDS,
    MODIFY_WATERMARK,
    STORE_PROBE,
    AttackSpec,
    AttackSpecError,
)
from .analysis import EnergyParams
from .nodes import ROLE_GATEWAY, ROLE_INTERMEDIATE, ROLE_SOURCE, ROLES
from .crypto import KEY_BYTES
from .watermark import MAX_HOP, MAX_PAYLOAD, MAX_SEQ, MAX_SRC, parse_ip

MODE_SINGLEHOP = "singlehop"
MODE_MULTIHOP = "multihop"
MODES = (MODE_SINGLEHOP, MODE_MULTIHOP)


class ConfigError(ValueError):
    """Scenario validation failed; .errors lists every offending field."""

    def __init__(self, errors: List[str]):
        super().__init__("invalid scenario config:\n  " + "\n  ".join(errors))
        self.errors = errors


@dataclass
class NodeSpec:
    id: int
    ip: str
    role: str
    x: float = 0.0
    y: float = 0.0
    registered: bool = True


@dataclass
class TrafficSpec:
    source: int
    count: int
    interval_ms: int = 1000
    start_ms: int = 0
    payload_bytes: int = 16


@dataclass
class KeyRotationConfig:
    min_generations: int
    max_generations: int


@dataclass
class ScenarioConfig:
    seed: int = 1
    mode: str = MODE_MULTIHOP
    freshness_s: int = 60
    per_hop_delay_ms: int = 300
    purge_on_delivery: bool = True
    drop_timeout_ms: Optional[int] = None  # defaults to 5x per-hop delay
    area: Tuple[float, float] = (100.0, 100.0)
    key_rotation: Optional[KeyRotationConfig] = None
    energy: EnergyParams = field(default_factory=EnergyParams)
    nodes: List[NodeSpec] = field(default_factory=list)
    routes: List[List[int]] = field(default_factory=list)
    traffic: List[TrafficSpec] = field(default_factory=list)
    attacks: List[AttackSpec] = field(default_factory=list)

    def timeout_ms(self) -> int:
        if self.drop_timeout_ms is not None:
            return self.drop_timeout_ms
        return 5 * self.per_hop_delay_ms


# what a scalar field admits, by its annotation, a string under `from
# __future__ import annotations`; types are matched exactly, so a bool (an
# int subclass) is no number
_SCALARS = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
            "str": ((str,), "a string"), "bool": ((bool,), "true or false")}


def _scalar_fields(cls) -> Tuple[Tuple[str, tuple, str], ...]:
    """(name, admitted types, wording) per scalar field; an Optional field
    admits None too."""
    out = []
    for f in fields(cls):
        optional = f.type.startswith("Optional[")
        want = f.type[len("Optional["):-1] if optional else f.type
        if want in _SCALARS:
            types, wording = _SCALARS[want]
            out.append((f.name, types + (type(None),) * optional, wording))
    return tuple(out)


_SCALAR_FIELDS = {cls: _scalar_fields(cls) for cls in (
    ScenarioConfig, NodeSpec, TrafficSpec, KeyRotationConfig, AttackSpec)}


def _type_errors(where: str, obj) -> List[str]:
    """One error per scalar field of a config dataclass whose value does not
    have the annotated type."""
    return [f"{where}{name}: must be {wording}, got {getattr(obj, name)!r}"
            for name, types, wording in _SCALAR_FIELDS[type(obj)]
            if type(getattr(obj, name)) not in types]


def validate(config: ScenarioConfig) -> None:
    """Raise ConfigError listing every problem found."""
    typed = [("", config)]
    typed += [(f"nodes[{i}].", n) for i, n in enumerate(config.nodes)]
    typed += [(f"traffic[{i}].", t) for i, t in enumerate(config.traffic)]
    typed += [(f"attacks[{i}].", a) for i, a in enumerate(config.attacks)]
    if config.key_rotation is not None:
        typed.append(("key_rotation.", config.key_rotation))
    errors = [e for where, obj in typed for e in _type_errors(where, obj)]
    errors += [f"routes[{ri}]: node id {nid!r} is not an integer"
               for ri, route in enumerate(config.routes) for nid in route
               if type(nid) is not int]
    errors += [f"attacks[{ai}].edits: {pair!r} is not an (offset, mask) "
               f"pair of integers"
               for ai, a in enumerate(config.attacks) for pair in a.edits
               if any(type(v) is not int for v in pair)]
    if errors:
        # every check below compares these values
        raise ConfigError(errors)

    if config.mode not in MODES:
        errors.append(f"mode: must be one of {MODES}, got {config.mode!r}")
    if config.freshness_s <= 0:
        errors.append("freshness_s: must be positive")
    if config.per_hop_delay_ms <= 0:
        errors.append("per_hop_delay_ms: must be positive")
    if len(config.area) != 2 or config.area[0] <= 0 or config.area[1] <= 0:
        errors.append("area: needs positive (length, width)")

    ids: Dict[int, NodeSpec] = {}
    ips = set()
    if not config.nodes:
        errors.append("nodes: at least one node required")
    for n in config.nodes:
        if n.id in ids:
            errors.append(f"nodes: duplicate id {n.id}")
        ids[n.id] = n
        if n.role not in ROLES:
            errors.append(f"nodes[{n.id}].role: unknown role {n.role!r}")
        elif n.role == ROLE_SOURCE and not 0 <= n.id <= MAX_SRC:
            errors.append(f"nodes[{n.id}].id: a source id must fit 16 bits")
        try:
            ip = parse_ip(n.ip)
            if ip in ips:
                errors.append(f"nodes[{n.id}].ip: duplicate address {n.ip}")
            ips.add(ip)
        except ValueError:
            errors.append(f"nodes[{n.id}].ip: bad address {n.ip!r}")
        if len(config.area) == 2:
            length, width = config.area
            if not (0 <= n.x <= length and 0 <= n.y <= width):
                errors.append(f"nodes[{n.id}]: position outside {length}x{width} area")

    links = set()
    for ri, route in enumerate(config.routes):
        if len(route) < 2:
            errors.append(f"routes[{ri}]: needs at least source and gateway")
            continue
        if len(route) > MAX_HOP + 1:
            errors.append(f"routes[{ri}]: {len(route)} nodes, but the 8-bit hop "
                          f"index allows at most {MAX_HOP + 1}")
        # the gateway compares whole seconds, so a clean packet emitted late
        # in a second arrives stale once the trip outlasts the window
        travel_ms = (len(route) - 1) * config.per_hop_delay_ms
        if config.freshness_s > 0 and travel_ms > config.freshness_s * 1000:
            errors.append(f"routes[{ri}]: {len(route) - 1} hops of "
                          f"{config.per_hop_delay_ms} ms take {travel_ms} ms, "
                          f"past the {config.freshness_s}-s freshness window")
        missing = [nid for nid in route if nid not in ids]
        if missing:
            errors.append(f"routes[{ri}]: unknown node ids {missing}")
            continue
        if ids[route[0]].role != ROLE_SOURCE:
            errors.append(f"routes[{ri}]: first node must be a source")
        if ids[route[-1]].role != ROLE_GATEWAY:
            errors.append(f"routes[{ri}]: last node must be a gateway")
        for nid in route[1:-1]:
            if ids[nid].role != ROLE_INTERMEDIATE:
                errors.append(f"routes[{ri}]: node {nid} in the middle must be intermediate")
        if config.mode == MODE_SINGLEHOP and len(route) != 2:
            errors.append(f"routes[{ri}]: singlehop routes are source->gateway only")
        unregistered = [nid for nid in route if not ids[nid].registered]
        if unregistered:
            # unregistered ids cannot store records, so traffic through them
            # would die on an authorization error instead of a verdict
            errors.append(
                f"routes[{ri}]: unregistered nodes {unregistered} cannot relay"
            )
        links.update(zip(route, route[1:]))

    route_sources = {r[0] for r in config.routes if r}
    sent: Dict[int, int] = {}
    for ti, t in enumerate(config.traffic):
        sent[t.source] = sent.get(t.source, 0) + t.count
        if t.source not in ids or ids[t.source].role != ROLE_SOURCE:
            errors.append(f"traffic[{ti}].source: {t.source} is not a source node")
        elif t.source not in route_sources:
            errors.append(f"traffic[{ti}].source: {t.source} has no route")
        if t.count < 1:
            errors.append(f"traffic[{ti}].count: must be >= 1")
        if t.interval_ms < 1:
            errors.append(f"traffic[{ti}].interval_ms: must be >= 1")
        if not 0 <= t.payload_bytes <= 0xFFFF:
            errors.append(f"traffic[{ti}].payload_bytes: must fit 16 bits")
    for src, total in sent.items():
        if total > MAX_SEQ:
            errors.append(f"traffic: source {src} sends {total} packets, but "
                          f"sequence numbers must fit 32 bits")

    for ai, a in enumerate(config.attacks):
        if a.kind in LINK_KINDS:
            if (a.from_id, a.to_id) not in links:
                errors.append(
                    f"attacks[{ai}]: link {a.from_id}->{a.to_id} is not on any route"
                )
            if config.mode == MODE_SINGLEHOP and (
                    a.kind == MODIFY_WATERMARK
                    or (a.kind == "replay" and a.mutate_timestamp)):
                errors.append(
                    f"attacks[{ai}]: singlehop frames carry no watermark to modify"
                )
        elif a.kind == FAKE_INJECT:
            if a.to_id not in ids:
                errors.append(f"attacks[{ai}]: inject target {a.to_id} unknown")
            if a.seq is None:
                errors.append(f"attacks[{ai}]: fake_inject needs a forged seq")
            elif not 0 <= a.seq <= MAX_SEQ:
                errors.append(f"attacks[{ai}]: forged seq must fit 32 bits")
            if not 0 <= a.src <= MAX_SRC:
                errors.append(f"attacks[{ai}]: forged src must fit 16 bits")
            if not 1 <= a.hop <= MAX_HOP:
                errors.append(f"attacks[{ai}]: forged hop must be in 1..{MAX_HOP}")
            if len(a.key_material) != KEY_BYTES:
                errors.append(f"attacks[{ai}]: forging key must be {KEY_BYTES} bytes")
            if len(a.payload) > MAX_PAYLOAD:
                errors.append(f"attacks[{ai}]: forged payload must fit 16 bits of length")
        elif a.kind == STORE_PROBE:
            if a.src is None or a.seq is None:
                errors.append(f"attacks[{ai}]: store_probe needs src and seq")

    if config.key_rotation is not None:
        kr = config.key_rotation
        if not 1 <= kr.min_generations <= kr.max_generations:
            errors.append("key_rotation: need 1 <= min_generations <= max_generations")

    if errors:
        raise ConfigError(errors)


# -- YAML round-trip ---------------------------------------------------------

def _attack_to_dict(a: AttackSpec) -> dict:
    d: dict = {"kind": a.kind}
    if a.from_id is not None:
        d["from"] = a.from_id
    if a.to_id is not None:
        d["to"] = a.to_id
    if a.src is not None:
        d["src"] = a.src
    if a.seq is not None:
        d["seq"] = a.seq
    if a.after_ms:
        d["after_ms"] = a.after_ms
    if a.kind == "replay":
        d["delay_ms"] = a.delay_ms
        if a.mutate_timestamp:
            d["mutate_timestamp"] = True
    if a.kind == "insert_bits":
        d["offset_bits"] = a.offset_bits
        d["bits"] = list(a.bits)
    if a.kind == "delete_bits":
        d["q"] = a.q
        if a.offset_bits is not None:
            d["offset_bits"] = a.offset_bits
    if a.kind in ("modify_payload", "modify_watermark"):
        d["edits"] = [[off, mask] for off, mask in a.edits]
    if a.kind == "fake_inject":
        d["ip"] = ".".join(str(b) for b in a.ip)
        d["payload_hex"] = a.payload.hex()
        d["key_material_hex"] = a.key_material.hex()
        d["key_epoch"] = a.key_epoch
        d["hop"] = a.hop
    if a.kind == "store_probe":
        d["caller_id"] = a.caller_id
    return d


# attack keys spelt differently in YAML from the AttackSpec field they set
_ATTACK_RENAMES = {"from": "from_id", "to": "to_id", "payload_hex": "payload",
                   "key_material_hex": "key_material"}
_ATTACK_KEYS = {**{f.name: f.name for f in fields(AttackSpec)
                   if f.name not in _ATTACK_RENAMES.values()},
                **_ATTACK_RENAMES}
# YAML value to field value, by field; other fields take the value as read
_ATTACK_CONVERT = {
    "mutate_timestamp": bool,
    "bits": tuple,
    "edits": lambda edits: tuple((off, mask) for off, mask in edits),
    "ip": parse_ip,
    "payload": bytes.fromhex,
    "key_material": bytes.fromhex,
}


def _attack_from_dict(d: dict) -> AttackSpec:
    if not isinstance(d, dict):
        raise AttackSpecError(f"expected a mapping, got {d!r}")
    kwargs = {}
    for key, value in d.items():
        name = _ATTACK_KEYS.get(key)
        if name is None:
            raise AttackSpecError(f"unknown key {key!r}")
        convert = _ATTACK_CONVERT.get(name)
        kwargs[name] = value if convert is None else convert(value)
    return AttackSpec(**kwargs)


def to_dict(config: ScenarioConfig) -> dict:
    """The YAML shape of a config: its fields in declaration order, with
    plain lists for the area and routes, and attacks in their own form."""
    data = asdict(config)
    data["area"] = list(config.area)
    data["routes"] = [list(r) for r in config.routes]
    data["attacks"] = [_attack_to_dict(a) for a in config.attacks]
    return data


# YAML value to field value, by field; other fields take the value as read
_CONFIG_CONVERT = {
    "area": lambda area: tuple(float(v) for v in area),
    "key_rotation": lambda kr: None if kr is None else KeyRotationConfig(**kr),
    "energy": lambda energy: EnergyParams(**energy),
    "nodes": lambda nodes: [NodeSpec(**n) for n in nodes],
    "routes": lambda routes: [list(r) for r in routes],
    "traffic": lambda traffic: [TrafficSpec(**t) for t in traffic],
    "attacks": lambda attacks: [_attack_from_dict(a) for a in attacks],
}
_CONFIG_KEYS = {f.name for f in fields(ScenarioConfig)}


def from_dict(data: dict) -> ScenarioConfig:
    """A config from its YAML shape.  Only the keys present are passed on,
    so every default lives in the dataclasses; an unknown key is an error."""
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected a mapping"])
    unknown = [key for key in data if key not in _CONFIG_KEYS]
    if unknown:
        raise ConfigError([f"{key}: unknown key" for key in unknown])
    kwargs = {}
    for key, value in data.items():
        convert = _CONFIG_CONVERT.get(key)
        try:
            kwargs[key] = value if convert is None else convert(value)
        except (TypeError, ValueError) as err:
            raise ConfigError([f"{key}: {err}"]) from err
    return ScenarioConfig(**kwargs)


# libyaml's C scanner and parser where PyYAML was built with it; either
# loader constructs with the same SafeConstructor and resolver, so the
# objects, and every output of a run, are the same
LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(stream) -> ScenarioConfig:
    """Parse and validate a YAML scenario from a stream, string or bytes."""
    try:
        data = yaml.load(stream, Loader=LOADER)
    except yaml.YAMLError as err:
        raise ConfigError([f"yaml: {err}"]) from err
    config = from_dict(data)
    validate(config)
    return config


def dump_config(config: ScenarioConfig) -> str:
    return yaml.safe_dump(to_dict(config), sort_keys=False)


EXAMPLE_CONFIG = """\
# Example scenario: one source, two intermediates, one gateway.
# Every random choice in the run derives from this seed alone.
seed: 7
# singlehop: bare frames, the watermark never leaves the database.
# multihop: frames carry the 24-byte watermark tail hop by hop.
mode: multihop
# maximum accepted age (seconds) of the source timestamp at the gateway
freshness_s: 60
# simulated link latency; also the transmit window in the energy model
per_hop_delay_ms: 300
# delete a packet's records once the gateway has retrieved and accepted them
purge_on_delivery: true
# packets whose newest record is older than this are flagged as dropped;
# null means 5x per_hop_delay_ms
drop_timeout_ms: null
# deployment area (length, width) for node placement
area: [100.0, 100.0]
# rotate the shared key after a generation count drawn from this range;
# null disables rotation
key_rotation:
  min_generations: 40
  max_generations: 80
energy:
  p_n_mw: 30.0        # average node power draw
  t_a_ms: 1.0         # acquisition window
  t_s_ms: 0.5         # sensing window
  t_tr_ms: 300.0      # transmit window
  t_sl_ms: 299.0      # sleep window
  e0_mj: 100.0        # base energy budget of a plain node
  intermediate_multiplier: 1.0   # intermediates get e0 + multiplier * e0
  tc_per_op_ms: 0.5   # computation charge per watermark operation
nodes:
  - {id: 1, ip: 10.0.0.1, role: source, x: 10.0, y: 50.0}
  - {id: 2, ip: 10.0.0.2, role: intermediate, x: 40.0, y: 50.0}
  - {id: 3, ip: 10.0.0.3, role: intermediate, x: 70.0, y: 50.0}
  - {id: 9, ip: 10.0.0.9, role: gateway, x: 95.0, y: 50.0}
routes:
  - [1, 2, 3, 9]
traffic:
  # 20 packets of 16 random bytes, one per second
  - {source: 1, count: 20, interval_ms: 1000, start_ms: 0, payload_bytes: 16}
# attacks list; empty means a clean run.  Example entries:
#  - {kind: modify_payload, from: 2, to: 3, seq: 5, edits: [[0, 1]]}
#  - {kind: replay, from: 1, to: 2, delay_ms: 5000}
#  - {kind: store_probe, caller_id: 666, src: 1, seq: 1, after_ms: 500}
attacks: []
"""
