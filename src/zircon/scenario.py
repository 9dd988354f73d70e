"""Scenario configuration: dataclasses, validation, and YAML loading.

A scenario fixes everything a run needs: topology and routes inside an
L x W area, traffic schedules, the attack list, key-rotation policy, energy
constants, and the master seed.  A validated config plus its seed fully
determines the simulation output, byte for byte.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import MISSING, dataclass, field, fields
from functools import cache
from typing import (Dict, List, Optional, Tuple, Union, get_args, get_origin,
                    get_type_hints)

import yaml

from .adversary import (ATTACKS, Attack, DeleteBits, FakeInject, InsertBits,
                        LinkAttack, ModifyPayload, ModifyWatermark, Replay)
from .analysis import EnergyParams, energy_errors, finite_nonnegative, node_energy
from .nodes import ROLE_GATEWAY, ROLE_INTERMEDIATE, ROLE_SOURCE, ROLES
from .crypto import KEY_BYTES
from .watermark import (
    HEADER_BYTES,
    MAX_CAPTURE_S,
    MAX_HOP,
    MAX_PAYLOAD,
    MAX_SEQ,
    MAX_SRC,
    WATERMARK_BYTES,
    parse_ip,
)

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
    area: Tuple[float, float] = (100.0, 100.0)
    key_rotation: Optional[KeyRotationConfig] = None
    energy: EnergyParams = field(default_factory=EnergyParams)
    nodes: List[NodeSpec] = field(default_factory=list)
    routes: List[List[int]] = field(default_factory=list)
    traffic: List[TrafficSpec] = field(default_factory=list)
    attacks: List[Attack] = field(default_factory=list)


def _list(value) -> list:
    # a YAML mapping or string iterates too, over its keys or characters
    if type(value) is not list:
        raise TypeError(f"expected a list, got {value!r}")
    return value


# top-level fields not taken as read: field -> (YAML key, reader).  A record
# class as the reader builds a record from a mapping, and a one-class list a
# list of records from a list of mappings
_CONFIG_YAML = {
    # an int becomes a float; any other entry is left for validate to refuse
    "area": ("area", lambda area: tuple(float(v) if type(v) is int else v
                                        for v in _list(area))),
    "key_rotation": ("key_rotation", KeyRotationConfig),
    "energy": ("energy", EnergyParams),
    "nodes": ("nodes", [NodeSpec]),
    "traffic": ("traffic", [TrafficSpec]),
    "attacks": ("attacks", [Attack]),
}
# attack fields spelt or held otherwise than in YAML: field -> (YAML key,
# reader of the YAML value into the field value)
_ATTACK_YAML = {
    "from_id": ("from", None),
    "to_id": ("to", None),
    "bits": ("bits", lambda bits: tuple(_list(bits))),
    "edits": ("edits", lambda edits: tuple((off, mask) for off, mask
                                           in map(_list, _list(edits)))),
    "ip": ("ip", parse_ip),
    "payload": ("payload_hex", bytes.fromhex),
    "key_material": ("key_material_hex", bytes.fromhex),
}

# what a scalar annotation admits, matched exactly: a bool is no number
_SCALARS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
            str: ((str,), "a string"), bool: ((bool,), "true or false"),
            bytes: ((bytes,), "bytes")}


def _table(cls, spelling: dict) -> tuple:
    """A record class's YAML key -> (field, reader), and its required keys."""
    keys, required = {}, []
    for f in fields(cls):
        key, read = spelling.get(f.name, (f.name, None))
        keys[key] = (f, read)
        if f.default is MISSING and f.default_factory is MISSING:
            required.append(key)
    return keys, required


_TABLES = {cls: _table(cls, spelling) for cls, spelling in (
    (ScenarioConfig, _CONFIG_YAML), (NodeSpec, {}), (TrafficSpec, {}),
    (KeyRotationConfig, {}), (EnergyParams, {}),
    *((cls, _ATTACK_YAML) for cls in ATTACKS.values()))}


@cache
def _rule(hint) -> tuple:
    """(types, wording, parts, size) for annotation `hint`.  A value's type
    must be in `types`; then each of its fields or items must pass its
    (path, attribute, rule) in `parts`, every item parts[0] unless `size`
    fixes their number.  Only a record, a fixed-size tuple, or a list or
    tuple with items, has parts to check; an Attack's parts are those of
    its own kind's record."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # Optional[X]: X, or None
        types, *rest = _rule(args[0])
        return (types + (type(None),), *rest)
    if hint in _SCALARS:
        return (*_SCALARS[hint], (), None)
    if origin in (list, tuple):
        parts = tuple(("", None, _rule(arg)) for arg in args if arg is not ...)
        return ((list,) if origin is list else (list, tuple), "a list", parts,
                None if origin is list or ... in args else len(parts))
    if hint is Attack:  # a record of any kind, checked against its own fields
        kinds = tuple(ATTACKS.values())
        return kinds, "an Attack record", {k: _rule(k)[2] for k in kinds}, None
    hints = get_type_hints(hint)
    # the energy constants have their own rule, in the value pass
    parts = () if hint is EnergyParams else tuple(
        (f".{key}", f.name, _rule(hints[f.name]))
        for key, (f, _read) in _TABLES[hint][0].items())
    article = "an" if hint.__name__[0] in "AEIOU" else "a"
    return (hint,), f"{article} {hint.__name__} record", parts, None


def _type_errors(value, rule: tuple) -> List[str]:
    """An error, a path suffix then ": " and the fault, for `value` and each
    part of it that `rule` does not admit; paths are built only for errors."""
    types, wording, parts, size = rule
    if type(value) not in types:
        return [f": must be {wording}, got {value!r}"]
    if type(parts) is dict:  # one of several records: that record's parts
        parts = parts[type(value)]
    if value is None or not parts:
        return []
    if parts[0][1]:  # a record: its fields' values, in the order of parts
        value = [getattr(value, part[1]) for part in parts]
    elif size is None:
        parts *= len(value)
    elif len(value) != size:
        return [f": must be {size} items, got {value!r}"]
    return [(path or f"[{i}]") + e
            for i, (v, (path, _name, rule)) in enumerate(zip(value, parts))
            if type(v) not in rule[0] or (rule[2] and (v or rule[3]))
            for e in _type_errors(v, rule)]


def _crossing_payloads(config: ScenarioConfig
                       ) -> Dict[Tuple[int, int], List[Tuple[int, int]]]:
    """Per link, (source, its shortest payload) of the organic traffic that
    crosses it."""
    shortest: Dict[int, int] = {}
    for t in config.traffic:
        shortest[t.source] = min(t.payload_bytes,
                                 shortest.get(t.source, t.payload_bytes))
    crossing: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for route in config.routes:
        if route and route[0] in shortest:
            for link in zip(route, route[1:]):
                crossing.setdefault(link, []).append(
                    (route[0], shortest[route[0]]))
    return crossing


def _offset_errors(where: str, a: LinkAttack, payload: Optional[int],
                   tail: int) -> List[str]:
    """Errors for the offsets of link attack `a` that fall outside the
    shortest organic frame crossing its link: a header, `payload` bytes of
    payload (None when no traffic crosses) and a `tail`-byte watermark."""
    if isinstance(a, ModifyWatermark):
        return [f"{where}edits: offset {off} is outside the "
                f"{WATERMARK_BYTES}-byte watermark"
                for off, _mask in a.edits if not 0 <= off < WATERMARK_BYTES]
    if payload is None:
        return []
    shortest = f"the shortest frame on {a.from_id}->{a.to_id}"
    bits = (HEADER_BYTES + payload + tail) * 8
    if isinstance(a, ModifyPayload):
        return [f"{where}edits: offset {off} is outside the {payload}-byte "
                f"payload of {shortest}"
                for off, _mask in a.edits if not 0 <= off < payload]
    if isinstance(a, InsertBits) and not 0 <= a.offset_bits <= bits:
        return [f"{where}offset_bits: {a.offset_bits} is outside the {bits} "
                f"bits of {shortest}"]
    if isinstance(a, DeleteBits) and a.offset_bits is None and a.q > bits:
        return [f"{where}q: {a.q} bits is more than the {bits} bits of "
                f"{shortest}"]
    if isinstance(a, DeleteBits) and a.offset_bits is not None \
            and not 0 <= a.offset_bits <= bits - a.q:
        return [f"{where}offset_bits: bits {a.offset_bits}.."
                f"{a.offset_bits + a.q - 1} are outside the {bits} bits of "
                f"{shortest}"]
    return []


# link attacks that cut or pad the frame, and those that parse it: a parser
# after a reshaper on one link meets a frame validate never modelled
_RESHAPERS = (InsertBits, DeleteBits)
_PARSERS = (ModifyPayload, ModifyWatermark) + _RESHAPERS


def _may_meet(a: LinkAttack, b: LinkAttack) -> bool:
    """Whether two attacks' src and seq filters (None matches every value)
    can both match one packet."""
    return all(x is None or y is None or x == y
               for x, y in ((a.src, b.src), (a.seq, b.seq)))


# what a fake_inject's forged fields must hold: (field, test of its value,
# requirement); each goes on the wire or keys the forgery
_FORGED = (
    ("src", lambda src: 0 <= src <= MAX_SRC, "a forged src of 16 bits"),
    ("seq", lambda seq: 0 <= seq <= MAX_SEQ, "a forged seq of 32 bits"),
    ("ip", lambda ip: len(ip) == 4, "a 4-byte forged address"),
    ("payload", lambda p: len(p) <= MAX_PAYLOAD, "a forged payload of < 64 KiB"),
    ("key_material", lambda k: len(k) == KEY_BYTES, f"a {KEY_BYTES}-byte forging key"),
    ("hop", lambda hop: 1 <= hop <= MAX_HOP, f"a forged hop in 1..{MAX_HOP}"),
    ("key_epoch", lambda epoch: epoch >= 0, "a nonnegative forged key epoch"),
)


def validate(config: ScenarioConfig) -> None:
    """Raise ConfigError listing every problem found."""
    # a field's path starts with ".", which the config's own fields drop
    errors = [e[1:] for e in _type_errors(config, _rule(ScenarioConfig))]
    if errors:
        # every check below walks these lists and compares these values
        raise ConfigError(errors)

    if config.mode not in MODES:
        errors.append(f"mode: must be one of {MODES}, got {config.mode!r}")
    if config.freshness_s <= 0:
        errors.append("freshness_s: must be positive")
    if config.per_hop_delay_ms <= 0:
        errors.append("per_hop_delay_ms: must be positive")
    if config.area[0] <= 0 or config.area[1] <= 0:
        errors.append("area: needs positive (length, width)")
    errors += [f"energy.{e}" for e in energy_errors(config.energy)]

    ids: Dict[int, NodeSpec] = {}
    ips = set()
    if not config.nodes:
        errors.append("nodes: at least one node required")
    for ni, n in enumerate(config.nodes):
        if n.id in ids:
            errors.append(f"nodes[{ni}].id: duplicate id {n.id}")
        ids[n.id] = n
        if n.role not in ROLES:
            errors.append(f"nodes[{ni}].role: unknown role {n.role!r}")
        elif n.role == ROLE_SOURCE and not 0 <= n.id <= MAX_SRC:
            errors.append(f"nodes[{ni}].id: a source id must fit 16 bits")
        try:
            ip = parse_ip(n.ip)
            if ip in ips:
                errors.append(f"nodes[{ni}].ip: duplicate address {n.ip}")
            ips.add(ip)
        except ValueError:
            errors.append(f"nodes[{ni}].ip: bad address {n.ip!r}")
        length, width = config.area
        if not (0 <= n.x <= length and 0 <= n.y <= width):
            errors.append(f"nodes[{ni}]: position outside {length}x{width} area")

    links = set()
    routed: Dict[int, int] = {}
    for ri, route in enumerate(config.routes):
        if len(route) < 2:
            errors.append(f"routes[{ri}]: needs at least source and gateway")
            continue
        # the next hop is looked up by (source, node), so a node met twice on
        # a route, or a second route from one source, would run another path
        if len(set(route)) < len(route):
            repeated = sorted(nid for nid, n in Counter(route).items() if n > 1)
            errors.append(f"routes[{ri}]: nodes {repeated} appear more than once")
        if routed.setdefault(route[0], ri) != ri:
            errors.append(f"routes[{ri}]: source {route[0]} already has "
                          f"routes[{routed[route[0]]}]")
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

    # the trip of each source's route; every capture time, taken in whole
    # seconds of the clock, must fit 32 bits, so nothing may run past it
    trips = {r[0]: (len(r) - 1) * config.per_hop_delay_ms
             for r in config.routes if r}
    replay_ms = max((a.delay_ms for a in config.attacks
                     if isinstance(a, Replay)), default=0)
    sent: Dict[int, int] = {}
    for ti, t in enumerate(config.traffic):
        sent[t.source] = sent.get(t.source, 0) + t.count
        if t.source not in ids or ids[t.source].role != ROLE_SOURCE:
            errors.append(f"traffic[{ti}].source: {t.source} is not a source node")
        elif t.source not in trips:
            errors.append(f"traffic[{ti}].source: {t.source} has no route")
        else:
            end_ms = (t.start_ms + (t.count - 1) * t.interval_ms
                      + trips[t.source] + replay_ms)
            if end_ms // 1000 > MAX_CAPTURE_S:
                errors.append(f"traffic[{ti}].start_ms: its packets can be in "
                              f"flight at {end_ms} ms, past the 32-bit "
                              f"capture time ({MAX_CAPTURE_S} s)")
        if t.start_ms < 0:
            errors.append(f"traffic[{ti}].start_ms: must be >= 0")
        if t.count < 1:
            errors.append(f"traffic[{ti}].count: must be >= 1")
        if t.interval_ms < 1:
            errors.append(f"traffic[{ti}].interval_ms: must be >= 1")
        if not 0 <= t.payload_bytes <= MAX_PAYLOAD:
            errors.append(f"traffic[{ti}].payload_bytes: must fit 16 bits")
    for src, total in sent.items():
        if total > MAX_SEQ:
            errors.append(f"traffic: source {src} sends {total} packets, but "
                          f"sequence numbers must fit 32 bits")

    # only link attacks read it
    crossing = _crossing_payloads(config) \
        if any(isinstance(a, LinkAttack) for a in config.attacks) else {}
    tail = 0 if config.mode == MODE_SINGLEHOP else WATERMARK_BYTES
    reshaped: Dict[Tuple[int, int], List[int]] = {}
    for ai, a in enumerate(config.attacks):
        at = f"attacks[{ai}]"
        if a.after_ms < 0:
            errors.append(f"{at}.after_ms: must be >= 0")
        if isinstance(a, LinkAttack):
            link = (a.from_id, a.to_id)
            if link not in links:
                errors.append(
                    f"{at}: link {a.from_id}->{a.to_id} is not on any route")
            if isinstance(a, _PARSERS) or (isinstance(a, Replay)
                                           and a.mutate_timestamp):
                first = next((bi for bi in reshaped.get(link, ())
                              if _may_meet(a, config.attacks[bi])), None)
                if first is not None:
                    errors.append(
                        f"{at}: {a.kind} on {a.from_id}->{a.to_id} "
                        f"would parse frames the "
                        f"{config.attacks[first].kind} of attacks[{first}] "
                        f"has already reshaped")
            if isinstance(a, _RESHAPERS):
                reshaped.setdefault(link, []).append(ai)
            if isinstance(a, Replay) and a.delay_ms < 0:
                errors.append(f"{at}.delay_ms: must be >= 0")
            if isinstance(a, InsertBits):
                if not a.bits:
                    errors.append(f"{at}.bits: insert_bits needs at least one "
                                  f"bit")
                errors += [f"{at}.bits: {b!r} is not a bit (0 or 1)"
                           for b in a.bits if b not in (0, 1)]
            if isinstance(a, DeleteBits) and a.q < 1:
                errors.append(f"{at}.q: delete_bits needs q >= 1")
            if isinstance(a, (ModifyPayload, ModifyWatermark)):
                if not a.edits:
                    errors.append(f"{at}.edits: {a.kind} needs an edit")
                errors += [f"{at}.edits: xor mask {mask} is not a byte (1..255)"
                           for _off, mask in a.edits if not 1 <= mask <= 255]
            if config.mode == MODE_SINGLEHOP and (
                    isinstance(a, ModifyWatermark)
                    or (isinstance(a, Replay) and a.mutate_timestamp)):
                errors.append(
                    f"{at}: singlehop frames carry no watermark to modify")
            payload = min((p for src, p in crossing.get((a.from_id, a.to_id),
                                                        ())
                           if a.src in (None, src)), default=None)
            errors += _offset_errors(f"{at}.", a, payload, tail)
        elif isinstance(a, FakeInject):
            if a.to_id not in ids:
                errors.append(f"{at}.to: inject target {a.to_id} unknown")
            elif ids[a.to_id].role == ROLE_SOURCE:
                errors.append(f"{at}.to: node {a.to_id} is a source, "
                              f"which verifies nothing")
            elif not ids[a.to_id].registered:
                # it could neither store nor retrieve records for the forgery
                errors.append(f"{at}.to: node {a.to_id} is unregistered, "
                              f"and unregistered nodes cannot verify")
            end_ms = a.after_ms + max(trips.values(), default=0)
            if end_ms // 1000 > MAX_CAPTURE_S:
                errors.append(f"{at}.after_ms: its forged frame can "
                              f"be in flight at {end_ms} ms, past the 32-bit "
                              f"capture time ({MAX_CAPTURE_S} s)")
            errors += [f"{at}.{_ATTACK_YAML.get(name, (name,))[0]}: "
                       f"fake_inject needs {need}"
                       for name, fits, need in _FORGED
                       if not fits(getattr(a, name))]

    if config.key_rotation is not None:
        kr = config.key_rotation
        if not 1 <= kr.min_generations <= kr.max_generations:
            errors.append("key_rotation: need 1 <= min_generations <= max_generations")

    # last, on a valid config: T_C = ops * tc_per_op_ms and its energy, which
    # grows with it, must fit a float at the most ops a node runs, 2
    # (OPS_BY_ROLE) per packet, replay and forgery
    kinds, tc = Counter(a.kind for a in config.attacks), config.energy.tc_per_op_ms
    ops = 2 * (sum(sent.values()) * (1 + kinds[Replay.kind])
               + kinds[FakeInject.kind])
    if not errors and not finite_nonnegative(ops * tc):
        errors.append(f"energy.tc_per_op_ms: {ops} ops at {tc!r} ms overflow a float")
    elif not errors:
        try:
            node_energy(config.energy, ops * tc)
        except ValueError as err:
            errors.append(str(err))
    if errors:
        raise ConfigError(errors)


# -- YAML loading ------------------------------------------------------------

def _build(cls, data, where: str, errors: List[str]):
    """A `cls` record from the YAML mapping `data` at path `where`, or None
    on an unknown or missing key, a non-mapping or a failed conversion, each
    appended to `errors` under its path.  validate judges the values."""
    if not isinstance(data, dict):
        errors.append(f"{where or 'top level'}: expected a mapping, got "
                      f"{data!r}")
        return None
    if cls is Attack:  # the record of the kind the mapping names
        data = dict(data)
        kind = data.pop("kind", MISSING)
        cls = ATTACKS.get(kind) if type(kind) is str else None
        if cls is None:
            fault = ("missing required key" if kind is MISSING
                     else f"unknown attack kind {kind!r}")
            errors.append(f"{where}.kind: {fault}")
            return None
    keys, required = _TABLES[cls]
    found = len(errors)
    kwargs = {}
    for key, value in data.items():
        path = f"{where}.{key}" if where else f"{key}"
        if key not in keys:
            errors.append(f"{path}: unknown key")
            continue
        f, read = keys[key]
        try:
            if read is None or (value is None and f.default is None):
                kwargs[f.name] = value
            elif isinstance(read, list):
                kwargs[f.name] = [_build(read[0], item, f"{path}[{i}]", errors)
                                  for i, item in enumerate(_list(value))]
            elif read in _TABLES:
                kwargs[f.name] = _build(read, value, path, errors)
            else:
                kwargs[f.name] = read(value)
        except (TypeError, ValueError, OverflowError) as err:
            errors.append(f"{path}: {err}")
    errors += [f"{where}.{key}: missing required key"
               for key in required if key not in data]
    if len(errors) > found:
        return None
    return cls(**kwargs)


def from_dict(data) -> ScenarioConfig:
    """A config from its YAML shape, or ConfigError listing every problem
    _build finds; every default lives in the dataclasses."""
    errors: List[str] = []
    config = _build(ScenarioConfig, data, "", errors)
    if errors:
        raise ConfigError(errors)
    return config


# libyaml's C scanner and parser where PyYAML was built with it; either
# loader constructs with the same SafeConstructor and resolver, so the
# objects, and every output of a run, are the same
LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(stream) -> ScenarioConfig:
    """Parse a YAML scenario from a stream, string or bytes into a config
    whose values Simulation validates, after any change made to it."""
    try:
        data = yaml.load(stream, Loader=LOADER)
    except yaml.YAMLError as err:
        raise ConfigError([f"yaml: {err}"]) from err
    return from_dict(data)


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
