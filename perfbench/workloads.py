"""Seeded workload generators.

Each generator takes the seed and returns the program's input (scenario YAML
text, or a datagram byte stream) together with the ground truth the checks
compare against.  The program under test sees only the input; the ground
truth is worked out here, independently of the program's own code.

Sizes are fixed per workload so that every seed does the same amount of work
per packet; the seed moves addresses, positions, timing, payloads, keys and
attack placement.
"""
from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import yaml

PacketId = Tuple[int, int]

# organic packets per scenario, sized so one netsim.run takes a few tenths of
# a second on a 2-vCPU host: long enough to time, short enough that a run
# holds many repetitions
LINE_DEEP_PACKETS = 400
FANIN_SOURCES = 50
FANIN_PER_SOURCE = 120
ATTACK_SOURCES = 10
ATTACK_PER_SOURCE = 150
DATAGRAMS = 20000

LINE_INTERMEDIATES = 10
ATTACK_INTERMEDIATES = 3

# link attacks carried by one route each in attack_mix, on every packet, and
# the link of the route (0 = source to first intermediate) each one sits on;
# the placement is fixed so that store and queue occupancy do not depend on
# the seed
ATTACK_LINKS = {"eavesdrop": 0, "replay": 0, "insert_bits": 1,
                "delete_bits": 2, "modify_payload": 1,
                "modify_watermark": 2, "drop": 3}
# kinds that leave the organic frame untouched, so the packet must still
# be accepted
HARMLESS_KINDS = ("eavesdrop", "replay")
FORGED_SHARE = 0.10      # of clean-route packets targeted by fake_inject
STORE_PROBES = 8
PROBE_CALLER = 666       # an id no node or gateway has

HEADER_BYTES = 9         # multihop frame header: src:2 seq:4 hop:1 len:2
WATERMARK_BYTES = 24


@dataclass
class SimWorkload:
    """A simulator scenario plus what a correct run must produce."""

    name: str
    yaml_text: str
    packets: int
    # ip of every node on each source's route, gateway excluded, hop order
    route_ips: Dict[int, List[str]]
    # ground truth per organic packet: should the gateway accept it?
    expect_accept: Dict[PacketId, bool]
    # genuine packets a fake_inject frame was aimed at; their loss is the
    # known collateral damage of forged frames and counts as failed
    forged_targets: Set[PacketId] = field(default_factory=set)
    probes: int = 0


def _ips(rng: random.Random, n: int) -> List[str]:
    picks = rng.sample(range(1, 1 << 16), n)
    return [f"10.{rng.randint(0, 255)}.{p >> 8}.{p & 0xFF}" for p in picks]


def _pos(rng: random.Random) -> Tuple[float, float]:
    return round(rng.uniform(0, 100), 2), round(rng.uniform(0, 100), 2)


def _node(nid: int, ip: str, role: str, rng: random.Random) -> dict:
    x, y = _pos(rng)
    return {"id": nid, "ip": ip, "role": role, "x": x, "y": y}


def _scenario(rng: random.Random, mode: str, nodes, routes, traffic,
              rotation, attacks=()) -> str:
    doc = {
        "seed": rng.randrange(1 << 31),
        "mode": mode,
        "freshness_s": 60,
        "per_hop_delay_ms": rng.randint(200, 400),
        "area": [100.0, 100.0],
        "key_rotation": rotation,
        "nodes": nodes,
        "routes": routes,
        "traffic": traffic,
        "attacks": list(attacks),
    }
    return yaml.safe_dump(doc, sort_keys=False)


def line_deep(seed: int, packets: int = LINE_DEEP_PACKETS) -> SimWorkload:
    """One source, ten intermediates, one gateway; no key rotation."""
    rng = random.Random(f"line_deep/{seed}")
    ids = list(range(1, LINE_INTERMEDIATES + 3))
    ips = _ips(rng, len(ids))
    roles = ["source"] + ["intermediate"] * LINE_INTERMEDIATES + ["gateway"]
    nodes = [_node(i, ip, role, rng) for i, ip, role in zip(ids, ips, roles)]
    traffic = [{"source": 1, "count": packets,
                "interval_ms": rng.randint(900, 1100),
                "start_ms": rng.randint(0, 999), "payload_bytes": 16}]
    text = _scenario(rng, "multihop", nodes, [ids], traffic, None)
    return SimWorkload(
        name="line_deep", yaml_text=text, packets=packets,
        route_ips={1: ips[:-1]},
        expect_accept={(1, s): True for s in range(1, packets + 1)},
    )


def fanin_singlehop(seed: int, per_source: int = FANIN_PER_SOURCE,
                    sources: int = FANIN_SOURCES) -> SimWorkload:
    """Many sources straight to one gateway, singlehop, fast-ish rotation."""
    rng = random.Random(f"fanin_singlehop/{seed}")
    gateway = sources + 1
    ips = _ips(rng, sources + 1)
    nodes = [_node(i, ips[i - 1], "source", rng) for i in range(1, gateway)]
    nodes.append(_node(gateway, ips[-1], "gateway", rng))
    routes = [[i, gateway] for i in range(1, gateway)]
    traffic = [{"source": i, "count": per_source,
                "interval_ms": rng.randint(800, 1200),
                "start_ms": rng.randint(0, 5000), "payload_bytes": 16}
               for i in range(1, gateway)]
    rotation = {"min_generations": 40, "max_generations": 80}
    text = _scenario(rng, "singlehop", nodes, routes, traffic, rotation)
    return SimWorkload(
        name="fanin_singlehop", yaml_text=text, packets=sources * per_source,
        route_ips={i: [ips[i - 1]] for i in range(1, gateway)},
        expect_accept={(i, s): True for i in range(1, gateway)
                       for s in range(1, per_source + 1)},
    )


def _link_attack(kind: str, frm: int, to: int, frame_bytes: int,
                 payload_bytes: int, rng: random.Random) -> dict:
    attack = {"kind": kind, "from": frm, "to": to}
    frame_bits = frame_bytes * 8
    if kind == "replay":
        # lands long after the original was accepted and its records purged
        attack["delay_ms"] = 30000
    elif kind == "insert_bits":
        # whole bytes after the header: the header stays readable, so the
        # rejection is attributed to the right packet
        attack["offset_bits"] = rng.randint(HEADER_BYTES * 8, frame_bits - 8)
        attack["bits"] = [rng.randint(0, 1) for _ in range(8)]
    elif kind == "delete_bits":
        attack["q"] = 8
        attack["offset_bits"] = rng.randint(HEADER_BYTES * 8, frame_bits - 8)
    elif kind in ("modify_payload", "modify_watermark"):
        region = payload_bytes if kind == "modify_payload" else WATERMARK_BYTES
        # distinct offsets, so two masks can never cancel out
        offsets = rng.sample(range(region), rng.randint(1, 3))
        attack["edits"] = [[off, rng.randint(1, 255)] for off in offsets]
    return attack


def attack_mix(seed: int, per_source: int = ATTACK_PER_SOURCE,
               sources: int = ATTACK_SOURCES) -> SimWorkload:
    """Ten 3-intermediate routes; seven carry one link attack each on every
    packet, the rest stay clean but draw forged frames and store probes."""
    rng = random.Random(f"attack_mix/{seed}")
    payload_bytes = 64
    frame_bytes = HEADER_BYTES + payload_bytes + WATERMARK_BYTES
    gateway = sources * (ATTACK_INTERMEDIATES + 1) + 1
    ips = _ips(rng, gateway)
    nodes, routes, traffic, attacks = [], [], [], []
    route_ips: Dict[int, List[str]] = {}
    for s in range(1, sources + 1):
        mids = [sources + (s - 1) * ATTACK_INTERMEDIATES + k
                for k in range(1, ATTACK_INTERMEDIATES + 1)]
        nodes.append(_node(s, ips[s - 1], "source", rng))
        nodes.extend(_node(m, ips[m - 1], "intermediate", rng) for m in mids)
        routes.append([s] + mids + [gateway])
        route_ips[s] = [ips[n - 1] for n in [s] + mids]
        traffic.append({"source": s, "count": per_source,
                        "interval_ms": rng.randint(900, 1100),
                        "start_ms": rng.randint(0, 999),
                        "payload_bytes": payload_bytes})
    nodes.append(_node(gateway, ips[-1], "gateway", rng))

    order = list(range(1, sources + 1))
    rng.shuffle(order)
    kind_of: Dict[int, Optional[str]] = {s: None for s in order}
    for s, (kind, hop) in zip(order, ATTACK_LINKS.items()):
        route = routes[s - 1]
        kind_of[s] = kind
        attacks.append(_link_attack(kind, route[hop], route[hop + 1],
                                    frame_bytes, payload_bytes, rng))

    expect: Dict[PacketId, bool] = {}
    for s, kind in kind_of.items():
        for q in range(1, per_source + 1):
            expect[(s, q)] = kind is None or kind in HARMLESS_KINDS

    forged: Set[PacketId] = set()
    for s in sorted(s for s, kind in kind_of.items() if kind is None):
        t = traffic[s - 1]
        for q in sorted(rng.sample(range(1, per_source + 1),
                                   max(1, int(per_source * FORGED_SHARE)))):
            emitted_ms = t["start_ms"] + (q - 1) * t["interval_ms"]
            forged.add((s, q))
            attacks.append({
                "kind": "fake_inject", "to": routes[s - 1][1], "src": s,
                "seq": q, "after_ms": emitted_ms + rng.randint(50, 250),
                "ip": ips[s - 1], "payload_hex": rng.randbytes(16).hex(),
                "key_material_hex": rng.randbytes(16).hex(),
                "key_epoch": 999, "hop": 1,
            })

    for _ in range(STORE_PROBES):
        s = rng.randint(1, sources)
        attacks.append({"kind": "store_probe", "caller_id": PROBE_CALLER,
                        "src": s, "seq": rng.randint(1, per_source),
                        "after_ms": rng.randint(0, per_source * 1000)})

    rotation = {"min_generations": 15, "max_generations": 25}
    text = _scenario(rng, "multihop", nodes, routes, traffic, rotation, attacks)
    return SimWorkload(
        name="attack_mix", yaml_text=text, packets=sources * per_source,
        route_ips=route_ips, expect_accept=expect, forged_targets=forged,
        probes=STORE_PROBES,
    )


# -- datagram_filter -----------------------------------------------------------

AUTHENTIC = "internal_authenticated"
FORGED = "internal_forged"
EXTERNAL = "requires_ids"

# share of each datagram class in the stream
DATAGRAM_SHARES = ((AUTHENTIC, 0.4), (FORGED, 0.2), (EXTERNAL, 0.4))
LABEL_MODES = ("lsb32", "prng")
# each label mode guards its own internal subnet, 10.<subnet>.0.0/16
MODE_SUBNET = {"lsb32": 1, "prng": 2}
INTERNAL_PAYLOAD = 32
INTERNAL_SIZE = 14 + INTERNAL_PAYLOAD
_IP_HEADER = struct.Struct(">HHH4s4s")


@dataclass
class DatagramWorkload:
    """A stream of modelled IPv4 datagrams, back to back; each header's
    total-length field delimits it."""

    name: str
    stream: bytes
    count: int
    prng_seed: int
    # per datagram, in stream order: (the sender labels it before sending,
    # expected class at the receiver)
    truth: List[Tuple[bool, str]]
    # reference label for every datagram the sender labels
    labels: Dict[int, int]


def reference_label(dst: bytes, payload: bytes, mode: str, seed: int) -> int:
    """The 32 label bits, computed from the scheme's definition rather than
    the program's code."""
    prefix = payload[:20].ljust(20, b"\0")
    d = hashlib.sha256(dst + prefix).digest()
    if mode == "lsb32":
        return int.from_bytes(d[-4:], "big")
    positions = random.Random(seed).sample(range(256), 32)
    value = 0
    for pos in positions:
        value = (value << 1) | ((d[pos // 8] >> (7 - pos % 8)) & 1)
    return value


def _datagram(src: bytes, dst: bytes, payload: bytes, label: int = 0) -> bytes:
    head = _IP_HEADER.pack(14 + len(payload), label >> 16,
                           label & 0xFFFF, src, dst)
    return head + payload


def is_internal(ip: bytes) -> bool:
    return ip[0] == 10


def label_mode(dst: bytes) -> str:
    """The label mode that guards a destination's subnet."""
    return "prng" if is_internal(dst) and dst[1] == MODE_SUBNET["prng"] \
        else "lsb32"


def _internal_ip(rng: random.Random, mode: str) -> bytes:
    return bytes([10, MODE_SUBNET[mode], rng.randint(0, 255),
                  rng.randint(1, 254)])


def _external_ip(rng: random.Random) -> bytes:
    return bytes([rng.choice((172, 192, 203)), rng.randint(0, 255),
                  rng.randint(0, 255), rng.randint(1, 254)])


def datagram_filter(seed: int, count: int = DATAGRAMS) -> DatagramWorkload:
    rng = random.Random(f"datagram_filter/{seed}")
    prng_seed = rng.randrange(1 << 31)
    classes = [cls for cls, share in DATAGRAM_SHARES
               for _ in range(round(count * share))][:count]
    rng.shuffle(classes)
    chunks, truth, labels = [], [], {}
    for i, cls in enumerate(classes):
        mode = rng.choice(LABEL_MODES)
        src, dst = _internal_ip(rng, mode), _internal_ip(rng, mode)
        payload = rng.randbytes(INTERNAL_PAYLOAD)
        if cls == AUTHENTIC:
            # unlabelled on the stream: the sender labels it
            chunks.append(_datagram(src, dst, payload))
            truth.append((True, cls))
            labels[i] = reference_label(dst, payload, mode, prng_seed)
        elif cls == FORGED:
            good = reference_label(dst, payload, mode, prng_seed)
            label = rng.getrandbits(32)
            while label == good:
                label = rng.getrandbits(32)
            chunks.append(_datagram(src, dst, payload, label))
            truth.append((False, cls))
        else:
            # an outside address on either end, or internal addresses at a
            # size internal datagrams never have
            variant = rng.randrange(3)
            if variant == 0:
                src = _external_ip(rng)
            elif variant == 1:
                dst = _external_ip(rng)
            else:
                payload = rng.randbytes(rng.choice(
                    [n for n in range(0, 96) if n != INTERNAL_PAYLOAD]))
            chunks.append(_datagram(src, dst, payload, rng.getrandbits(32)))
            truth.append((False, cls))
    return DatagramWorkload(name="datagram_filter", stream=b"".join(chunks),
                            count=len(classes), prng_seed=prng_seed,
                            truth=truth, labels=labels)


def split_stream(stream: bytes) -> List[bytes]:
    """Cut a datagram stream at each header's total-length field."""
    out, pos = [], 0
    while pos < len(stream):
        total = int.from_bytes(stream[pos:pos + 2], "big")
        if total < 14 or pos + total > len(stream):
            raise ValueError(f"bad datagram length {total} at offset {pos}")
        out.append(stream[pos:pos + total])
        pos += total
    return out


GENERATORS = {
    "line_deep": line_deep,
    "fanin_singlehop": fanin_singlehop,
    "attack_mix": attack_mix,
    "datagram_filter": datagram_filter,
}
