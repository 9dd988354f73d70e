"""Deterministic discrete-event simulator.

One run is a pure function of its ScenarioConfig.  The clock is simulated
milliseconds (int64); events pop in nondecreasing time order with insertion
order breaking ties.  Every random draw comes from a sub-generator seeded
with a string derived from the master seed and a purpose tag, so adding a
consumer never perturbs the draws of another.

The run produces a line-oriented event log (emit, deliver, attack, rotate,
verdict, and store operations) and a JSON-ready report aggregating each
packet's fate.
"""
from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from . import adversary, events
from .adversary import FAKE_INJECT, STORE_PROBE, AttackSpec
from .nodes import (
    ACCEPTED,
    GatewayNode,
    IntermediateNode,
    KeyRing,
    NodeIdentity,
    ROLE_GATEWAY,
    ROLE_INTERMEDIATE,
    ROLE_SOURCE,
    SourceNode,
    VerificationVerdict,
    rotate_keys,
)
from .crypto import SymmetricKey
from .provstore import ProvenanceStore
from .scenario import MODE_SINGLEHOP, ScenarioConfig, validate
from .watermark import parse_ip

# provenance of a delivery: organic traffic, an attacker's replayed copy,
# or an attacker-forged injection
FLOW_ORGANIC = "organic"
FLOW_REPLAYED = "replayed"
FLOW_FAKE = "fake"

# watermark operations charged per processed packet, by role; the proxy for
# computation time in the energy model
OPS_BY_ROLE = {ROLE_SOURCE: 1, ROLE_INTERMEDIATE: 2, ROLE_GATEWAY: 2}


@dataclass
class _PacketState:
    source: int
    seq: int
    route: List[int]
    emitted_ms: int
    status: str = "in_flight"  # accepted | rejected | dropped | in_flight
    final: Optional[dict] = None
    path: Optional[list] = None
    verdicts: List[dict] = field(default_factory=list)


@dataclass
class SimResult:
    config: ScenarioConfig
    log: List[str]
    report: dict
    store: ProvenanceStore
    captures: List[bytes]

    def log_text(self) -> str:
        return "\n".join(self.log) + "\n"


class Simulation:
    def __init__(self, config: ScenarioConfig):
        validate(config)
        self.config = config
        self.now = 0
        self._queue: list = []
        self._order = itertools.count()
        self.log: List[str] = []
        self.captures: List[bytes] = []

        self.store = ProvenanceStore(clock=lambda: self.now, log=self.log)

        self._rngs: Dict[str, random.Random] = {}
        initial = SymmetricKey(material=self._rng("keys").randbytes(16), epoch=0)
        self.keyring = KeyRing(initial)
        self._generations = 0
        self._rotations = 0
        self._rotation_threshold: Optional[int] = None
        if config.key_rotation is not None:
            self._rotation_threshold = self._rng("rotation").randint(
                config.key_rotation.min_generations,
                config.key_rotation.max_generations,
            )

        self.identities: Dict[int, NodeIdentity] = {}
        for spec in config.nodes:
            self.identities[spec.id] = NodeIdentity(
                id=spec.id, ip=parse_ip(spec.ip), role=spec.role,
                registered=spec.registered,
            )

        self.sources: Dict[int, SourceNode] = {}
        self.intermediates: Dict[int, IntermediateNode] = {}
        self.gateways: Dict[int, GatewayNode] = {}
        for ident in self.identities.values():
            if ident.role == ROLE_SOURCE:
                self.sources[ident.id] = SourceNode(ident, self.keyring, self.store)
                if ident.registered:
                    self.store.register_node(ident.id)
            elif ident.role == ROLE_INTERMEDIATE:
                self.intermediates[ident.id] = IntermediateNode(
                    ident, self.keyring, self.store)
                if ident.registered:
                    self.store.register_node(ident.id)
            else:
                self.gateways[ident.id] = GatewayNode(
                    ident, self.keyring, self.store, self.identities,
                    freshness_s=config.freshness_s,
                    purge_on_delivery=config.purge_on_delivery,
                )
                if ident.registered:
                    self.store.register_gateway(ident.id)

        # next hop along each configured route
        self._route_of_source: Dict[int, List[int]] = {}
        self._next_hop: Dict[Tuple[int, int], int] = {}
        for route in config.routes:
            self._route_of_source[route[0]] = route
            for a, b in zip(route, route[1:]):
                self._next_hop[(route[0], a)] = b

        self._link_attacks: Dict[Tuple[int, int], List[AttackSpec]] = {}
        for attack in config.attacks:
            if attack.kind in adversary.LINK_KINDS:
                key = (attack.from_id, attack.to_id)
                self._link_attacks.setdefault(key, []).append(attack)
            elif attack.kind == FAKE_INJECT:
                self._schedule(attack.after_ms, "inject", attack=attack)
            elif attack.kind == STORE_PROBE:
                self._schedule(attack.after_ms, "probe", attack=attack)

        self.packets: Dict[Tuple[int, int], _PacketState] = {}
        self.node_packets: Dict[int, int] = {i: 0 for i in self.identities}
        self.node_ops: Dict[int, int] = {i: 0 for i in self.identities}

        # one heapify in place of a push per emit: the (time, order) keys are
        # unique, so the pop order is the same.  Handlers never change a
        # payload, so a traffic entry's emits share one.
        for traffic in config.traffic:
            payload = {"source": traffic.source,
                       "payload_bytes": traffic.payload_bytes}
            self._queue.extend(
                (traffic.start_ms + i * traffic.interval_ms, next(self._order),
                 "emit", payload)
                for i in range(traffic.count))
        heapq.heapify(self._queue)

    # -- plumbing ------------------------------------------------------------

    def _rng(self, purpose: str) -> random.Random:
        if purpose not in self._rngs:
            self._rngs[purpose] = random.Random(f"{self.config.seed}/{purpose}")
        return self._rngs[purpose]

    def _schedule(self, time: int, kind: str, **payload) -> None:
        heapq.heappush(self._queue, (time, next(self._order), kind, payload))

    def _log_attack(self, attack: AttackSpec, src, seq, detail: str) -> None:
        self.log.append(events.attack(attack.kind, attack.target_label(), src,
                                      seq, detail, self.now))

    def _record_verdict(self, verdict: VerificationVerdict, flow: str) -> None:
        self.log.append(events.verdict(*verdict))
        key = (verdict.src, verdict.seq)
        state = self.packets.get(key)
        entry = {
            "outcome": verdict.outcome, "node": verdict.node,
            "hop": verdict.hop, "time": verdict.time, "flow": flow,
        }
        if state is not None:
            state.verdicts.append(entry)
            # only a gateway accept is terminal; the caller handles it
            if (flow == FLOW_ORGANIC and state.status == "in_flight"
                    and verdict.outcome != ACCEPTED):
                state.status = "rejected"
                state.final = entry

    def _maybe_rotate(self) -> None:
        if self._rotation_threshold is None:
            return
        while self._generations >= self._rotation_threshold:
            self._generations -= self._rotation_threshold
            key = rotate_keys(self.keyring, self._rng("keys"))
            self._rotations += 1
            self.log.append(events.rotate(key.epoch, self.now))
            self._rotation_threshold = self._rng("rotation").randint(
                self.config.key_rotation.min_generations,
                self.config.key_rotation.max_generations,
            )

    # -- link transmission ---------------------------------------------------

    def _send(self, route_src: int, from_id: int, data: bytes,
              src: int, seq: int, hop: int, flow: str) -> None:
        to_id = self._next_hop.get((route_src, from_id))
        if to_id is None:
            return
        if flow == FLOW_ORGANIC:
            for attack in self._link_attacks.get((from_id, to_id), []):
                if not attack.matches(src, seq, self.now):
                    continue
                result = adversary.apply(attack, data)
                self._log_attack(attack, src, seq, result.detail)
                if result.capture is not None:
                    self.captures.append(result.capture)
                if result.replay is not None:
                    copy, delay = result.replay
                    self._schedule(self.now + delay, "deliver", to=to_id,
                                   data=copy, src=src, seq=seq, hop=hop,
                                   route_src=route_src, flow=FLOW_REPLAYED)
                if result.deliver is None:
                    state = self.packets.get((src, seq))
                    if state is not None and state.status == "in_flight":
                        state.status = "dropped"
                    return
                data = result.deliver
        self._schedule(self.now + self.config.per_hop_delay_ms, "deliver",
                       to=to_id, data=data, src=src, seq=seq, hop=hop,
                       route_src=route_src, flow=flow)

    # -- event handlers ------------------------------------------------------

    def _handle_emit(self, payload_bytes: int, source: int) -> None:
        node = self.sources[source]
        payload = self._rng(f"payload/{source}").randbytes(payload_bytes)
        if self.config.mode == MODE_SINGLEHOP:
            pkt = node.emit_singlehop(payload, self.now)
        else:
            pkt = node.emit_multihop(payload, self.now)
        self.node_packets[source] += 1
        self.node_ops[source] += OPS_BY_ROLE[ROLE_SOURCE]
        self._generations += 1
        self.log.append(events.emit(source, pkt.src, pkt.seq, pkt.hop,
                                    self.now))
        self.packets[(pkt.src, pkt.seq)] = _PacketState(
            source=pkt.src, seq=pkt.seq,
            route=list(self._route_of_source[source]), emitted_ms=self.now,
        )
        self._send(source, source, pkt.to_bytes(), pkt.src, pkt.seq, pkt.hop,
                   FLOW_ORGANIC)

    def _handle_deliver(self, to: int, data: bytes, src: int, seq: int,
                        hop: int, route_src: int, flow: str) -> None:
        self.log.append(events.deliver(to, src, seq, hop, self.now))
        self.node_packets[to] += 1
        state = self.packets.get((src, seq))

        if to in self.intermediates:
            node = self.intermediates[to]
            self.node_ops[to] += OPS_BY_ROLE[ROLE_INTERMEDIATE]
            verdict, forwarded = node.process(data, self.now)
            self._record_verdict(verdict, flow)
            if forwarded is not None:
                self._generations += 1
                self._send(route_src, to, forwarded.to_bytes(), src, seq,
                           forwarded.hop, flow)
            return

        if to in self.gateways:
            node = self.gateways[to]
            self.node_ops[to] += OPS_BY_ROLE[ROLE_GATEWAY]
            if self.config.mode == MODE_SINGLEHOP:
                verdict, path = node.verify_singlehop(data, self.now)
            else:
                verdict, path = node.verify_multihop(data, self.now)
            self._record_verdict(verdict, flow)
            if verdict.outcome == ACCEPTED and flow == FLOW_ORGANIC \
                    and state is not None and state.status == "in_flight":
                state.status = "accepted"
                state.final = state.verdicts[-1]
                state.path = path
            return

        raise RuntimeError(f"delivery to non-verifying node {to}")

    def _handle_inject(self, attack: AttackSpec) -> None:
        frame = adversary.build_fake_frame(attack, self.now // 1000, attack.seq)
        self._log_attack(attack, attack.src, attack.seq,
                         events.detail(epoch=attack.key_epoch, hop=attack.hop))
        self._schedule(self.now + self.config.per_hop_delay_ms, "deliver",
                       to=attack.to_id, data=frame, src=attack.src,
                       seq=attack.seq, hop=attack.hop,
                       route_src=attack.src, flow=FLOW_FAKE)

    def _handle_probe(self, attack: AttackSpec) -> None:
        observed = adversary.run_store_probe(attack, self.store,
                                             attack.src, attack.seq)
        self._log_attack(attack, attack.src, attack.seq,
                         events.detail(caller=attack.caller_id, result=observed))

    # -- main loop -----------------------------------------------------------

    def step(self) -> bool:
        """Process one event; False when the queue is exhausted."""
        if not self._queue:
            return False
        time, _, kind, payload = heapq.heappop(self._queue)
        if time < self.now:
            raise RuntimeError("event queue went backwards")
        self.now = time
        handler = getattr(self, f"_handle_{kind}")
        handler(**payload)
        self._maybe_rotate()
        return True

    def run(self) -> SimResult:
        while self.step():
            pass
        return SimResult(config=self.config, log=self.log,
                         report=self._build_report(), store=self.store,
                         captures=self.captures)

    # -- reporting -----------------------------------------------------------

    def _build_report(self) -> dict:
        counts = {"emitted": len(self.packets), "accepted": 0, "rejected": 0,
                  "dropped": 0, "in_flight": 0}
        packets = {}
        for (src, seq), state in sorted(self.packets.items()):
            # anything still untouched at drain time never reached a verdict
            if state.status == "in_flight":
                state.status = "dropped" if self.store.record_count(src, seq) \
                    else "in_flight"
            counts[state.status] += 1
            packets[f"{src}:{seq}"] = {
                "source": src,
                "seq": seq,
                "route": state.route,
                "emitted_ms": state.emitted_ms,
                "status": state.status,
                "final": state.final,
                "path": state.path,
                "verdicts": state.verdicts,
                "store_records": self.store.record_count(src, seq),
            }
        # a post-run sweep with the clock pushed past the timeout flags every
        # unretrieved set; with purged deliveries those are exactly the drops
        timeout = self.config.timeout_ms()
        suspects = self.store.sweep_stale(self.now + timeout + 1, timeout)
        nodes = {}
        for nid in sorted(self.identities):
            ident = self.identities[nid]
            nodes[str(nid)] = {
                "role": ident.role,
                "packets": self.node_packets[nid],
                "watermark_ops": self.node_ops[nid],
                "t_c_ms": self.node_ops[nid] * self.config.energy.tc_per_op_ms,
            }
        return {
            "seed": self.config.seed,
            "mode": self.config.mode,
            "counts": counts,
            "packets": packets,
            "drops_suspected": [list(s) for s in suspects],
            "nodes": nodes,
            "rotations": self._rotations,
            "final_epoch": self.keyring.current.epoch,
            "energy": asdict(self.config.energy),
        }


def run(config: ScenarioConfig) -> SimResult:
    return Simulation(config).run()
