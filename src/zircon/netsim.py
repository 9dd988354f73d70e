"""Deterministic discrete-event simulator.

One run is a pure function of its ScenarioConfig.  The clock is simulated
milliseconds (int64); events pop in nondecreasing time order.  Ties go to
set-up's inject and probe events first, then to emits in traffic-entry order,
then to run-time events in the order they were queued.  Each traffic entry
keeps one emit queued, under one tie-break place for all its emits, and
handling an emit queues the entry's next one.  Every random
draw comes from a sub-generator seeded with a string derived from the master
seed and a purpose tag, so adding a consumer never perturbs the draws of
another.

The run produces a line-oriented event log (emit, deliver, attack, rotate,
verdict, and store operations) and a JSON-ready report aggregating each
packet's fate.
"""
from __future__ import annotations

import heapq
import itertools
import json
import operator
import random
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, List, Optional, Tuple, Union

from . import adversary, events
from .adversary import FAKE_INJECT, STORE_PROBE, AttackSpec
from .nodes import (
    ACCEPTED,
    GatewayNode,
    IntermediateNode,
    KeyRing,
    ROLE_GATEWAY,
    ROLE_INTERMEDIATE,
    ROLE_SOURCE,
    SourceNode,
)
from .crypto import KEY_BYTES, SymmetricKey
from .provstore import ProvenanceStore
from .scenario import MODE_SINGLEHOP, ScenarioConfig, TrafficSpec, validate
from .watermark import parse_ip

# provenance of a delivery: organic traffic, an attacker's replayed copy,
# or an attacker-forged injection
FLOW_ORGANIC = "organic"
FLOW_REPLAYED = "replayed"
FLOW_FAKE = "fake"

# watermark operations charged per processed packet, by role; the proxy for
# computation time in the energy model.  Only sources emit and only verifiers
# are delivered to, so a node's count is its packets times its role's charge.
OPS_BY_ROLE = {ROLE_SOURCE: 1, ROLE_INTERMEDIATE: 2, ROLE_GATEWAY: 2}


@dataclass
class SimResult:
    log: List[str]
    report: dict

    def log_text(self) -> str:
        return "\n".join(self.log) + "\n"

    def report_text(self) -> str:
        """The report as `json.dumps(report, indent=2, sort_keys=True)` plus
        a newline, byte for byte.  With an indent, json takes its pure-Python
        encoder, so the packet entries, the bulk of the file, are written
        from one template per entry shape; the other top-level values are
        small and go through json.  The key sets live twice, in
        `_handle_emit` and `_record_verdict` and in the templates;
        test_report_text_matches_the_simulated_report keeps them together."""
        parts = []
        for key, value in sorted(self.report.items()):
            if key == "packets":
                text = _packets_text(value)
            else:
                # encoded JSON holds no raw newline, so this only re-indents
                text = json.dumps(value, indent=2, sort_keys=True
                                  ).replace("\n", _P2)
            parts.append(f"{_P2}{_quote(key)}: {text}")
        return "{" + ",".join(parts) + "\n}\n"


# a newline and the indent of each depth of report.json
_P2, _P4, _P6, _P8, _P10 = ("\n" + " " * n for n in (2, 4, 6, 8, 10))
# a verdict entry with its braces at depth 6 (`final`) and 8 (in `verdicts`)
_V6, _V8 = (f'{{{p}  "flow": %s,{p}  "hop": %s,{p}  "node": %s,'
            f'{p}  "outcome": %s,{p}  "time": %s{p}}}' for p in (_P6, _P8))
_VERDICT_KEYS = operator.itemgetter("flow", "hop", "node", "outcome", "time")
_PACKET_KEYS = operator.itemgetter("emitted_ms", "final", "path", "route",
                                   "seq", "source", "status", "store_records",
                                   "verdicts")


def _packet_template(no_final: bool, path_len: int, route_len: int,
                     verdict_count: int) -> str:
    """The `%` template of a packet entry of one shape, from its key at
    depth 4 to its closing brace; a path of length -1 is null."""
    def listed(item: str, n: int) -> str:
        return "[" + ",".join([_P8 + item] * n) + _P6 + "]" if n else "[]"
    path = "null" if path_len < 0 else listed(
        f"[{_P10}%s,{_P10}%s{_P8}]", path_len)
    return (f'{_P4}%s: {{{_P6}"emitted_ms": %s,'
            f'{_P6}"final": {"null" if no_final else _V6},'
            f'{_P6}"path": {path},{_P6}"route": {listed("%s", route_len)},'
            f'{_P6}"seq": %s,{_P6}"source": %s,{_P6}"status": %s,'
            f'{_P6}"store_records": %s,'
            f'{_P6}"verdicts": {listed(_V8, verdict_count)}{_P4}}}')


def _packets_text(packets: dict) -> str:
    """The packets object, its entries in key string order.  An entry's
    shape is whether `final` and `path` are null and the lengths of `path`,
    `route` and `verdicts`; each entry is one `%` into its shape's template,
    every leaf written by json's rule: a plain int in decimal, a string
    quoted, anything else (None, a float, a bool) through json."""
    if not packets:
        return "{}"
    templates: Dict[tuple, str] = {}
    entries = []
    for key in sorted(packets):
        (emitted, final, path, route, seq, source, status, records,
         verdicts) = _PACKET_KEYS(packets[key])
        # -1, not True, marks a null path: True == 1 would share a key
        shape = (final is None, -1 if path is None else len(path), len(route),
                 len(verdicts))
        template = templates.get(shape)
        if template is None:
            template = templates[shape] = _packet_template(*shape)
        leaves = [key, emitted]
        if final is not None:
            leaves += _VERDICT_KEYS(final)
        for ip, t in path or ():
            leaves += (ip, t)
        leaves += route
        leaves += (seq, source, status, records)
        for v in verdicts:
            leaves += _VERDICT_KEYS(v)
        entries.append(template % tuple([
            v if type(v) is int else _quote(v) if type(v) is str
            else json.dumps(v) for v in leaves]))
    return "{" + ",".join(entries) + _P2 + "}"


class Simulation:
    def __init__(self, config: ScenarioConfig):
        validate(config)
        self.config = config
        self.now = 0
        self._queue: list = []
        self._order = itertools.count()
        self.log: List[str] = []

        self.store = ProvenanceStore(clock=lambda: self.now, log=self.log)

        # the wire profile is fixed for the run; its methods are read off the
        # classes here, not at import, so a wrapper put on a class sees them
        singlehop = config.mode == MODE_SINGLEHOP
        self._emit = (SourceNode.emit_singlehop if singlehop
                      else SourceNode.emit_multihop)
        self._verify = (GatewayNode.verify_singlehop if singlehop
                        else GatewayNode.verify_multihop)

        self._rngs: Dict[str, random.Random] = {}
        initial = SymmetricKey(self._rng("keys").randbytes(KEY_BYTES), 0)
        self.keyring = KeyRing(initial)
        self._generations = 0
        self._rotation_threshold: Optional[int] = (
            None if config.key_rotation is None else self._next_rotation())

        # every node by id; its class's `role` picks what a delivery runs.
        # The gateways' `origins` holds the ip of every registered node.
        self.nodes: Dict[int, Union[SourceNode, IntermediateNode,
                                    GatewayNode]] = {}
        origins: Dict[int, bytes] = {}
        for spec in config.nodes:
            ip = parse_ip(spec.ip)
            if spec.role == ROLE_SOURCE:
                node = SourceNode(spec.id, ip, self.keyring, self.store)
            elif spec.role == ROLE_INTERMEDIATE:
                node = IntermediateNode(spec.id, ip, self.keyring, self.store)
            else:
                node = GatewayNode(spec.id, ip, self.keyring, self.store,
                                   origins, freshness_s=config.freshness_s)
            self.nodes[spec.id] = node
            if spec.registered:
                origins[spec.id] = ip
                if spec.role == ROLE_GATEWAY:
                    self.store.register_gateway(spec.id)
                else:
                    self.store.register_node(spec.id)

        # each source's route, one copy its packet entries share.  A frame at
        # hop h crosses route[h - 1] -> route[h]: only a routed source opens a
        # set, and a frame is forwarded only when its hop matched the store
        self._route_of_source: Dict[int, List[int]] = {
            route[0]: list(route) for route in config.routes}

        self._link_attacks: Dict[Tuple[int, int], List[AttackSpec]] = {}
        for attack in config.attacks:
            if attack.kind in adversary.LINK_KINDS:
                key = (attack.from_id, attack.to_id)
                self._link_attacks.setdefault(key, []).append(attack)
            elif attack.kind == FAKE_INJECT:
                self._schedule(attack.after_ms, self._handle_inject, (attack,))
            elif attack.kind == STORE_PROBE:
                self._schedule(attack.after_ms, self._handle_probe, (attack,))

        # each packet's report.json entry, kept from its emission on
        self.packets: Dict[Tuple[int, int], dict] = {}
        self.node_packets: Dict[int, int] = {i: 0 for i in self.nodes}

        # entry i's emits all hold place first + i, after the inject and
        # probe events above and before every event queued during the run;
        # (time, order) stays unique, as an entry's emits never share a time
        first = next(self._order)
        for i, traffic in enumerate(config.traffic):
            heapq.heappush(self._queue, (traffic.start_ms, first + i,
                                         self._handle_emit,
                                         (first + i, traffic, traffic.count)))
        self._order = itertools.count(first + len(config.traffic))

    # -- plumbing ------------------------------------------------------------

    def _rng(self, purpose: str) -> random.Random:
        if purpose not in self._rngs:
            self._rngs[purpose] = random.Random(f"{self.config.seed}/{purpose}")
        return self._rngs[purpose]

    def _schedule(self, time: int, handler, args: tuple) -> None:
        heapq.heappush(self._queue, (time, next(self._order), handler, args))

    def _log_attack(self, attack: AttackSpec, src, seq, detail: str) -> None:
        self.log.append(events.attack(attack.kind, attack.target_label(), src,
                                      seq, detail, self.now))

    def _record_verdict(self, verdict: events.Verdict, src: int,
                        seq: int, flow: str, path=None) -> None:
        """Log a verdict as the node read it and add it to the entry of the
        delivered packet `(src, seq)`, if it was emitted.  A garbled header
        cannot move the verdict onto another packet's entry.  The organic
        frame's verdict ends its packet when it is a rejection or the
        gateway's accept, which passes its rebuilt `path`."""
        self.log.append(events.verdict(*verdict))
        node, _, _, hop, outcome, time = verdict
        entry = self.packets.get((src, seq))
        if entry is not None:
            v = {"outcome": outcome, "node": node, "hop": hop, "time": time,
                 "flow": flow}
            entry["verdicts"].append(v)
            if flow == FLOW_ORGANIC and (outcome != ACCEPTED
                                         or path is not None):
                entry["status"] = ("accepted" if outcome == ACCEPTED
                                   else "rejected")
                entry["final"] = v
                entry["path"] = path

    def _next_rotation(self) -> int:
        kr = self.config.key_rotation
        return self._rng("rotation").randint(kr.min_generations,
                                             kr.max_generations)

    def _maybe_rotate(self) -> None:
        if self._rotation_threshold is None:
            return
        while self._generations >= self._rotation_threshold:
            self._generations -= self._rotation_threshold
            key = self.keyring.rotate(self._rng("keys"))
            self.log.append(events.rotate(key.epoch, self.now))
            self._rotation_threshold = self._next_rotation()

    # -- link transmission ---------------------------------------------------

    def _send(self, data: bytes, src: int, seq: int, hop: int,
              flow: str) -> None:
        from_id, to_id = self._route_of_source[src][hop - 1:hop + 1]
        if flow == FLOW_ORGANIC:
            for attack in self._link_attacks.get((from_id, to_id), ()):
                if not attack.matches(src, seq, self.now):
                    continue
                result = adversary.apply(attack, data)
                self._log_attack(attack, src, seq, result.detail)
                if result.replay is not None:
                    copy, delay = result.replay
                    self._schedule(self.now + delay, self._handle_deliver,
                                   (to_id, copy, src, seq, hop, FLOW_REPLAYED))
                if result.deliver is None:
                    self.packets[(src, seq)]["status"] = "dropped"
                    return
                data = result.deliver
        self._schedule(self.now + self.config.per_hop_delay_ms,
                       self._handle_deliver, (to_id, data, src, seq, hop, flow))

    # -- event handlers ------------------------------------------------------

    def _handle_emit(self, order: int, traffic: TrafficSpec,
                     left: int) -> None:
        """Emit one of `traffic`'s packets, `left` counting this one, and
        queue the next under the entry's same tie-break place."""
        if left > 1:
            heapq.heappush(self._queue, (self.now + traffic.interval_ms, order,
                                         self._handle_emit,
                                         (order, traffic, left - 1)))
        source = traffic.source
        node = self.nodes[source]
        payload = self._rng(f"payload/{source}").randbytes(
            traffic.payload_bytes)
        seq, frame = self._emit(node, payload, self.now)
        self.node_packets[source] += 1
        self._generations += 1
        self.log.append(events.emit(source, source, seq, 1, self.now))
        # status: in_flight | accepted | rejected | dropped; store_records is
        # counted when the report is built
        self.packets[(source, seq)] = {
            "source": source, "seq": seq,
            "route": self._route_of_source[source],
            "emitted_ms": self.now, "status": "in_flight", "final": None,
            "path": None, "verdicts": [], "store_records": None}
        self._send(frame, source, seq, 1, FLOW_ORGANIC)

    def _handle_deliver(self, to: int, data: bytes, src: int, seq: int,
                        hop: int, flow: str) -> None:
        self.log.append(events.deliver(to, src, seq, hop, self.now))
        self.node_packets[to] += 1

        node = self.nodes[to]
        if node.role == ROLE_INTERMEDIATE:
            verdict, forwarded = node.process(data, self.now)
            self._record_verdict(verdict, src, seq, flow)
            if forwarded is not None:
                self._generations += 1
                self._send(forwarded, src, seq, verdict.hop + 1, flow)
            return

        verdict, path = self._verify(node, data, self.now)
        self._record_verdict(verdict, src, seq, flow, path)

    def _handle_inject(self, attack: AttackSpec) -> None:
        frame = adversary.build_fake_frame(attack, self.now // 1000, attack.seq)
        self._log_attack(attack, attack.src, attack.seq,
                         events.detail(epoch=attack.key_epoch, hop=attack.hop))
        self._schedule(self.now + self.config.per_hop_delay_ms,
                       self._handle_deliver, (attack.to_id, frame, attack.src,
                                              attack.seq, attack.hop, FLOW_FAKE))

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
        self.now, _, handler, args = heapq.heappop(self._queue)
        handler(*args)
        self._maybe_rotate()
        return True

    def run(self) -> SimResult:
        while self.step():
            pass
        return SimResult(self.log, self._build_report())

    # -- reporting -----------------------------------------------------------

    def _build_report(self) -> dict:
        counts = {"emitted": len(self.packets), "accepted": 0, "rejected": 0,
                  "dropped": 0, "in_flight": 0}
        packets = {}
        for src, seq in sorted(self.packets):
            entry = self.packets[(src, seq)]
            entry["store_records"] = self.store.record_count(src, seq)
            counts[entry["status"]] += 1
            packets[f"{src}:{seq}"] = entry
        # the gateway purges every set it accepts, so the sets never retrieved
        # are exactly the drops
        suspects = self.store.unretrieved()
        nodes = {}
        for nid in sorted(self.nodes):
            role = self.nodes[nid].role
            ops = self.node_packets[nid] * OPS_BY_ROLE[role]
            nodes[str(nid)] = {
                "role": role,
                "packets": self.node_packets[nid],
                "watermark_ops": ops,
                "t_c_ms": ops * self.config.energy.tc_per_op_ms,
            }
        return {
            "seed": self.config.seed,
            "mode": self.config.mode,
            "counts": counts,
            "packets": packets,
            "drops_suspected": [list(s) for s in suspects],
            "nodes": nodes,
            "rotations": self.keyring.current.epoch,
            "final_epoch": self.keyring.current.epoch,
            "energy": asdict(self.config.energy),
        }


def run(config: ScenarioConfig) -> SimResult:
    return Simulation(config).run()
