"""Outside-in tracing of zircon's layers.

Wrappers are installed at the names callers actually resolve: `nodes` and
`watermark` import crypto and codec functions by name, so patching
`zircon.crypto` alone would see none of their calls.  Every wrapper times its
call with perf_counter and keeps a stack of open spans, so each span's self
time is its duration minus the time its child spans took.  Spans are
aggregated in memory per name; nothing is written while tracing.  remove()
puts every original back.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.step_s: List[float] = []
        self.key_epochs: set = set()
        self.live_sets = 0
        self.live_sets_peak = 0
        self.verdicts = 0
        self.accepts = 0
        self._stack: List[float] = []
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn: Callable, hook: Callable = None) -> Callable:
        """A wrapper that records one span per call.  `name` may be a
        function of the call's arguments; `hook(dt, args, result)` runs
        after a call that returned."""
        stack, clock = self._stack, time.perf_counter
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                span = name(args, kwargs) if callable(name) else name
                calls[span] += 1
                self_s[span] += dt - child
            if hook is not None:
                hook(dt, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name, hook: Callable = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, hook))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- hooks ---------------------------------------------------------------

    def _on_block(self, dt, args, result) -> None:
        self.key_epochs.add(args[0].epoch)

    def _on_store(self, dt, args, result) -> None:
        # a record at hop 1 always opens a new set (the store only appends
        # hop max+1)
        if args[1].hop == 1:
            self.live_sets += 1
            self.live_sets_peak = max(self.live_sets_peak, self.live_sets)

    def _on_delete(self, dt, args, result) -> None:
        if result:
            self.live_sets -= 1

    def _on_verdict(self, dt, args, result) -> None:
        self.verdicts += 1
        self.accepts += result[0].outcome == "accepted"

    def _on_step(self, dt, args, result) -> None:
        self.step_s.append(dt)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        from zircon import (adversary, analysis, cli, internal_datagram,
                            netsim, nodes, scenario, watermark)
        from zircon.provstore import ProvenanceStore

        p = self.patch
        p(watermark, "encrypt_block", "crypto.encrypt_block", self._on_block)
        p(watermark, "digest", "crypto.digest")
        p(nodes, "decrypt_block", "crypto.decrypt_block", self._on_block)
        p(internal_datagram, "digest", "crypto.digest")
        p(internal_datagram, "select_label_bits",
          lambda a, kw: "crypto.select_label_bits."
                        + kw.get("mode", a[1] if len(a) > 1 else "lsb32"))

        for attr in ("embed", "embed_bare"):
            p(nodes, attr, "watermark.embed")
        for attr in ("extract", "extract_bare"):
            p(nodes, attr, "watermark.extract")
        p(nodes, "make_provenance_record", "watermark.record")
        p(nodes, "make_hash_subwatermark", "watermark.hash_part")

        p(ProvenanceStore, "store", "provstore.store", self._on_store)
        p(ProvenanceStore, "query_last", "provstore.query_last")
        p(ProvenanceStore, "query_all", "provstore.query_all")
        p(ProvenanceStore, "delete_all", "provstore.delete_all",
          self._on_delete)

        for attr in ("emit_multihop", "emit_singlehop"):
            p(nodes.SourceNode, attr, "nodes.emit")
        p(nodes.IntermediateNode, "process", "nodes.process", self._on_verdict)
        for attr in ("verify_multihop", "verify_singlehop"):
            p(nodes.GatewayNode, attr, "nodes.verify", self._on_verdict)

        p(netsim.Simulation, "__init__", "netsim.init")
        p(netsim.Simulation, "step", "netsim.step", self._on_step)
        p(netsim.Simulation, "run", "netsim.run")

        p(adversary, "apply", "adversary.apply")
        p(adversary, "build_fake_frame", "adversary.forge")
        p(adversary, "run_store_probe", "adversary.probe")

        p(scenario, "load_config", "scenario.load_config")
        p(analysis, "detection_report", "analysis.detection_report")
        p(cli, "main", "cli.main")
        p(internal_datagram, "label_datagram", "internal_datagram.label")
        p(internal_datagram, "check_datagram", "internal_datagram.check")
