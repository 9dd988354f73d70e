"""Quantitative models over completed runs.

Energy: a node's draw is its average power times the sum of the acquisition,
sensing, computation, transmit, and sleep windows; reported in millijoules.
Computation time is charged as a fixed per-operation cost times the node's
watermark-operation count, so runs stay bit-reproducible across hosts.

Provenance cost compares four schemes as functions of path length H:
full per-hop signature records (42 bytes each), compact per-hop marks
(6 bytes each), a bloom filter sized for a target false-positive rate, and
the constant 24-byte watermark that never grows with H.

Detection reporting replays an event log and correlates attack events with
the verdicts that followed them.
"""
from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Union

from . import events
from .adversary import DROP, EAVESDROP, REPLAY, STORE_PROBE
from .nodes import ACCEPTED, ROLE_SOURCE
from .watermark import MAX_HOP, WATERMARK_BYTES

SCHEME_ZIRCON = "zircon"
SCHEME_SSP = "ssp"
SCHEME_MP = "mp"
SCHEME_BFP = "bfp"
SCHEMES = (SCHEME_ZIRCON, SCHEME_SSP, SCHEME_MP, SCHEME_BFP)

SSP_RECORD_BYTES = 42
MP_RECORD_BYTES = 6


@dataclass(frozen=True)
class EnergyParams:
    p_n_mw: float = 30.0
    t_a_ms: float = 1.0
    t_s_ms: float = 0.5
    t_tr_ms: float = 300.0
    t_sl_ms: float = 299.0
    e0_mj: float = 100.0
    intermediate_multiplier: float = 1.0
    # computation time charged per watermark operation: a node's T_C is
    # this times its operation count
    tc_per_op_ms: float = 0.5


def energy_errors(params: EnergyParams) -> List[str]:
    """One `field: ...` error per constant that is not a finite nonnegative
    number."""
    errors = []
    for f in fields(params):
        value = getattr(params, f.name)
        # a bool is an int to Python, and NaN passes every comparison test
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not 0 <= value < math.inf:
            errors.append(f"{f.name}: must be a finite nonnegative number, "
                          f"got {value!r}")
    return errors


def node_energy(params: EnergyParams, t_c_ms: float) -> float:
    """Energy of one duty cycle in millijoules (power in mW, windows in ms)."""
    if t_c_ms < 0:
        raise ValueError("computation time cannot be negative")
    active = params.t_a_ms + params.t_s_ms + t_c_ms + params.t_tr_ms + params.t_sl_ms
    return params.p_n_mw * active / 1000.0


def node_budget(params: EnergyParams, role: str) -> float:
    """Initial energy budget by role: plain nodes get the base budget,
    verifying nodes get the base plus the configured multiple of it."""
    if role == ROLE_SOURCE:
        return params.e0_mj
    return params.e0_mj + params.intermediate_multiplier * params.e0_mj


@dataclass(frozen=True)
class CostModel:
    scheme: str
    hops: int
    p_fp: float = 0.02

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.hops < 1:
            raise ValueError("hop count must be >= 1")
        if not 0.0 < self.p_fp < 1.0:
            raise ValueError("false-positive rate must be in (0, 1)")


def bfp_bits(hops: int, p_fp: float = 0.02) -> float:
    """Bloom-filter size in bits for the given path length and target
    false-positive probability: (-H ln p) / (ln 2)^2."""
    return (-hops * math.log(p_fp)) / (math.log(2) ** 2)


def provenance_size(model: CostModel) -> int:
    """Provenance bytes carried per packet under the given scheme."""
    if model.scheme == SCHEME_SSP:
        return SSP_RECORD_BYTES * model.hops
    if model.scheme == SCHEME_MP:
        return MP_RECORD_BYTES * model.hops
    if model.scheme == SCHEME_BFP:
        return math.ceil(bfp_bits(model.hops, model.p_fp) / 8)
    return WATERMARK_BYTES


def cost_rows(max_hops: int = 30, p_fp: float = 0.02) -> List[dict]:
    # no path has more hops than the 8-bit hop index counts
    if max_hops > MAX_HOP:
        raise ValueError(f"hop count must be <= {MAX_HOP}")
    # checks both arguments, also when no row follows
    CostModel(SCHEME_ZIRCON, max_hops, p_fp)
    rows = []
    for hops in range(1, max_hops + 1):
        size = {scheme: provenance_size(CostModel(scheme, hops, p_fp))
                for scheme in SCHEMES}
        rows.append({
            "H": hops,
            "zircon": size[SCHEME_ZIRCON],
            "ssp": size[SCHEME_SSP],
            "mp": size[SCHEME_MP],
            "bfp_bytes": size[SCHEME_BFP],
            "bfp_bits": bfp_bits(hops, p_fp),
        })
    return rows


def write_cost_csv(out, rows: List[dict]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["H", "zircon", "ssp", "mp", "bfp_bytes", "bfp_bits"])
    for row in rows:
        writer.writerow([row["H"], row["zircon"], row["ssp"], row["mp"],
                         row["bfp_bytes"], str(row["bfp_bits"])])


def write_energy_csv(out, report: dict, params: EnergyParams) -> None:
    """One row per node from a run report: identity, traffic handled,
    charged computation time, and the resulting duty-cycle energy."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["node", "role", "packets", "T_C_ms", "energy_mJ"])
    nodes = report.get("nodes", {})
    for node_id in sorted(nodes, key=int):
        info = nodes[node_id]
        t_c = float(info["t_c_ms"])
        writer.writerow([
            node_id, info["role"], info["packets"], str(t_c),
            str(node_energy(params, t_c)),
        ])


# -- detection reporting ------------------------------------------------------

def detection_report(log: Union[str, Iterable[str]]) -> dict:
    """Correlate attacks with the verdicts that followed them.

    An active attack on a packet counts as detected when a non-accepted
    verdict for that packet appears later in the log (for replays, no
    earlier than the scheduled re-delivery time).  A false accept means the
    packet's last verdict is an acceptance issued after the attack.  Drops
    count as detected when the packet's set is live at the end (a store line
    sets its newest hop, a delete ends it) and no accept follows the drop.
    Eavesdropping is passive and excluded from rates; store probes report
    what the access check returned.
    """
    lines = log.splitlines() if isinstance(log, str) else log
    # attacks and verdicts keep their line index, so causal order survives
    # events that share a timestamp
    emitted: List[tuple] = []
    attacks: List[tuple] = []
    by_packet_verdicts: Dict[tuple, List[tuple]] = defaultdict(list)
    live: Dict[tuple, int] = {}
    read_verdict, read_store, read_delete, read_emit, read_attack = map(
        events.READERS.get, ("verdict", "store", "delete", "emit", "attack"))

    def walk(numbered):
        # a line is split once and sent by its kind field to that kind's
        # reader; deliver and rotate lines are passed over unparsed
        for idx, line in numbered:
            fields = line.split("|")
            kind = fields[0]
            try:
                if kind == "verdict":
                    rec = read_verdict(fields)
                    if rec.src is not None and rec.seq is not None:
                        by_packet_verdicts[rec.src, rec.seq].append((idx, rec))
                elif kind == "store":
                    rec = read_store(fields)
                    live[rec.src, rec.seq] = rec.hop
                elif kind == "delete":
                    rec = read_delete(fields)
                    live.pop((rec.src, rec.seq), None)
                elif kind == "emit":
                    rec = read_emit(fields)
                    emitted.append((rec.src, rec.seq))
                elif kind == "attack":
                    attacks.append((idx, read_attack(fields)))
                elif kind != "deliver" and kind != "rotate":
                    raise ValueError(kind)
            except ValueError:
                # as events.read reads it: stripped, and passed over if blank
                stripped = line.strip()
                if stripped != line:
                    walk(((idx, stripped),))
                elif stripped:
                    events.parse(line)  # raises, naming the line
                    raise

    walk(enumerate(lines))

    kinds: Dict[str, dict] = {}
    false_accepts = 0
    drop_localization = {}
    attacked_ids = set()

    for a_idx, a in attacks:
        entry = kinds.setdefault(a.kind, {"attacks": 0, "detected": 0})
        entry["attacks"] += 1
        key = (a.src, a.seq)
        if a.src is not None:
            attacked_ids.add(key)
        packet_verdicts = by_packet_verdicts.get(key, [])

        if a.kind == EAVESDROP:
            continue
        if a.kind == STORE_PROBE:
            if events.parse_detail(a.detail).get("result") != "retrieved":
                entry["detected"] += 1
            continue
        if a.kind == DROP:
            accepted_after = any(v.outcome == ACCEPTED and idx > a_idx
                                 for idx, v in packet_verdicts)
            if key in live and not accepted_after:
                entry["detected"] += 1
                drop_localization[f"{a.src}:{a.seq}"] = live[key]
            continue

        horizon = a.time
        if a.kind == REPLAY:
            try:
                horizon += int(events.parse_detail(a.detail).get("delay", 0))
            except ValueError as err:
                raise ValueError(f"malformed log line {events.attack(*a)!r}: "
                                 f"{err}") from None
        rejected_after = any(
            v.outcome != ACCEPTED and idx > a_idx and v.time >= horizon
            for idx, v in packet_verdicts
        )
        if rejected_after:
            entry["detected"] += 1
        if packet_verdicts:
            last_idx, last = packet_verdicts[-1]
            if last.outcome == ACCEPTED and last_idx > a_idx:
                false_accepts += 1

    # a bucket exists once it has counted an attack
    for entry in kinds.values():
        entry["rate"] = entry["detected"] / entry["attacks"]
    if EAVESDROP in kinds:
        kinds[EAVESDROP].update(detected=None, rate=None)

    false_rejects = 0
    clean_accepted = 0
    for key in emitted:
        if key in attacked_ids:
            continue
        packet_verdicts = by_packet_verdicts.get(key, [])
        if any(v.outcome == ACCEPTED for _, v in packet_verdicts):
            clean_accepted += 1
        elif packet_verdicts:
            false_rejects += 1

    return {
        "kinds": kinds,
        "false_accepts": false_accepts,
        "false_rejects": false_rejects,
        "clean_accepted": clean_accepted,
        "drop_localization": drop_localization,
    }
