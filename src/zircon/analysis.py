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
import sys
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Union

from . import events
from .adversary import Drop, Eavesdrop, Replay, StoreProbe
from .nodes import ACCEPTED, ROLE_SOURCE, ROLES
from .watermark import MAX_HOP, WATERMARK_BYTES

SCHEME_ZIRCON = "zircon"
SCHEME_SSP = "ssp"
SCHEME_MP = "mp"
SCHEME_BFP = "bfp"
SCHEMES = (SCHEME_ZIRCON, SCHEME_SSP, SCHEME_MP, SCHEME_BFP)

SSP_RECORD_BYTES = 42
MP_RECORD_BYTES = 6

# the cost table's columns and cost_rows' keys; the sizes in SCHEMES order
COST_COLUMNS = ("H", "zircon", "ssp", "mp", "bfp_bytes", "bfp_bits")


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


class EnergyOverflow(ValueError):
    """Energy constants, each finite, whose energy at some T_C is not."""


def finite_nonnegative(value) -> bool:
    # a bool is an int to Python, NaN passes every comparison test, and
    # float() overflows on an int past the largest float
    return not isinstance(value, bool) and isinstance(value, (int, float)) \
        and 0 <= value <= sys.float_info.max


def energy_errors(params: EnergyParams) -> List[str]:
    """One `field: ...` error per constant that is not a finite nonnegative
    number."""
    return [f"{name}: must be a finite nonnegative number, got {value!r}"
            for name, value in vars(params).items()
            if not finite_nonnegative(value)]


def node_energy(params: EnergyParams, t_c_ms: float) -> float:
    """Energy of one duty cycle in millijoules (power in mW, windows in ms)."""
    if not finite_nonnegative(t_c_ms):
        raise ValueError(f"t_c_ms: must be a finite nonnegative number, "
                         f"got {t_c_ms!r}")
    active = params.t_a_ms + params.t_s_ms + t_c_ms + params.t_tr_ms + params.t_sl_ms
    energy = params.p_n_mw * active / 1000.0
    if not finite_nonnegative(energy):
        raise EnergyOverflow(f"energy: {energy!r} mJ at t_c_ms {t_c_ms!r} is not finite")
    return energy


def node_budget(params: EnergyParams, role: str) -> float:
    """Initial energy budget by role: plain nodes get the base budget,
    verifying nodes get the base plus the configured multiple of it."""
    if role == ROLE_SOURCE:
        return params.e0_mj
    return params.e0_mj + params.intermediate_multiplier * params.e0_mj


def bfp_bits(hops: int, p_fp: float = 0.02) -> float:
    """Bloom-filter size in bits for the given path length and target
    false-positive probability: (-H ln p) / (ln 2)^2."""
    return (-hops * math.log(p_fp)) / (math.log(2) ** 2)


def provenance_size(scheme: str, hops: int, p_fp: float = 0.02) -> int:
    """Provenance bytes carried per packet under the given scheme."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if hops < 1:
        raise ValueError("hop count must be >= 1")
    if not 0.0 < p_fp < 1.0:
        raise ValueError("false-positive rate must be in (0, 1)")
    if scheme == SCHEME_SSP:
        return SSP_RECORD_BYTES * hops
    if scheme == SCHEME_MP:
        return MP_RECORD_BYTES * hops
    if scheme == SCHEME_BFP:
        return math.ceil(bfp_bits(hops, p_fp) / 8)
    return WATERMARK_BYTES


def cost_rows(max_hops: int = 30, p_fp: float = 0.02) -> List[dict]:
    # no path has more hops than the 8-bit hop index counts
    if max_hops > MAX_HOP:
        raise ValueError(f"hop count must be <= {MAX_HOP}")
    # checks both arguments, also when no row follows
    provenance_size(SCHEME_ZIRCON, max_hops, p_fp)
    rows = []
    for hops in range(1, max_hops + 1):
        values = [hops]
        for scheme in SCHEMES:
            values.append(provenance_size(scheme, hops, p_fp))
        values.append(bfp_bits(hops, p_fp))
        rows.append(dict(zip(COST_COLUMNS, values)))
    return rows


def write_cost_csv(out, rows: List[dict]) -> None:
    writer = csv.DictWriter(out, COST_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def write_energy_csv(out, report: dict, params: EnergyParams) -> None:
    """One row per node from a run report: identity, traffic handled,
    charged computation time, and the resulting duty-cycle energy."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["node", "role", "packets", "T_C_ms", "energy_mJ"])
    nodes = report["nodes"]
    if not nodes:  # every run has a node
        raise ValueError("no node entries")
    for node_id in sorted(nodes, key=int):
        info = nodes[node_id]
        t_c, packets, role = info["t_c_ms"], info["packets"], info["role"]
        if type(packets) is not int:
            raise TypeError(f"packets: must be an integer, got {packets!r}")
        if role not in ROLES:
            raise ValueError(f"role: unknown role {role!r}")
        energy = node_energy(params, t_c)  # refuses what float() misreads
        writer.writerow([node_id, role, packets, str(float(t_c)),
                         str(energy)])


# -- detection reporting ------------------------------------------------------

def detection_report(log: Union[str, Iterable[str]]) -> dict:
    """Correlate attacks with the verdicts that followed them.

    An active attack on a packet counts as detected when a non-accepted
    verdict for that packet appears later in the log (for replays, no
    earlier than the `delay=N` re-delivery time).  A false accept means the
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
    Verdict, Store, Delete, Emit = (events.Verdict, events.Store,
                                    events.Delete, events.Emit)
    for item in events.read(lines, ("verdict", "store", "delete", "emit",
                                    "attack")):
        rec = item[1]
        kind = type(rec)
        if kind is Verdict:
            if rec.src is not None and rec.seq is not None:
                by_packet_verdicts[rec.src, rec.seq].append(item)
        elif kind is Store:
            live[rec.src, rec.seq] = rec.hop
        elif kind is Delete:
            live.pop((rec.src, rec.seq), None)
        elif kind is Emit:
            emitted.append((rec.src, rec.seq))
        else:
            attacks.append(item)

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

        if a.kind == Eavesdrop.kind:
            continue
        if a.kind == StoreProbe.kind:
            if events.parse_detail(a.detail).get("result") != "retrieved":
                entry["detected"] += 1
            continue
        if a.kind == Drop.kind:
            accepted_after = any(v.outcome == ACCEPTED and idx > a_idx
                                 for idx, v in packet_verdicts)
            if key in live and not accepted_after:
                entry["detected"] += 1
                drop_localization[f"{a.src}:{a.seq}"] = live[key]
            continue

        horizon = a.time
        if a.kind == Replay.kind:
            delay = events.parse_detail(a.detail).get("delay", "0")
            # a bare `delay` flag parses as True, which int() would read as 1
            if delay is True or not (delay.isascii() and delay.isdecimal()):
                raise ValueError(f"malformed log line {events.attack(*a)!r}: "
                                 f"a replay's delay must be delay=N")
            horizon += int(delay)
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
    if Eavesdrop.kind in kinds:
        kinds[Eavesdrop.kind].update(detected=None, rate=None)

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
