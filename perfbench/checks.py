"""Output checks against the ground truth the generators know.

A check that fails is a hard error: the run reports correct=false and exits
non-zero.  A packet whose fate disagrees with the ground truth counts as
failed; for the forged-frame targets in attack_mix that loss is a known
defect of the program and is reported, not gated.
"""
from __future__ import annotations

import hashlib
import os
from typing import Dict, List

OUTPUT_FILES = ("events.log", "report.json", "provenance.journal")


def digests(out_dir: str) -> Dict[str, str]:
    """sha256 of each deterministic run output."""
    out = {}
    for name in OUTPUT_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_sim(workload, report: dict, log_lines: List[str],
              detection: dict = None) -> Dict[str, object]:
    """Compare one run's report (and, for attack_mix, its detection report)
    with the generator's ground truth.

    Returns {"failed": n, "errors": [...]}; any error fails the run.
    """
    errors: List[str] = []
    counts = report["counts"]
    total = sum(counts[k] for k in ("accepted", "rejected", "dropped",
                                    "in_flight"))
    if total != counts["emitted"]:
        errors.append(f"counts sum to {total}, emitted {counts['emitted']}")
    if counts["emitted"] != workload.packets:
        errors.append(f"emitted {counts['emitted']}, generated "
                      f"{workload.packets}")

    failed = 0
    for (src, seq), should_accept in workload.expect_accept.items():
        packet = report["packets"].get(f"{src}:{seq}")
        if packet is None:
            errors.append(f"packet {src}:{seq} missing from report")
            continue
        accepted = packet["status"] == "accepted"
        if accepted != should_accept:
            failed += 1
        if accepted and not should_accept:
            errors.append(f"false accept of tampered packet {src}:{seq}")
        if not should_accept or (src, seq) in workload.forged_targets:
            continue
        # a clean packet nobody aimed a forgery at: must arrive whole
        if not accepted:
            errors.append(f"clean packet {src}:{seq} ended {packet['status']}")
            continue
        path = [hop[0] for hop in packet["path"]]
        if path != workload.route_ips[src]:
            errors.append(f"packet {src}:{seq} path {path} is not its route")
        if packet["store_records"]:
            errors.append(f"packet {src}:{seq} left "
                          f"{packet['store_records']} records in the store")

    if detection is not None:
        if detection["false_accepts"]:
            errors.append(f"detection report counts "
                          f"{detection['false_accepts']} false accepts")
        probes = [line for line in log_lines
                  if line.startswith("attack|store_probe|")]
        if len(probes) != workload.probes:
            errors.append(f"{len(probes)} store probes logged, "
                          f"{workload.probes} scheduled")
        leaked = [p for p in probes if "result=authorization_error" not in p]
        if leaked:
            errors.append(f"store probe not refused: {leaked[0]}")
    return {"failed": failed, "errors": errors[:20]}


def check_datagrams(workload, classes: List[str], labels: Dict[int, int]
                    ) -> Dict[str, object]:
    """Receiver classes against the expected ones, and the sender's labels
    against the reference label."""
    errors: List[str] = []
    failed = 0
    if len(classes) != workload.count:
        errors.append(f"{len(classes)} verdicts for {workload.count} datagrams")
    for i, ((_, expected), got) in enumerate(zip(workload.truth, classes)):
        if got != expected:
            failed += 1
            errors.append(f"datagram {i}: {got}, expected {expected}")
    for i, label in labels.items():
        if label != workload.labels[i]:
            errors.append(f"datagram {i}: label {label:#010x}, reference "
                          f"{workload.labels[i]:#010x}")
    return {"failed": failed, "errors": errors[:20]}
