#!/usr/bin/env python3
"""End-to-end demo: a clean run, then the same network under attack.

Runs the bundled example scenario, prints delivery counts and per-packet
paths, then replays the scenario with a payload tamperer and a replay
attacker on the wire and prints the detection matrix.  Everything is
seeded, so two invocations print identical output.

Usage: python3 scripts/run_demo.py [--seed N]
"""
import argparse
import sys

from zircon import analysis, netsim, scenario
from zircon.adversary import ModifyPayload, Replay


def clean_run(seed: int) -> None:
    config = scenario.load_config(scenario.EXAMPLE_CONFIG)
    config.seed = seed
    result = netsim.run(config)
    counts = result.report["counts"]
    print("== clean run ==")
    print(f"emitted={counts['emitted']} accepted={counts['accepted']} "
          f"rejected={counts['rejected']}")
    packets = result.report["packets"]
    for shown, (pkt_id, p) in enumerate(sorted(packets.items())):
        if shown == 3:
            print(f"  ... {len(packets) - shown} more")
            break
        hops = " -> ".join(f"{ip}@{t}s" for ip, t in p.path)
        print(f"  packet {pkt_id}  {hops}")
    leftover = sum(p.store_records for p in packets.values())
    print(f"provenance records left in store: {leftover}")


def attacked_run(seed: int) -> int:
    config = scenario.load_config(scenario.EXAMPLE_CONFIG)
    config.seed = seed
    config.attacks = [
        ModifyPayload(from_id=2, to_id=3, edits=((0, 0x80),), seq=s)
        for s in (3, 7, 11)
    ] + [
        Replay(from_id=1, to_id=2, delay_ms=30000, seq=5),
    ]
    result = netsim.run(config)
    summary = analysis.detection_report(result.log)

    print("\n== attacked run ==")
    counts = result.report["counts"]
    print(f"emitted={counts['emitted']} accepted={counts['accepted']} "
          f"rejected={counts['rejected']}")
    for kind, entry in sorted(summary["kinds"].items()):
        rate = "-" if entry["rate"] is None else f"{entry['rate']:.2f}"
        print(f"  {kind:<16} attacks={entry['attacks']} "
              f"detected={entry['detected']} rate={rate}")
    print(f"false accepts: {summary['false_accepts']}")
    print(f"false rejects: {summary['false_rejects']}")
    return 1 if summary["false_accepts"] else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    clean_run(args.seed)
    return attacked_run(args.seed)


if __name__ == "__main__":
    sys.exit(main())
