#!/usr/bin/env python3
"""Regenerate the cost and energy tables under tables/.

cost.csv compares per-packet provenance overhead across schemes for 1..30
hops (--max-hops, at most 255).  energy.csv prices each node role at the
default radio constants, sweeping watermarking time from 0 to 20 ms.  Both files are deterministic;
rerunning the script must produce byte-identical output.
"""
import argparse
import os
import sys

from zircon import analysis
from zircon.watermark import MAX_HOP, WATERMARK_BYTES


def write_energy_sweep(path: str) -> None:
    params = analysis.EnergyParams()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("T_C_ms,energy_mJ,source_budget_mJ,relay_budget_mJ\n")
        for tenth in range(0, 201):
            t_c = tenth / 10.0
            fh.write(f"{t_c},{analysis.node_energy(params, t_c)!r},"
                     f"{analysis.node_budget(params, 'source')!r},"
                     f"{analysis.node_budget(params, 'intermediate')!r}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="tables")
    parser.add_argument("--max-hops", type=int, default=30)
    parser.add_argument("--pfp", type=float, default=0.02)
    args = parser.parse_args()

    # the rows come first, so that a bad argument leaves no file behind
    try:
        rows = analysis.cost_rows(args.max_hops, args.pfp)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    os.makedirs(args.out_dir, exist_ok=True)
    cost_path = os.path.join(args.out_dir, "cost.csv")
    with open(cost_path, "w", encoding="utf-8", newline="") as fh:
        analysis.write_cost_csv(fh, rows)
    energy_path = os.path.join(args.out_dir, "energy.csv")
    write_energy_sweep(energy_path)

    # no path is longer than the 8-bit hop index counts
    crossover = next((h for h in range(1, MAX_HOP + 1)
                      if analysis.provenance_size(analysis.CostModel(
                          "bfp", h, args.pfp)) > WATERMARK_BYTES), None)
    print(f"wrote {cost_path} ({args.max_hops} hop rows)")
    print(f"wrote {energy_path} (201 sweep rows)")
    if crossover is None:
        print(f"bloom filter never overtakes the constant {WATERMARK_BYTES}"
              f"-byte mark within {MAX_HOP} hops")
    else:
        print(f"bloom filter overtakes the constant {WATERMARK_BYTES}-byte "
              f"mark at H={crossover}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
