#!/usr/bin/env python3
"""Record the benchmark, or compare this checkout with an earlier revision.

    python scripts/bench.py record N
    python scripts/bench.py pairs REV

`record N` runs perfbench/run.py on each workload once at --trace 0 and once
at --trace 1, and writes BENCH_<N>.json at the root of the checkout: the
host, and per workload the output digests, each metric's value (for a timed
metric, the median of its repetitions) with its quartiles and repetition
count, and every per-layer `.calls`, `.us` and share metric.

`pairs REV` extracts REV with `git archive REV | tar -x` into a temporary
directory and runs the parent (REV) and the change (this checkout) in turn,
--trace 0, at seeds 1-10 (datagram_filter 1-3); an odd seed runs the parent
first, an even one the change.  Each workload then runs once more per side
at --trace 1 to compare the per-layer call counts.  It prints, per
end-to-end metric, both sides' medians and quartiles over the seeds, the
change/parent ratio of the medians and the pairs each side won.  It exits 1
if any output digest or `.calls` metric differs between the sides.

Each run is its own process and lasts BENCHMARK.json's run_seconds plus a
few seconds of set-up, so a full `pairs` takes about half an hour.  The
quartiles are perfbench/run.py's own.
"""
import argparse
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import quartiles  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# `pairs` runs seeds 1-10, and 1-3 of datagram_filter, whose runs hold many
# more repetitions; `record` runs seed 1
SEEDS = {name: range(1, 4 if name == "datagram_filter" else 11)
         for name in WORKLOADS}
RECORD_SEED = 1

# a timed metric's printed line, which ends with its repetitions
_REPS = re.compile(r"([\w.]+) = .*\(median of (\d+) reps, calibrated; "
                   r"quartiles (\S+) to (\S+); uncalibrated (\S+)\)$")


def parse(text: str) -> dict:
    """One workload's perfbench/run.py output as {"host", "correct",
    "attempted", "failed", "digests", "metrics"}.  The verdict, the counts
    and each metric's {"value", "unit"} are run.py's closing JSON line; the
    host and the digests are their printed lines, and a timed metric gains
    "reps", "q1", "q3" and "uncalibrated" from its own."""
    lines = text.splitlines()
    out = dict(json.loads(lines[-1]), digests={})
    for line in lines:
        if line.startswith("host "):
            out["host"] = json.loads(line[len("host "):])
        elif line.startswith("digests "):
            out["digests"] = json.loads(line[len("digests "):])
        elif match := _REPS.match(line):
            name, reps, q1, q3, uncalibrated = match.groups()
            out["metrics"][name].update(reps=int(reps), q1=float(q1),
                                        q3=float(q3),
                                        uncalibrated=float(uncalibrated))
    return out


def run(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run of `tree`'s own program, parsed."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds",
         str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    try:
        return dict(parse(proc.stdout), seed=seed)
    except (IndexError, ValueError):
        raise SystemExit(f"bench: {tree}: {workload} seed {seed} trace "
                         f"{trace} printed no result:\n{proc.stderr}")


def workload_record(untraced: dict, traced: dict) -> dict:
    """One workload's entry of a BENCH file, from its two runs; the traced
    run of datagram_filter prints no digests."""
    same = traced["digests"] in ({}, untraced["digests"])
    return {
        "correct": untraced["correct"] and traced["correct"] and same,
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "digests": untraced["digests"],
        "metrics": {**untraced["metrics"], **traced["metrics"]},
    }


def cmd_record(args) -> int:
    host, workloads = None, {}
    for name in WORKLOADS:
        runs = [run(ROOT, name, RECORD_SEED, trace)
                for trace in (0, 1)]
        host = runs[0]["host"]
        workloads[name] = workload_record(*runs)
        print(f"{name}: correct={workloads[name]['correct']}", flush=True)
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps({
        "command": "python3 perfbench/run.py --workload W --seed "
                   f"{RECORD_SEED} --seconds {SPEC['run_seconds']:g} "
                   "--trace 0|1",
        "host": host,
        "workloads": workloads,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    return 0 if all(w["correct"] for w in workloads.values()) else 1


def beats(value: float, other: float, better: str) -> bool:
    return value < other if better == "lower" else value > other


def compare(pairs: dict, traced: dict) -> tuple:
    """The `pairs` table and every mismatch between the sides.  `pairs` maps
    a workload to its (parent, change) runs, one pair per seed; `traced`
    maps a workload to its (parent, change) --trace 1 runs."""
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    lines, mismatches = [], []
    for name, runs in pairs.items():
        for parent, change in runs:
            if parent["digests"] != change["digests"]:
                mismatches.append(f"{name} seed {parent['seed']}: digests "
                                  f"{parent['digests']} vs "
                                  f"{change['digests']}")
        for metric, direction in better.items():
            sides = [[run["metrics"][metric]["value"] for run in side]
                     for side in zip(*runs)]
            change_won = sum(beats(c, p, direction) for p, c in zip(*sides))
            parent_won = sum(beats(p, c, direction) for p, c in zip(*sides))
            (p1, p2, p3), (c1, c2, c3) = map(quartiles, sides)
            lines.append(
                f"{name} {metric}: parent {p2:.6g} [{p1:.6g}, {p3:.6g}] "
                f"change {c2:.6g} [{c1:.6g}, {c3:.6g}] ratio {c2 / p2:.4f}; "
                f"change won {change_won}/{len(runs)}, parent won "
                f"{parent_won}/{len(runs)}")
        lines.append(f"{name} correct: parent "
                     f"{all(p['correct'] for p, _ in runs)}, change "
                     f"{all(c['correct'] for _, c in runs)}; failed "
                     f"{sorted({r['failed'] for pair in runs for r in pair})}")
    for name, (parent, change) in traced.items():
        calls = [{m: v["value"] for m, v in side["metrics"].items()
                  if m.endswith(".calls")} for side in (parent, change)]
        for metric in sorted(set(calls[0]) | set(calls[1])):
            if calls[0].get(metric) != calls[1].get(metric):
                mismatches.append(f"{name} trace: {metric} "
                                  f"{calls[0].get(metric)} vs "
                                  f"{calls[1].get(metric)}")
        if parent["digests"] != change["digests"]:
            mismatches.append(f"{name} trace: digests {parent['digests']} "
                              f"vs {change['digests']}")
    return lines, mismatches


def cmd_pairs(args) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        parent_tree = Path(tmp)
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive,
                       check=True)
        trees = {"parent": parent_tree, "change": ROOT}
        pairs, traced = {}, {}
        for name, seeds in SEEDS.items():
            pairs[name] = []
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change",
                                                               "parent")
                runs = {side: run(trees[side], name, seed, 0)
                        for side in order}
                pairs[name].append((runs["parent"], runs["change"]))
                rate = {side: runs[side]["metrics"]["packets_per_s"]["value"]
                        for side in order}
                print(f"{name} seed {seed}: " + ", ".join(
                    f"{side} {rate[side]:.6g} packets/s" for side in order),
                    flush=True)
            traced[name] = tuple(run(trees[side], name, 1, 1)
                                 for side in ("parent", "change"))
    lines, mismatches = compare(pairs, traced)
    print(f"parent {args.rev}, change {ROOT}; medians [quartiles] over "
          f"seeds, --seconds {SPEC['run_seconds']:g}")
    for line in lines + [f"MISMATCH: {m}" for m in mismatches]:
        print(line)
    return 1 if mismatches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    record = sub.add_parser("record", help="write BENCH_<N>.json")
    record.add_argument("n", type=int)
    pairs = sub.add_parser("pairs", help="alternate REV and this checkout")
    pairs.add_argument("rev")
    args = parser.parse_args(argv)
    return cmd_record(args) if args.command == "record" else cmd_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
