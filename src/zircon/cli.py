"""Command-line front end.

Verbs: run a scenario, execute the built-in attack suite, emit the cost and
energy tables, inspect a provenance journal, or generate a commented example
config.  `-` stands for stdin/stdout where a path is expected.  Exit status:
0 on success, 1 on simulation or validation errors (and on any false accept
in the attack suite), 2 on usage errors.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from typing import Optional

from . import adversary, analysis, events, netsim, scenario
from .adversary import (
    DELETE_BITS,
    DROP,
    EAVESDROP,
    FAKE_INJECT,
    INSERT_BITS,
    MODIFY_PAYLOAD,
    MODIFY_WATERMARK,
    REPLAY,
    STORE_PROBE,
    AttackSpec,
)
from .scenario import (
    ConfigError,
    KeyRotationConfig,
    NodeSpec,
    ScenarioConfig,
    TrafficSpec,
)


@contextlib.contextmanager
def _out_stream(path: Optional[str]):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _read_config(path: str) -> ScenarioConfig:
    if path == "-":
        return scenario.load_config(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return scenario.load_config(fh)


def _write_run_outputs(result: netsim.SimResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "events.log"), "w", encoding="utf-8") as fh:
        fh.write(result.log_text())
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(result.report_text())
    with open(os.path.join(out_dir, "provenance.journal"), "w",
              encoding="utf-8") as fh:
        lines = events.journal(result.log)
        lines.append("")  # ends the last line; an empty journal stays empty
        fh.write("\n".join(lines))


def cmd_run(args: argparse.Namespace) -> int:
    config = _read_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    result = netsim.run(config)
    if args.out:
        _write_run_outputs(result, args.out)
    counts = result.report["counts"]
    print(f"emitted={counts['emitted']} accepted={counts['accepted']} "
          f"rejected={counts['rejected']} dropped={counts['dropped']} "
          f"in_flight={counts['in_flight']}")
    if args.out:
        print(f"wrote events.log, report.json, provenance.journal to {args.out}")
    return 0


# -- attack suite --------------------------------------------------------------

def _suite_base(seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        seed=seed,
        nodes=[
            NodeSpec(id=1, ip="10.0.0.1", role="source", x=5.0, y=50.0),
            NodeSpec(id=2, ip="10.0.0.2", role="intermediate", x=30.0, y=50.0),
            NodeSpec(id=3, ip="10.0.0.3", role="intermediate", x=55.0, y=50.0),
            NodeSpec(id=4, ip="10.0.0.4", role="intermediate", x=80.0, y=50.0),
            NodeSpec(id=9, ip="10.0.0.9", role="gateway", x=95.0, y=50.0),
        ],
        routes=[[1, 2, 3, 4, 9]],
        traffic=[TrafficSpec(source=1, count=10, interval_ms=1000,
                             payload_bytes=16)],
        key_rotation=KeyRotationConfig(min_generations=15, max_generations=25),
    )


def _suite_attacks(kind: str) -> list:
    if kind == EAVESDROP:
        return [AttackSpec(kind=kind, from_id=1, to_id=2)]
    if kind == REPLAY:
        # re-delivery lands long after the original was accepted and purged
        return [AttackSpec(kind=kind, from_id=1, to_id=2, delay_ms=30000)]
    if kind == INSERT_BITS:
        return [AttackSpec(kind=kind, from_id=2, to_id=3, offset_bits=80,
                           bits=(1, 0, 1, 1, 0, 0, 1, 0))]
    if kind == DELETE_BITS:
        return [AttackSpec(kind=kind, from_id=2, to_id=3, q=8)]
    if kind == MODIFY_PAYLOAD:
        return [AttackSpec(kind=kind, from_id=2, to_id=3, edits=((0, 0x01),))]
    if kind == MODIFY_WATERMARK:
        return [AttackSpec(kind=kind, from_id=3, to_id=4, edits=((5, 0xFF),))]
    if kind == DROP:
        return [AttackSpec(kind=kind, from_id=3, to_id=4)]
    if kind == FAKE_INJECT:
        # forge packets impersonating live traffic under an unregistered key
        return [
            AttackSpec(kind=kind, to_id=2, src=1, seq=s,
                       after_ms=(s - 1) * 1000 + 100,
                       ip=bytes([10, 0, 0, 1]), payload=b"forged-payload!!",
                       key_material=bytes(range(16, 32)), key_epoch=999)
            for s in (2, 4, 6)
        ]
    if kind == STORE_PROBE:
        return [AttackSpec(kind=kind, caller_id=666, src=1, seq=1,
                           after_ms=500)]
    raise ValueError(f"no suite scenario for {kind!r}")


def cmd_attack_suite(args: argparse.Namespace) -> int:
    rows = []
    total_false_accepts = 0
    for kind in adversary.KINDS:
        config = _suite_base(args.seed)
        config.attacks = _suite_attacks(kind)
        result = netsim.run(config)
        summary = analysis.detection_report(result.log)
        entry = summary["kinds"].get(kind, {"attacks": 0, "detected": 0,
                                            "rate": None})
        total_false_accepts += summary["false_accepts"]
        rows.append((kind, entry["attacks"], entry["detected"], entry["rate"],
                     summary["false_accepts"]))
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, f"{kind}.log"), "w",
                      encoding="utf-8") as fh:
                fh.write(result.log_text())

    print(f"{'kind':<18}{'attacks':>8}{'detected':>10}{'rate':>8}"
          f"{'false_accepts':>15}")
    for kind, n_attacks, detected, rate, false_accepts in rows:
        shown_detected = "-" if detected is None else str(detected)
        shown_rate = "-" if rate is None else f"{rate:.2f}"
        print(f"{kind:<18}{n_attacks:>8}{shown_detected:>10}{shown_rate:>8}"
              f"{false_accepts:>15}")
    if total_false_accepts:
        print(f"FALSE ACCEPTS: {total_false_accepts}", file=sys.stderr)
        return 1
    return 0


def cmd_cost_table(args: argparse.Namespace) -> int:
    # the rows come first, so that a bad argument leaves no output file behind
    rows = analysis.cost_rows(args.max_hops, args.pfp)
    with _out_stream(args.out) as out:
        analysis.write_cost_csv(out, rows)
    return 0


def cmd_energy_table(args: argparse.Namespace) -> int:
    report_path = os.path.join(args.run, "report.json")
    with open(report_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    try:
        params = analysis.EnergyParams(**report["energy"])
    except (KeyError, TypeError) as err:
        raise ValueError(f"{report_path}: no usable energy parameters "
                         f"({err})") from err
    errors = analysis.energy_errors(params)
    if errors:
        raise ValueError(f"{report_path}: "
                         + "; ".join(f"energy.{e}" for e in errors))
    # rendered first, so that a malformed node entry leaves no output file
    text = io.StringIO()
    try:
        analysis.write_energy_csv(text, report, params)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{report_path}: malformed nodes "
                         f"({type(err).__name__}: {err})") from err
    with _out_stream(args.out) as out:
        out.write(text.getvalue())
    return 0


def cmd_inspect_store(args: argparse.Namespace) -> int:
    if args.journal == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.journal, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()

    live: dict = {}
    history: dict = {}
    for idx, rec in events.read(lines):
        if type(rec) not in (events.Store, events.Delete):
            print(f"unrecognized journal line: {lines[idx]}", file=sys.stderr)
            return 1
        key = (rec.src, rec.seq)
        hist = history.setdefault(key, {"stores": 0, "deletes": 0})
        if type(rec) is events.Store:
            live.setdefault(key, []).append(rec)
            hist["stores"] += 1
        else:
            live.pop(key, None)
            hist["deletes"] += 1

    for key in sorted(history):
        src, seq = key
        if args.src is not None and src != args.src:
            continue
        if args.seq is not None and seq != args.seq:
            continue
        hist = history[key]
        records = live.get(key, [])
        hops = ",".join(str(r.hop) for r in records) or "-"
        print(f"packet {src}:{seq} stores={hist['stores']} "
              f"deletes={hist['deletes']} live={len(records)} hops={hops}")
        if args.verbose:
            for r in records:
                print(f"  hop {r.hop} by node {r.by} at {r.time}ms "
                      f"cipher={r.cipher_hex}")
    return 0


def cmd_gen_config(args: argparse.Namespace) -> int:
    with _out_stream(args.out) as out:
        out.write(scenario.EXAMPLE_CONFIG)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zircon",
        description="Zero-watermarking protocol simulator and analysis tools",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--config", required=True,
                       help="scenario YAML path, or - for stdin")
    p_run.add_argument("--out", help="directory for events.log, report.json, "
                                     "provenance.journal")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.set_defaults(func=cmd_run)

    p_suite = sub.add_parser("attack-suite",
                             help="run one scenario per attack kind and "
                                  "print a detection matrix")
    p_suite.add_argument("--seed", type=int, default=1)
    p_suite.add_argument("--out", help="directory for per-kind event logs")
    p_suite.set_defaults(func=cmd_attack_suite)

    p_cost = sub.add_parser("cost-table", help="emit the provenance cost CSV")
    p_cost.add_argument("--max-hops", type=int, default=30)
    p_cost.add_argument("--pfp", type=float, default=0.02)
    p_cost.add_argument("--out", default="-")
    p_cost.set_defaults(func=cmd_cost_table)

    p_energy = sub.add_parser("energy-table",
                              help="emit the per-node energy CSV for a "
                                   "completed run directory")
    p_energy.add_argument("--run", required=True,
                          help="directory written by `run --out`")
    p_energy.add_argument("--out", default="-")
    p_energy.set_defaults(func=cmd_energy_table)

    p_inspect = sub.add_parser("inspect-store",
                               help="summarize a provenance journal")
    p_inspect.add_argument("--journal", required=True,
                           help="journal path, or - for stdin")
    p_inspect.add_argument("--src", type=int)
    p_inspect.add_argument("--seq", type=int)
    p_inspect.add_argument("--verbose", action="store_true")
    p_inspect.set_defaults(func=cmd_inspect_store)

    p_gen = sub.add_parser("gen-config",
                           help="emit a commented example scenario")
    p_gen.add_argument("--out", default="-")
    p_gen.set_defaults(func=cmd_gen_config)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
