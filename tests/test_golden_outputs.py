"""Byte-for-byte guard on the deterministic run outputs.

Four small seeded scenarios run through `zircon run --out` and the sha256 of
each output file is pinned, and the benchmark's three simulator workloads are
held at two seeds each to the digests perfbench/baseline.json records.  Any
change that moves a single byte of events.log, report.json or
provenance.journal fails here; a change that is meant to move them must
update the pinned digests and say why.  One more test runs the CLI under two
hash seeds, which the pinned digests, taken under one, cannot tell apart.
"""
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zircon.cli import main

MULTIHOP_LINE = """\
seed: 11
mode: multihop
freshness_s: 60
per_hop_delay_ms: 300
nodes:
  - {id: 1, ip: 10.0.0.1, role: source, x: 10.0, y: 50.0}
  - {id: 2, ip: 10.0.0.2, role: intermediate, x: 40.0, y: 50.0}
  - {id: 3, ip: 10.0.0.3, role: intermediate, x: 70.0, y: 50.0}
  - {id: 9, ip: 10.0.0.9, role: gateway, x: 95.0, y: 50.0}
routes:
  - [1, 2, 3, 9]
traffic:
  - {source: 1, count: 25, interval_ms: 700, start_ms: 0, payload_bytes: 24}
attacks: []
"""

SINGLEHOP_FANIN = """\
seed: 23
mode: singlehop
freshness_s: 60
per_hop_delay_ms: 200
key_rotation: {min_generations: 3, max_generations: 6}
nodes:
  - {id: 1, ip: 10.0.1.1, role: source, x: 5.0, y: 10.0}
  - {id: 2, ip: 10.0.1.2, role: source, x: 5.0, y: 40.0}
  - {id: 3, ip: 10.0.1.3, role: source, x: 5.0, y: 70.0}
  - {id: 4, ip: 10.0.1.4, role: source, x: 5.0, y: 95.0}
  - {id: 9, ip: 10.0.1.9, role: gateway, x: 90.0, y: 50.0}
routes:
  - [1, 9]
  - [2, 9]
  - [3, 9]
  - [4, 9]
traffic:
  - {source: 1, count: 8, interval_ms: 900, start_ms: 0, payload_bytes: 16}
  - {source: 2, count: 8, interval_ms: 1100, start_ms: 150, payload_bytes: 8}
  - {source: 3, count: 8, interval_ms: 1300, start_ms: 300, payload_bytes: 32}
  - {source: 4, count: 8, interval_ms: 700, start_ms: 450, payload_bytes: 0}
attacks: []
"""

ATTACKED_LINE = """\
seed: 5
mode: multihop
freshness_s: 60
per_hop_delay_ms: 300
key_rotation: {min_generations: 4, max_generations: 7}
nodes:
  - {id: 1, ip: 10.0.0.1, role: source, x: 5.0, y: 50.0}
  - {id: 2, ip: 10.0.0.2, role: intermediate, x: 30.0, y: 50.0}
  - {id: 3, ip: 10.0.0.3, role: intermediate, x: 55.0, y: 50.0}
  - {id: 4, ip: 10.0.0.4, role: intermediate, x: 80.0, y: 50.0}
  - {id: 9, ip: 10.0.0.9, role: gateway, x: 95.0, y: 50.0}
routes:
  - [1, 2, 3, 4, 9]
traffic:
  - {source: 1, count: 12, interval_ms: 1000, start_ms: 0, payload_bytes: 16}
attacks:
  - {kind: modify_payload, from: 2, to: 3, seq: 3, edits: [[0, 1]]}
  - {kind: modify_watermark, from: 3, to: 4, seq: 5, edits: [[5, 255]]}
  - {kind: insert_bits, from: 2, to: 3, seq: 7, offset_bits: 80, bits: [1, 0, 1, 1, 0, 0, 1, 0]}
  - {kind: drop, from: 3, to: 4, seq: 9}
  - {kind: replay, from: 1, to: 2, seq: 10, delay_ms: 30000}
  - {kind: fake_inject, to: 2, src: 1, seq: 4, after_ms: 3100, ip: 10.0.0.1, payload_hex: 666f72676564, key_material_hex: 101112131415161718191a1b1c1d1e1f, key_epoch: 999}
  - {kind: store_probe, caller_id: 666, src: 1, seq: 1, after_ms: 500}
"""

# the null branches of report.json: seq 2 dies on the first link (final and
# path null, no verdicts, a suspected drop), and seq 5 reaches node 3 cut to
# its 6-byte src/seq prefix, so its final verdict is a frame_fail with hop
# null; twelve packets put "1:10" before "1:2"
NULL_BRANCHES = """\
seed: 31
mode: multihop
freshness_s: 60
per_hop_delay_ms: 250
key_rotation: {min_generations: 5, max_generations: 9}
nodes:
  - {id: 1, ip: 10.0.2.1, role: source, x: 5.0, y: 50.0}
  - {id: 2, ip: 10.0.2.2, role: intermediate, x: 35.0, y: 50.0}
  - {id: 3, ip: 10.0.2.3, role: intermediate, x: 65.0, y: 50.0}
  - {id: 9, ip: 10.0.2.9, role: gateway, x: 95.0, y: 50.0}
routes:
  - [1, 2, 3, 9]
traffic:
  - {source: 1, count: 12, interval_ms: 800, start_ms: 0, payload_bytes: 16}
attacks:
  - {kind: drop, from: 1, to: 2, seq: 2}
  - {kind: delete_bits, from: 2, to: 3, seq: 5, offset_bits: 48, q: 344}
"""

# sha256 of (events.log, report.json, provenance.journal)
GOLDEN = {
    "multihop_line": (MULTIHOP_LINE, (
        "112a8b893f585abac3353984e2327dabe3b306462ac5446e22850a492ea71ff3",
        "509fe11922b908a553ad2a4642c269374c2033217ccc8f4fa75a9b100dc48369",
        "0bd0a06bd7fad6767a57f9f9951d06edc2f3a7419135e021fcd2e63741736a1c",
    )),
    "singlehop_fanin": (SINGLEHOP_FANIN, (
        "49203d80351480e013a5c76e4e1f7ba9740f5b602fed374fe40413737ed2460b",
        "2415ac04e8d33f7739249d455e72e7adf172be9d9954245f7130247bd9e7d296",
        "612aff6fd602b03750ff54002f54509f9469c4e48e87a82eeabb47f7b227ad2e",
    )),
    "attacked_line": (ATTACKED_LINE, (
        "5ac57407379a60a7ef4dbe33bae2f779d7b10aa12b39cf722abe98aa38aca122",
        "62823e538e300987eb75ede48d83cbec2e2ee50b7f996df78ca303f380186da3",
        "613472079b5c43414d3c5995114940b3bf3ab783807ae9f69de5172b808726b0",
    )),
    "null_branches": (NULL_BRANCHES, (
        "632b4427e88b29ea3080cc89bd3f76f463fd90dccea6e20999af3af22abc1164",
        "a6f0e6cd9a927893f0542834d1c46fe13a29c085fb824f16b988611932ced30e",
        "89c254becfdf28276c8726279f02615cfbf9741ed58d470a2a34e17412102675",
    )),
}

OUTPUT_FILES = ("events.log", "report.json", "provenance.journal")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_outputs_match_pinned_digests(name, tmp_path, capsys):
    yaml_text, want = GOLDEN[name]
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(yaml_text, encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    got = tuple(hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
                for f in OUTPUT_FILES)
    assert got == want


ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load_bench_workloads():
    """perfbench/workloads.py, loaded by path so it shadows no module."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


BENCH_WORKLOADS = _load_bench_workloads()


@pytest.mark.parametrize("workload, seed", [
    (w, s) for w in ("line_deep", "fanin_singlehop", "attack_mix")
    for s in (1, 2)])
def test_bench_workload_outputs_match_the_baseline(workload, seed, tmp_path,
                                                   capsys):
    baseline = json.loads((PERFBENCH / "baseline.json").read_text("utf-8"))
    want = baseline["workloads"][workload]["digests_by_seed"][str(seed)]
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(BENCH_WORKLOADS.GENERATORS[workload](seed).yaml_text,
                   encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    got = {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
           for f in OUTPUT_FILES}
    assert got == want


def _zircon(hash_seed: str, *args: str, cwd: Path):
    """`python -m zircon ARGS` in its own interpreter under PYTHONHASHSEED."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return subprocess.run([sys.executable, "-m", "zircon", *args], cwd=cwd,
                          env=env, capture_output=True, timeout=120)


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # the goldens run under one hash seed, so an output that iterates a set
    # or dict of str in hash order passes them; two interpreters with
    # different seeds disagree on that order.  ATTACKED_LINE rotates keys and
    # carries a replay, a drop, a forged frame and a store probe.
    (tmp_path / "scenario.yaml").write_text(ATTACKED_LINE, encoding="utf-8")
    outputs = []
    for hash_seed in ("0", "12345"):
        out_dir = tmp_path / hash_seed
        run = _zircon(hash_seed, "run", "--config", "scenario.yaml", "--out",
                      str(out_dir), cwd=tmp_path)
        suite = _zircon(hash_seed, "attack-suite", "--seed", "3", cwd=tmp_path)
        assert run.returncode == 0, run.stderr
        assert suite.returncode == 0, suite.stderr
        outputs.append([(out_dir / f).read_bytes() for f in OUTPUT_FILES]
                       + [suite.stdout])
    assert outputs[0] == outputs[1]
