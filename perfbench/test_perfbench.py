"""Self-test of the benchmark's own code at tiny sizes; no timing thresholds.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

run.load_program()

TINY = {
    "line_deep": {"packets": 5},
    "fanin_singlehop": {"per_source": 3, "sources": 4},
    "attack_mix": {"per_source": 10},
    "datagram_filter": {"count": 200},
}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(TINY))
def test_generators_are_seeded(name):
    gen = workloads.GENERATORS[name]
    one, again, other = gen(1, **TINY[name]), gen(1, **TINY[name]), \
        gen(2, **TINY[name])
    field = "stream" if name == "datagram_filter" else "yaml_text"
    assert getattr(one, field) == getattr(again, field)
    assert getattr(one, field) != getattr(other, field)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name):
    out = run.bench(name, 3, 0.05, trace=False, sizes=TINY[name])
    result = out["result"]
    assert result["correct"], out["lines"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    if name == "attack_mix":
        wl = workloads.attack_mix(3, **TINY[name])
        assert result["failed"] == len(wl.forged_targets) > 0
    else:
        assert result["failed"] == 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_per_layer_metric(name):
    out = run.bench(name, 3, 0.05, trace=True, sizes=TINY[name])
    result = out["result"]
    # correct also covers the exact per-packet call counts and traced
    # outputs matching untraced ones
    assert result["correct"], out["lines"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_all_workloads_in_one_command(monkeypatch, capsys):
    tiny = {name: lambda seed, gen=gen, name=name: gen(seed, **TINY[name])
            for name, gen in workloads.GENERATORS.items()}
    monkeypatch.setattr(workloads, "GENERATORS", tiny)
    code = run.main(["--workload", "all", "--seed", "2", "--seconds", "0.05"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and last["correct"]
    assert len(last["metrics"]) == len(TINY) * len(SPEC["end_to_end"])


def test_per_layer_spec_matches_benchmark_json():
    spec = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert spec == run.per_layer_spec()


def test_interleaved_batches_short_units_and_scales_to_calibration(
        monkeypatch):
    monkeypatch.setattr(run, "calibrate", lambda: 2 * run.CALIBRATION_NOMINAL_S)
    calls = {"short": 0, "long": 0}

    def short():
        calls["short"] += 1

    def long():
        calls["long"] += 1
        time.sleep(run.MIN_SAMPLE_S)

    scaled, raw = run.interleaved({"short": (short, 0.5, 3),
                                   "long": (long, 0.5, 2)}, 0.0)
    assert len(raw["short"]) == 3 and len(raw["long"]) == 2
    # one warm-up call each; the short unit then runs in batches
    assert calls["long"] == 3
    assert calls["short"] > 1 + 3
    for name in raw:
        # a host twice as slow as nominal halves every time
        assert scaled[name] == pytest.approx([t / 2 for t in raw[name]])


def test_exact_counts_catch_a_missing_call():
    tracer = Tracer()
    for span, per_packet in run.EXACT_PER_PACKET["line_deep"].items():
        tracer.calls[span] = per_packet * 5 + (span == "netsim.step")
    assert run.exact_count_errors("line_deep", tracer, 5) == []
    tracer.calls["crypto.decrypt_block"] -= 1
    assert len(run.exact_count_errors("line_deep", tracer, 5)) == 1


def _clean_report(wl):
    packets = {}
    for (src, seq) in wl.expect_accept:
        packets[f"{src}:{seq}"] = {
            "status": "accepted", "store_records": 0,
            "path": [[ip, 0] for ip in wl.route_ips[src]],
        }
    counts = {"emitted": wl.packets, "accepted": wl.packets, "rejected": 0,
              "dropped": 0, "in_flight": 0}
    return {"counts": counts, "packets": packets}


def test_sim_checks_catch_wrong_fates_and_paths():
    wl = workloads.line_deep(1, packets=3)
    report = _clean_report(wl)
    assert checks.check_sim(wl, report, []) == {"failed": 0, "errors": []}

    report["packets"]["1:2"]["status"] = "rejected"
    report["counts"]["accepted"] -= 1
    report["counts"]["rejected"] += 1
    report["packets"]["1:3"]["path"].reverse()
    got = checks.check_sim(wl, report, [])
    assert got["failed"] == 1
    assert len(got["errors"]) == 2

    report["counts"]["in_flight"] = 1
    assert any("counts sum" in e for e in checks.check_sim(wl, report, [])
               ["errors"])


def test_sim_checks_flag_a_false_accept():
    wl = workloads.attack_mix(1, per_source=2)
    report = _clean_report(wl)
    detection = {"false_accepts": 0}
    probes = ["attack|store_probe|store|1|1|caller=666,"
              "result=authorization_error|5"] * wl.probes
    got = checks.check_sim(wl, report, probes, detection)
    tampered = sum(not ok for ok in wl.expect_accept.values())
    assert got["failed"] == tampered
    assert sum("false accept" in e for e in got["errors"]) == min(tampered, 20)


def test_datagram_checks_catch_misclassification():
    wl = workloads.datagram_filter(1, count=50)
    classes = [cls for _, cls in wl.truth]
    labels = dict(wl.labels)
    assert checks.check_datagrams(wl, classes, labels) == \
        {"failed": 0, "errors": []}
    classes[0] = "something_else"
    first = next(iter(labels))
    labels[first] ^= 1
    got = checks.check_datagrams(wl, classes, labels)
    assert got["failed"] == 1
    assert len(got["errors"]) == 2


def test_reference_label_matches_program():
    from zircon import internal_datagram as idg
    wl = workloads.datagram_filter(4, count=40)
    models = [idg.Ipv4HeaderModel.from_bytes(c)
              for c in workloads.split_stream(wl.stream)]
    for i, want in wl.labels.items():
        mode = workloads.label_mode(models[i].dst)
        labelled = idg.label_datagram(models[i], mode, wl.prng_seed)
        assert idg.extract_label(labelled) == want


def test_tracer_puts_originals_back():
    from zircon import nodes, watermark
    from zircon.provstore import ProvenanceStore
    before = (nodes.extract, watermark.encrypt_block,
              ProvenanceStore.__dict__["store"], nodes.SourceNode.__dict__
              ["emit_multihop"])
    tracer = Tracer()
    tracer.install()
    assert nodes.extract is not before[0]
    tracer.remove()
    after = (nodes.extract, watermark.encrypt_block,
             ProvenanceStore.__dict__["store"], nodes.SourceNode.__dict__
             ["emit_multihop"])
    assert after == before


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert 0 <= tracer.self_s["outer"] < tracer.self_s["inner"]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "line_deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
