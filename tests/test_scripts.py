"""Smoke tests for the scripts under scripts/: each runs as its own process
against the package in src/, the way a user runs it.  mutants.py, which
runs the tests itself, only has its table checked, and bench.py, which runs
the benchmark, only has its reading of the benchmark's output checked, both
in this process."""
import copy
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


def test_run_demo(tmp_path):
    proc = run_script("run_demo.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "== clean run ==" in proc.stdout
    assert "== attacked run ==" in proc.stdout
    assert "false accepts: 0" in proc.stdout.splitlines()


def test_sweep_tables(tmp_path):
    out_dir = tmp_path / "tables"
    proc = run_script("sweep_tables.py", "--out-dir", str(out_dir),
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    cost = (out_dir / "cost.csv").read_text(encoding="utf-8").splitlines()
    assert cost[0] == "H,zircon,ssp,mp,bfp_bytes,bfp_bits"
    assert [row.split(",")[0] for row in cost[1:]] == [
        str(h) for h in range(1, 31)]
    energy = (out_dir / "energy.csv").read_text(encoding="utf-8").splitlines()
    assert energy[0] == "T_C_ms,energy_mJ,source_budget_mJ,relay_budget_mJ"
    assert len(energy) == 1 + 201
    assert proc.stdout.splitlines()[-1] == (
        "bloom filter overtakes the constant 24-byte mark at H=24")


def test_sweep_tables_when_the_bloom_filter_never_overtakes(tmp_path):
    # at a 95% false-positive rate the filter stays under 24 bytes on every
    # path the 8-bit hop index counts
    out_dir = tmp_path / "tables"
    proc = run_script("sweep_tables.py", "--out-dir", str(out_dir),
                      "--pfp", "0.95", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == (
        "bloom filter never overtakes the constant 24-byte mark within "
        "255 hops")
    assert len((out_dir / "cost.csv").read_text().splitlines()) == 31
    assert len((out_dir / "energy.csv").read_text().splitlines()) == 202


def test_sweep_tables_writes_nothing_for_a_bad_hop_count(tmp_path):
    out_dir = tmp_path / "tables"
    for hops, message in (("0", "hop count must be >= 1"),
                          ("256", "hop count must be <= 255")):
        proc = run_script("sweep_tables.py", "--out-dir", str(out_dir),
                          "--max-hops", hops, cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"
        assert not out_dir.exists()


def load_script(name):
    """A script under scripts/ as a module, imported in this process."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_still_finds_its_text_and_its_test():
    # scripts/mutants.py itself runs a test suite per entry; this only keeps
    # its table from going stale, without starting a process
    mutants = load_script("mutants")
    assert len(mutants.MUTANTS) == 26
    for path, old, new, test in mutants.MUTANTS:
        assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1, old
        assert old != new
        test_file, name = test.split("::")
        assert f"def {name}(" in (ROOT / test_file).read_text(encoding="utf-8")


# perfbench/run.py's output for one workload, copied as printed, untraced and
# traced; a backslash at a line's end joins it to the next
RUN_PY_TRACE0 = """\
host {"clock": "wall (time.perf_counter), scaled by the calibration loop", \
"cryptography": "48.0.0", "nproc": 2, "openssl": "OpenSSL 4.0.0 14 Apr \
2026", "platform": "Linux-6.18.44-fc-v140-x86_64-with-glibc2.36", "python": \
"3.11.7"}
workload=line_deep seed=1 seconds=0.5 trace=0
digests {"events.log": \
"ab5b1d36e518b841d3453fd9f91d77001e3d5c28b82a1e2cd901734c2d22bbb9", \
"provenance.journal": \
"37fcfb6bfa3e36debfb49b442185479c569e16ca57c6385338432d6052211c7c", \
"report.json": \
"b9f9f235941afdb56d9dfbec5622057c12e3d4da5fcc822fdd24317a91f4ec67"}
setup_s = 0.00105719 s (median of 5 reps, calibrated; quartiles 0.000993824 \
to 0.00109606; uncalibrated 0.001553)
packets_per_s = 5668.41 1/s (median of 3 reps, calibrated; quartiles \
5577.81 to 5885.26; uncalibrated 4150.66)
cli_run_s = 0.0837014 s (median of 2 reps, calibrated; quartiles 0.0813096 \
to 0.0860932; uncalibrated 0.122963)
peak_py_mb = 2.43705 MB (one untraced pass)
ops attempted=400 failed=0
peak_py_mb counts Python allocations only; OpenSSL memory is not seen by \
tracemalloc
{"correct": true, "attempted": 400, "failed": 0, "metrics": {"setup_s": \
{"value": 0.0010571856046088617, "unit": "s"}, "packets_per_s": {"value": \
5668.408540021264, "unit": "1/s"}, "cli_run_s": {"value": \
0.0837013651080867, "unit": "s"}, "peak_py_mb": {"value": 2.437051, "unit": \
"MB"}}}
"""

RUN_PY_TRACE1 = """\
host {"clock": "wall (time.perf_counter), scaled by the calibration loop", \
"cryptography": "48.0.0", "nproc": 2, "openssl": "OpenSSL 4.0.0 14 Apr \
2026", "platform": "Linux-6.18.44-fc-v140-x86_64-with-glibc2.36", "python": \
"3.11.7"}
workload=line_deep seed=1 seconds=0.5 trace=1
digests {"events.log": \
"ab5b1d36e518b841d3453fd9f91d77001e3d5c28b82a1e2cd901734c2d22bbb9", \
"provenance.journal": \
"37fcfb6bfa3e36debfb49b442185479c569e16ca57c6385338432d6052211c7c", \
"report.json": \
"b9f9f235941afdb56d9dfbec5622057c12e3d4da5fcc822fdd24317a91f4ec67"}
crypto.encrypt_block.calls = 11 1/pkt
crypto.encrypt_block.us = 1.77036 us
crypto.decrypt_block.calls = 11 1/pkt
crypto.decrypt_block.us = 2.54553 us
crypto.digest.calls = 12 1/pkt
crypto.digest.us = 1.60533 us
watermark.embed.calls = 11 1/pkt
watermark.embed.us = 1.88848 us
watermark.extract.calls = 11 1/pkt
watermark.extract.us = 1.50799 us
provstore.store.calls = 11 1/pkt
provstore.store.us = 2.62921 us
provstore.query_last.calls = 11 1/pkt
provstore.query_last.us = 0.616384 us
provstore.query_all.calls = 1 1/pkt
provstore.query_all.us = 1.08728 us
provstore.delete_all.calls = 1 1/pkt
provstore.delete_all.us = 4.91139 us
nodes.emit.calls = 1 1/pkt
nodes.emit.us = 7.79523 us
nodes.process.calls = 10 1/pkt
nodes.process.us = 11.4793 us
nodes.verify.calls = 1 1/pkt
nodes.verify.us = 48.9937 us
adversary.apply.calls = 0 1/pkt
adversary.apply.us = 0 us
internal_datagram.label.calls = 0 1/pkt
internal_datagram.label.us = 0 us
internal_datagram.check.calls = 0 1/pkt
internal_datagram.check.us = 0 us
watermark.record.us = 2.04368 us
watermark.hash_part.us = 2.29607 us
crypto.select_label_bits.lsb32.us = 0 us
crypto.select_label_bits.prng.us = 0 us
crypto.share = 0.119666 ratio
watermark.share = 0.156703 ratio
provstore.share = 0.0747709 ratio
nodes.share = 0.307657 ratio
adversary.share = 0 ratio
crypto.keys = 1 count
crypto.block_ops_per_key = 8800 count
provstore.live_sets_peak = 3 count
nodes.accept_ratio = 1 ratio
netsim.step.calls = 12.0025 1/pkt
netsim.step.us_p50 = 16.656 us
netsim.step.us_p99 = 55.235 us
netsim.self.share = 0.209929 ratio
scenario.load_config.s = 0.00108538 s
netsim.init.s = 0.000209356 s
netsim.report.s = 0.00726914 s
cli.write.s = 0.0281187 s
analysis.detection_report.s = 0 s
trace.overhead = 1.53311 ratio
ops attempted=400 failed=0
{"correct": true, "attempted": 400, "failed": 0, "metrics": \
{"crypto.encrypt_block.calls": {"value": 11.0, "unit": "1/pkt"}, \
"crypto.encrypt_block.us": {"value": 1.770355310961322, "unit": "us"}, \
"crypto.decrypt_block.calls": {"value": 11.0, "unit": "1/pkt"}, \
"crypto.decrypt_block.us": {"value": 2.5455264367889012, "unit": "us"}, \
"crypto.digest.calls": {"value": 12.0, "unit": "1/pkt"}, \
"crypto.digest.us": {"value": 1.6053305507234148, "unit": "us"}, \
"watermark.embed.calls": {"value": 11.0, "unit": "1/pkt"}, \
"watermark.embed.us": {"value": 1.8884819074270183, "unit": "us"}, \
"watermark.extract.calls": {"value": 11.0, "unit": "1/pkt"}, \
"watermark.extract.us": {"value": 1.5079890911720488, "unit": "us"}, \
"provstore.store.calls": {"value": 11.0, "unit": "1/pkt"}, \
"provstore.store.us": {"value": 2.6292147716352097, "unit": "us"}, \
"provstore.query_last.calls": {"value": 11.0, "unit": "1/pkt"}, \
"provstore.query_last.us": {"value": 0.6163835774769365, "unit": "us"}, \
"provstore.query_all.calls": {"value": 1.0, "unit": "1/pkt"}, \
"provstore.query_all.us": {"value": 1.0872799460533618, "unit": "us"}, \
"provstore.delete_all.calls": {"value": 1.0, "unit": "1/pkt"}, \
"provstore.delete_all.us": {"value": 4.911394074345784, "unit": "us"}, \
"nodes.emit.calls": {"value": 1.0, "unit": "1/pkt"}, "nodes.emit.us": \
{"value": 7.79522921826962, "unit": "us"}, "nodes.process.calls": {"value": \
10.0, "unit": "1/pkt"}, "nodes.process.us": {"value": 11.479337063065032, \
"unit": "us"}, "nodes.verify.calls": {"value": 1.0, "unit": "1/pkt"}, \
"nodes.verify.us": {"value": 48.993687666249265, "unit": "us"}, \
"adversary.apply.calls": {"value": 0.0, "unit": "1/pkt"}, \
"adversary.apply.us": {"value": 0.0, "unit": "us"}, \
"internal_datagram.label.calls": {"value": 0.0, "unit": "1/pkt"}, \
"internal_datagram.label.us": {"value": 0.0, "unit": "us"}, \
"internal_datagram.check.calls": {"value": 0.0, "unit": "1/pkt"}, \
"internal_datagram.check.us": {"value": 0.0, "unit": "us"}, \
"watermark.record.us": {"value": 2.0436829979161937, "unit": "us"}, \
"watermark.hash_part.us": {"value": 2.2960743129058554, "unit": "us"}, \
"crypto.select_label_bits.lsb32.us": {"value": 0.0, "unit": "us"}, \
"crypto.select_label_bits.prng.us": {"value": 0.0, "unit": "us"}, \
"crypto.share": {"value": 0.1196662117986941, "unit": "ratio"}, \
"watermark.share": {"value": 0.15670344730051364, "unit": "ratio"}, \
"provstore.share": {"value": 0.07477092308520468, "unit": "ratio"}, \
"nodes.share": {"value": 0.3076567699118554, "unit": "ratio"}, \
"adversary.share": {"value": 0.0, "unit": "ratio"}, "crypto.keys": \
{"value": 1, "unit": "count"}, "crypto.block_ops_per_key": {"value": \
8800.0, "unit": "count"}, "provstore.live_sets_peak": {"value": 3, "unit": \
"count"}, "nodes.accept_ratio": {"value": 1.0, "unit": "ratio"}, \
"netsim.step.calls": {"value": 12.0025, "unit": "1/pkt"}, \
"netsim.step.us_p50": {"value": 16.655998479109257, "unit": "us"}, \
"netsim.step.us_p99": {"value": 55.23500294657424, "unit": "us"}, \
"netsim.self.share": {"value": 0.2099292539134769, "unit": "ratio"}, \
"scenario.load_config.s": {"value": 0.001085375666055673, "unit": "s"}, \
"netsim.init.s": {"value": 0.0002093559996865224, "unit": "s"}, \
"netsim.report.s": {"value": 0.0072691390341788065, "unit": "s"}, \
"cli.write.s": {"value": 0.028118738668126753, "unit": "s"}, \
"analysis.detection_report.s": {"value": 0.0, "unit": "s"}, \
"trace.overhead": {"value": 1.533112509303798, "unit": "ratio"}}}
"""


def test_a_bench_record_holds_every_metric_benchmark_json_names():
    bench = load_script("bench")
    untraced, traced = map(bench.parse, (RUN_PY_TRACE0, RUN_PY_TRACE1))
    record = bench.workload_record(untraced, traced)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(record["metrics"]) == sorted(
        m["name"] for m in spec["end_to_end"] + spec["per_layer"])
    assert record["metrics"]["packets_per_s"] == {
        "value": 5668.408540021264, "unit": "1/s", "reps": 3, "q1": 5577.81,
        "q3": 5885.26, "uncalibrated": 4150.66}
    assert record["metrics"]["peak_py_mb"] == {"value": 2.437051,
                                               "unit": "MB"}
    assert record["metrics"]["crypto.encrypt_block.calls"] == {
        "value": 11, "unit": "1/pkt"}
    assert record["digests"]["report.json"] == (
        "b9f9f235941afdb56d9dfbec5622057c12e3d4da5fcc822fdd24317a91f4ec67")
    assert (record["correct"], record["attempted"], record["failed"]) == (
        True, 400, 0)
    failed = RUN_PY_TRACE1.replace('{"correct": true', '{"correct": false')
    assert not bench.workload_record(untraced, bench.parse(failed))["correct"]


def test_bench_pairs_counts_wins_and_reports_every_mismatch():
    bench = load_script("bench")
    # as bench.run returns them, with the seed they ran at
    run = dict(bench.parse(RUN_PY_TRACE0), seed=1)
    traced = dict(bench.parse(RUN_PY_TRACE1), seed=1)
    slow = copy.deepcopy(run)
    slow["metrics"]["packets_per_s"]["value"] = 2000.0
    slow["metrics"]["setup_s"]["value"] = 1.0
    lines, mismatches = bench.compare(
        {"line_deep": [(run, slow), (slow, run), (run, slow)]},
        {"line_deep": (traced, traced)})
    assert mismatches == []
    assert "line_deep packets_per_s: parent 5668.41 [3834.2, 5668.41] " \
        "change 2000 [2000, 3834.2] ratio 0.3528; change won 1/3, " \
        "parent won 2/3" in lines
    assert any(line.startswith("line_deep setup_s: ") and line.endswith(
        "change won 1/3, parent won 2/3") for line in lines)
    # a digest or a per-layer call count that moved is a mismatch
    moved = copy.deepcopy(run)
    moved["digests"]["report.json"] = "0" * 64
    more = copy.deepcopy(traced)
    more["metrics"]["provstore.store.calls"]["value"] = 12.0
    _, mismatches = bench.compare({"line_deep": [(run, moved)]},
                                  {"line_deep": (traced, more)})
    assert [m.split(":")[0] for m in mismatches] == [
        "line_deep seed 1", "line_deep trace"]
    assert "provstore.store.calls 11.0 vs 12.0" in mismatches[1]
