"""Smoke tests for the scripts under scripts/: each runs as its own process
against the package in src/, the way a user runs it."""
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
