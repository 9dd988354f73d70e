"""Command-line verbs exercised through main(argv)."""
import json

import pytest

from zircon import scenario
from zircon.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- gen-config -------------------------------------------------------------------

def test_gen_config_emits_loadable_yaml(capsys):
    code, out, _ = run_cli(capsys, "gen-config")
    assert code == 0
    config = scenario.load_config(out)
    scenario.validate(config)  # raises on any problem
    assert config.seed == 7


def test_gen_config_to_file_then_run(tmp_path, capsys):
    cfg = tmp_path / "scenario.yaml"
    code, _, _ = run_cli(capsys, "gen-config", "--out", str(cfg))
    assert code == 0
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    assert "emitted=20 accepted=20" in out


# -- run --------------------------------------------------------------------------

def write_example(tmp_path):
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(scenario.EXAMPLE_CONFIG, encoding="utf-8")
    return cfg


def test_run_writes_artifacts(tmp_path, capsys):
    cfg = write_example(tmp_path)
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg),
                           "--out", str(out_dir))
    assert code == 0
    assert f"wrote events.log, report.json, provenance.journal to {out_dir}" in out

    log = (out_dir / "events.log").read_text()
    assert log.splitlines()[0].startswith("store|")
    report = json.loads((out_dir / "report.json").read_text())
    assert report["counts"]["accepted"] == 20
    journal = (out_dir / "provenance.journal").read_text().splitlines()
    assert all(line.split("|")[0] in ("store", "delete") for line in journal)


def test_run_is_deterministic_across_invocations(tmp_path, capsys):
    cfg = write_example(tmp_path)
    outputs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code, _, _ = run_cli(capsys, "run", "--config", str(cfg),
                             "--out", str(out_dir))
        assert code == 0
        outputs.append({
            "log": (out_dir / "events.log").read_bytes(),
            "report": (out_dir / "report.json").read_bytes(),
            "journal": (out_dir / "provenance.journal").read_bytes(),
        })
    assert outputs[0] == outputs[1]


def test_run_reads_stdin(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(scenario.EXAMPLE_CONFIG))
    code, out, _ = run_cli(capsys, "run", "--config", "-")
    assert code == 0
    assert "accepted=20" in out


def test_run_seed_override_changes_log(tmp_path, capsys):
    cfg = write_example(tmp_path)
    dirs = []
    for seed in ("7", "8"):
        out_dir = tmp_path / f"seed{seed}"
        code, _, _ = run_cli(capsys, "run", "--config", str(cfg),
                             "--seed", seed, "--out", str(out_dir))
        assert code == 0
        dirs.append((out_dir / "events.log").read_bytes())
    assert dirs[0] != dirs[1]


def test_run_missing_config_fails(capsys):
    code, _, err = run_cli(capsys, "run", "--config", "/no/such/file.yaml")
    assert code == 1
    assert "error" in err.lower() or "no such" in err.lower()


def test_run_invalid_config_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("seed: 1\nnodes: []\nroutes: []\ntraffic: []\n",
                   encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 1
    assert err.strip()


def test_run_refuses_a_nan_energy_constant(tmp_path, capsys):
    # NaN used to run and write `"t_a_ms": NaN`, which is not JSON
    cfg = tmp_path / "scenario.yaml"
    code, _, _ = run_cli(capsys, "gen-config", "--out", str(cfg))
    assert code == 0
    text = cfg.read_text(encoding="utf-8")
    cfg.write_text(text.replace("  t_a_ms: 1.0 ", "  t_a_ms: .nan "),
                   encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", str(cfg),
                             "--out", str(tmp_path / "out"))
    assert code == 1
    assert "energy: t_a_ms must be a finite nonnegative number, got nan" in err
    assert not (tmp_path / "out").exists()


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# -- cost-table ---------------------------------------------------------------------

def test_cost_table_stdout(capsys):
    code, out, _ = run_cli(capsys, "cost-table", "--max-hops", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "H,zircon,ssp,mp,bfp_bytes,bfp_bits"
    assert len(lines) == 6
    assert lines[1].split(",")[:4] == ["1", "24", "42", "6"]


def test_cost_table_file_matches_stdout(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "cost-table")
    assert code == 0
    path = tmp_path / "cost.csv"
    code, _, _ = run_cli(capsys, "cost-table", "--out", str(path))
    assert code == 0
    assert path.read_text() == out


# -- energy-table ---------------------------------------------------------------------

def test_energy_table_from_run_dir(tmp_path, capsys):
    cfg = write_example(tmp_path)
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", "--config", str(cfg), "--out", str(out_dir))
    code, out, _ = run_cli(capsys, "energy-table", "--run", str(out_dir))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "node,role,packets,T_C_ms,energy_mJ"
    assert len(lines) == 5  # nodes 1, 2, 3, 9
    assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "3", "9"]


@pytest.mark.parametrize("energy", [None, {"p_n_mw": 30.0, "volts": 3.3}])
def test_energy_table_refuses_report_without_usable_energy(tmp_path, capsys,
                                                           energy):
    cfg = write_example(tmp_path)
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", "--config", str(cfg), "--out", str(out_dir))
    report_path = out_dir / "report.json"
    report = json.loads(report_path.read_text())
    if energy is None:
        del report["energy"]
    else:
        report["energy"] = energy
    report_path.write_text(json.dumps(report))
    code, out, err = run_cli(capsys, "energy-table", "--run", str(out_dir))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "energy parameters" in err


def test_energy_table_missing_run_dir(capsys):
    code, _, err = run_cli(capsys, "energy-table", "--run", "/no/such/dir")
    assert code == 1
    assert err.strip()


# -- inspect-store ----------------------------------------------------------------------

def test_inspect_store_summarizes_packets(tmp_path, capsys):
    journal = tmp_path / "provenance.journal"
    journal.write_text(
        "store|1|1|1|aa|1|0\n"
        "store|1|1|2|bb|2|300\n"
        "delete|1|1|2|600\n"
        "store|1|2|1|cc|1|1000\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "inspect-store", "--journal", str(journal))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "packet 1:1 stores=2 deletes=1 live=0 hops=-"
    assert lines[1] == "packet 1:2 stores=1 deletes=0 live=1 hops=1"


def test_inspect_store_filters_and_verbose(tmp_path, capsys):
    journal = tmp_path / "provenance.journal"
    journal.write_text(
        "store|1|1|1|aa|1|0\n"
        "store|2|5|1|dd|2|50\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "inspect-store", "--journal", str(journal),
                           "--src", "2", "--verbose")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("packet 2:5 ")
    assert lines[1] == "  hop 1 by node 2 at 50ms cipher=dd"
    assert len(lines) == 2

    code, out, _ = run_cli(capsys, "inspect-store", "--journal", str(journal),
                           "--src", "1", "--seq", "99")
    assert code == 0
    assert out == ""


def test_inspect_store_rejects_malformed_journal(tmp_path, capsys):
    journal = tmp_path / "provenance.journal"
    journal.write_text("verdict|9|1|1|1|accepted|300\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "inspect-store", "--journal", str(journal))
    assert code == 1
    assert "unrecognized" in err


def test_inspect_store_rejects_truncated_line(tmp_path, capsys):
    journal = tmp_path / "provenance.journal"
    journal.write_text("store|1|1|1|aa|1|0\nstore|1|2\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "inspect-store", "--journal", str(journal))
    assert code == 1
    assert out == ""
    assert err.startswith("error: malformed log line 'store|1|2'")


def test_inspect_store_from_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("store|3|7|1|ee|3|25\n"))
    code, out, _ = run_cli(capsys, "inspect-store", "--journal", "-")
    assert code == 0
    assert out.splitlines()[0] == "packet 3:7 stores=1 deletes=0 live=1 hops=1"


# -- attack-suite --------------------------------------------------------------------------

def test_attack_suite_clean_matrix(tmp_path, capsys):
    # slowest CLI test: nine full simulations
    code, out, err = run_cli(capsys, "attack-suite", "--seed", "3",
                             "--out", str(tmp_path / "suite"))
    assert code == 0
    assert "FALSE ACCEPTS" not in err
    lines = out.splitlines()
    assert lines[0].split() == ["kind", "attacks", "detected", "rate",
                                "false_accepts"]
    kinds = {line.split()[0] for line in lines[1:]}
    assert kinds == {"eavesdrop", "replay", "insert_bits", "delete_bits",
                     "modify_payload", "modify_watermark", "drop",
                     "fake_inject", "store_probe"}
    for line in lines[1:]:
        fields = line.split()
        if fields[0] == "eavesdrop":
            assert fields[2] == "-" and fields[3] == "-"
        else:
            assert fields[2] == fields[1], f"missed detections: {line}"
            assert fields[3] == "1.00"
        assert fields[4] == "0"
    for kind in kinds:
        assert (tmp_path / "suite" / f"{kind}.log").exists()
