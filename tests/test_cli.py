"""Command-line verbs exercised through main(argv)."""
import hashlib
import json
import math
from dataclasses import asdict

import pytest

from zircon import analysis, scenario
from zircon.analysis import EnergyParams
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
    assert "energy.t_a_ms: must be a finite nonnegative number, got nan" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old, new, message", [
    ("count: 20,", "count: 2.5,",
     "traffic[0].count: must be an integer, got 2.5"),
    ("interval_ms: 1000,", 'interval_ms: "1000",',
     "traffic[0].interval_ms: must be an integer, got '1000'"),
    ("freshness_s: 60", "freshness_s: sixty",
     "freshness_s: must be an integer, got 'sixty'"),
    ("ip: 10.0.0.2,", "ip: 5,", "nodes[1].ip: must be a string, got 5"),
    ("payload_bytes: 16", "payload_bytes: true",
     "traffic[0].payload_bytes: must be an integer, got True"),
    ("x: 40.0", 'x: "40"', "nodes[1].x: must be a number, got '40'"),
    ("x: 40.0, y: 50.0}", "x: 40.0, y: 50.0, registered: 1}",
     "nodes[1].registered: must be true or false, got 1"),
    ("[1, 2, 3, 9]", "[1, 2.0, 3, 9]",
     "routes[0][1]: must be an integer, got 2.0"),
    ("attacks: []", "attacks: [{kind: drop, from: 1, to: 2, after_ms: soon}]",
     "attacks[0].after_ms: must be an integer, got 'soon'"),
    ("attacks: []",
     "attacks: [{kind: modify_payload, from: 1, to: 2, edits: [[a, 1]]}]",
     "attacks[0].edits[0][0]: must be an integer, got 'a'"),
    ("attacks: []",
     "attacks: [{kind: fake_inject, to: 2, src: 1, seq: 1, ip: 5, "
     "key_material_hex: 000102030405060708090a0b0c0d0e0f}]",
     "attacks[0].ip: bad IPv4 address 5"),
    ("attacks: []",
     "attacks: [{kind: replay, from: 1, to: 2, mutate_timestamp: nope}]",
     "attacks[0].mutate_timestamp: must be true or false, got 'nope'"),
    ("attacks: []",
     "attacks: [{kind: replay, from: 1, to: 2, mutate_timestamp: 1}]",
     "attacks[0].mutate_timestamp: must be true or false, got 1"),
    ("attacks: []", "attacks: [{kind: insert_bits, from: 1, to: 2, "
     "offset_bits: 3, bits: [true, 0]}]",
     "attacks[0].bits[0]: must be an integer, got True"),
    ("attacks: []", "attacks: [{kind: insert_bits, from: 1, to: 2, "
     "offset_bits: 3, bits: [0, 1.0]}]",
     "attacks[0].bits[1]: must be an integer, got 1.0"),
], ids=[
    # fixed names, so that rewording a message renames no test
    'count: 20,-count: 2.5,-traffic[0].count: must be an integer, got 2.5',
    'interval_ms: 1000,-interval_ms: "1000",-traffic[0].interval_ms: must be '
    "an integer, got '1000'",
    'freshness_s: 60-freshness_s: sixty-freshness_s: must be an integer, got '
    "'sixty'",
    'ip: 10.0.0.2,-ip: 5,-nodes[1].ip: must be a string, got 5',
    'payload_bytes: 16-payload_bytes: true-traffic[0].payload_bytes: must be '
    'an integer, got True',
    'x: 40.0-x: "40"-nodes[1].x: must be a number, got \'40\'',
    'x: 40.0, y: 50.0}-x: 40.0, y: 50.0, registered: 1}-nodes[1].registered: '
    'must be true or false, got 1',
    '[1, 2, 3, 9]-[1, 2.0, 3, 9]-routes[0][1]: must be an integer, got 2.0',
    'attacks: []-attacks: [{kind: drop, from: 1, to: 2, after_ms: '
    "soon}]-attacks[0].after_ms: must be an integer, got 'soon'",
    'attacks: []-attacks: [{kind: modify_payload, from: 1, to: 2, edits: '
    "[[a, 1]]}]-attacks[0].edits[0][0]: must be an integer, got 'a'",
    'attacks: []-attacks: [{kind: fake_inject, to: 2, src: 1, seq: 1, ip: 5, '
    'key_material_hex: 000102030405060708090a0b0c0d0e0f}]-attacks[0].ip: bad '
    'IPv4 address 5',
    'attacks: []-attacks: [{kind: replay, from: 1, to: 2, mutate_timestamp: '
    "nope}]-attacks[0].mutate_timestamp: must be true or false, got 'nope'",
    'attacks: []-attacks: [{kind: replay, from: 1, to: 2, mutate_timestamp: '
    '1}]-attacks[0].mutate_timestamp: must be true or false, got 1',
    'attacks: []-attacks: [{kind: insert_bits, from: 1, to: 2, offset_bits: '
    '3, bits: [true, 0]}]-attacks[0].bits[0]: must be an integer, got True',
    'attacks: []-attacks: [{kind: insert_bits, from: 1, to: 2, offset_bits: '
    '3, bits: [0, 1.0]}]-attacks[0].bits[1]: must be an integer, got 1.0',
])
def test_run_refuses_a_wrong_typed_scalar(tmp_path, capsys, old, new, message):
    # each used to end in a traceback, or (payload_bytes: true) to run with
    # a 1-byte payload
    assert scenario.EXAMPLE_CONFIG.count(old) == 1
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(scenario.EXAMPLE_CONFIG.replace(old, new), encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 1
    assert err == f"invalid scenario config:\n  {message}\n"
    assert out == ""


@pytest.mark.parametrize("attack, message", [
    ("{kind: modify_payload, from: 1, to: 2, edits: [[100, 1]]}",
     "attacks[0].edits: offset 100 is outside the 16-byte payload of the "
     "shortest frame on 1->2"),
    ("{kind: insert_bits, from: 1, to: 2, offset_bits: 5000, bits: [1]}",
     "attacks[0].offset_bits: 5000 is outside the 392 bits of the shortest "
     "frame on 1->2"),
])
def test_run_refuses_an_attack_offset_outside_the_frame(tmp_path, capsys,
                                                        attack, message):
    # both used to pass validation and then abort the run, no outputs written
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(scenario.EXAMPLE_CONFIG.replace(
        "attacks: []", f"attacks: [{attack}]"), encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", str(cfg),
                             "--out", str(tmp_path / "out"))
    assert code == 1
    assert err == f"invalid scenario config:\n  {message}\n"
    assert out == ""
    assert not (tmp_path / "out").exists()


_INJECT = ("{kind: fake_inject, to: 2, src: 1, seq: 1, ip: 10.0.0.1, "
           "key_material_hex: 000102030405060708090a0b0c0d0e0f, after_ms: ")


@pytest.mark.parametrize("old, new, message", [
    # edited nothing, and read as 20 false accepts
    ("attacks: []",
     "attacks: [{kind: modify_payload, from: 1, to: 2, edits: [[0, 256]]}]",
     "attacks[0].edits: xor mask 256 is not a byte (1..255)"),
    # raised AttackError from the first frame the delete had cut
    ("attacks: []",
     "attacks: [{kind: delete_bits, from: 1, to: 2, offset_bits: 0, q: 8}, "
     "{kind: modify_watermark, from: 1, to: 2, edits: [[0, 1]]}]",
     "attacks[1]: modify_watermark on 1->2 would parse frames the "
     "delete_bits of attacks[0] has already reshaped"),
    # raised ValueError from the first capture time past 32 bits
    ("start_ms: 0,", "start_ms: 4294967296000,",
     "traffic[0].start_ms: its packets can be in flight at 4294967315900 ms, "
     "past the 32-bit capture time (4294967295 s)"),
    ("attacks: []", f"attacks: [{_INJECT}4294967296000}}]",
     "attacks[0].after_ms: its forged frame can be in flight at "
     "4294967296900 ms, past the 32-bit capture time (4294967295 s)"),
    # raised RuntimeError: delivery to non-verifying node 1
    ("attacks: []",
     "attacks: [{kind: fake_inject, to: 1, src: 1, seq: 3, ip: 10.0.0.1, "
     "key_material_hex: 000102030405060708090a0b0c0d0e0f}]",
     "attacks[0].to: node 1 is a source, which verifies nothing"),
    # ran and wrote `"t_c_ms": Infinity`, which is not JSON
    ("tc_per_op_ms: 0.5", "tc_per_op_ms: 1.0e+308",
     "energy.tc_per_op_ms: 40 ops at 1e+308 ms overflow a float"),
    # ran, and energy-table wrote an energy of inf for every node: each
    # constant is a float, but their sum, or the sum times the power, is not
    ("t_a_ms: 1.0         # acquisition window\n  t_s_ms: 0.5 ",
     "t_a_ms: 1.0e+308    # acquisition window\n  t_s_ms: 1.0e+308 ",
     "energy: inf mJ at t_c_ms 20.0 is not finite"),
    ("p_n_mw: 30.0 ", "p_n_mw: 1.0e+306 ",
     "energy: inf mJ at t_c_ms 20.0 is not finite"),
])
def test_run_refuses_a_config_that_would_abort_or_mislead(tmp_path, capsys,
                                                          old, new, message):
    assert scenario.EXAMPLE_CONFIG.count(old) == 1
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(scenario.EXAMPLE_CONFIG.replace(old, new), encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", str(cfg),
                             "--out", str(tmp_path / "out"))
    assert code == 1
    assert err == f"invalid scenario config:\n  {message}\n"
    assert out == ""
    assert not (tmp_path / "out").exists()


def test_run_just_inside_the_capture_time_horizon(tmp_path, capsys):
    # one packet over three 300-ms hops lands at 4294967295999 ms, the last
    # millisecond of capture time 2**32 - 1 s; a millisecond later is refused
    text = scenario.EXAMPLE_CONFIG.replace("count: 20", "count: 1")
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(text.replace("start_ms: 0,", "start_ms: 4294967295099,"),
                   encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg),
                           "--out", str(tmp_path / "out"))
    assert code == 0
    assert "emitted=1 accepted=1" in out
    cfg.write_text(text.replace("start_ms: 0,", "start_ms: 4294967295100,"),
                   encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 1
    assert "traffic[0].start_ms: its packets can be in flight at " \
        "4294967296000 ms" in err


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


def test_cost_table_takes_the_longest_path_the_hop_index_counts(capsys):
    code, out, _ = run_cli(capsys, "cost-table", "--max-hops", "255")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 256
    assert lines[-1].split(",")[:4] == ["255", "24", str(42 * 255),
                                        str(6 * 255)]


def test_cost_table_file_matches_stdout(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "cost-table")
    assert code == 0
    path = tmp_path / "cost.csv"
    code, _, _ = run_cli(capsys, "cost-table", "--out", str(path))
    assert code == 0
    assert path.read_text() == out


@pytest.mark.parametrize("argv, sha256", [
    ((), "158caa56c38b424061a34ada98be81103139175701fedff3f46eb94e138dc52a"),
    (("--max-hops", "60", "--pfp", "0.001"),
     "926ee9333ba6991c1e90b1d932ec1287bc0bfceaafd7bc823d8c8ae563ac9a65"),
    (("--max-hops", "7", "--pfp", "0.5"),
     "dba6177fd8336adecf6c50945d89db6ba9f46838cef77888350d3410b3466e49"),
])
def test_cost_table_output_is_pinned(capsys, argv, sha256):
    # digests of the table as written when each scheme's size was restated
    # in cost_rows, before it asked provenance_size
    code, out, _ = run_cli(capsys, "cost-table", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


@pytest.mark.parametrize("pfp", ["0", "1", "1.5", "-0.1"])
def test_cost_table_writes_nothing_for_a_bad_pfp(tmp_path, capsys, pfp):
    code, out, err = run_cli(capsys, "cost-table", "--pfp", pfp)
    assert code == 1
    assert out == ""
    assert "false-positive rate must be in (0, 1)" in err
    path = tmp_path / "cost.csv"
    code, out, _ = run_cli(capsys, "cost-table", "--pfp", pfp,
                           "--out", str(path))
    assert code == 1
    assert out == ""
    assert not path.exists()


@pytest.mark.parametrize("hops", [["0"], ["0", "--pfp", "7"], ["-3"],
                                  ["256"], ["100000000"]])
def test_cost_table_writes_nothing_for_a_bad_hop_count(tmp_path, capsys,
                                                       hops):
    # a count below 1 builds no row, and one above 255 would build rows no
    # path has (the 8-bit hop index counts none); both must fail before
    # any output
    message = "hop count must be " + (">= 1" if int(hops[0]) < 1
                                      else "<= 255")
    code, out, err = run_cli(capsys, "cost-table", "--max-hops", *hops)
    assert code == 1
    assert out == ""
    assert message in err
    path = tmp_path / "cost.csv"
    code, out, _ = run_cli(capsys, "cost-table", "--max-hops", *hops,
                           "--out", str(path))
    assert code == 1
    assert out == ""
    assert not path.exists()


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


# a report section's value that deletes the section
DELETED = object()


def edited_report(tmp_path, capsys, section, value):
    """A run directory of the example scenario whose report.json has
    `section` replaced by `value`, or deleted, and the report's path."""
    cfg = write_example(tmp_path)
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", "--config", str(cfg), "--out", str(out_dir))
    report_path = out_dir / "report.json"
    report = json.loads(report_path.read_text())
    if value is DELETED:
        del report[section]
    else:
        report[section] = value
    report_path.write_text(json.dumps(report))
    return out_dir, report_path


def test_energy_table_refuses_a_negative_energy_constant(tmp_path, capsys):
    energy = asdict(EnergyParams(t_a_ms=-1))
    out_dir, report_path = edited_report(tmp_path, capsys, "energy", energy)
    csv_path = tmp_path / "energy.csv"
    code, out, err = run_cli(capsys, "energy-table", "--run", str(out_dir),
                             "--out", str(csv_path))
    assert code == 1
    assert out == ""
    assert err == (f"error: {report_path}: energy.t_a_ms: must be a finite "
                   f"nonnegative number, got -1\n")
    assert not csv_path.exists()


def test_energy_table_refuses_a_partial_energy_mapping(tmp_path, capsys):
    # the left-out constants would otherwise take EnergyParams' defaults
    out_dir, report_path = edited_report(tmp_path, capsys, "energy",
                                         {"p_n_mw": 1.0, "t_a_ms": 2.0})
    csv_path = tmp_path / "energy.csv"
    code, out, err = run_cli(capsys, "energy-table", "--run", str(out_dir),
                             "--out", str(csv_path))
    assert code == 1
    assert out == ""
    assert err == f"error: {report_path}: " + "; ".join(
        f"energy.{name}: missing required key" for name in
        ["t_s_ms", "t_tr_ms", "t_sl_ms", "e0_mj", "intermediate_multiplier",
         "tc_per_op_ms"]) + "\n"
    assert not csv_path.exists()


@pytest.mark.parametrize("energy", [
    EnergyParams(t_a_ms=1.0e308, t_s_ms=1.0e308), EnergyParams(p_n_mw=1.0e306)])
def test_energy_table_refuses_energy_that_overflows(tmp_path, capsys, energy):
    out_dir, report_path = edited_report(tmp_path, capsys, "energy",
                                         asdict(energy))
    csv_path = tmp_path / "energy.csv"
    code, out, err = run_cli(capsys, "energy-table", "--run", str(out_dir),
                             "--out", str(csv_path))
    assert code == 1
    assert out == ""
    # the first node, the source, is charged 20 ops at 0.5 ms
    assert err == (f"error: {report_path}: "
                   f"energy: inf mJ at t_c_ms 10.0 is not finite\n")
    assert not csv_path.exists()


@pytest.mark.parametrize("nodes", [
    {"1": {"role": "source"}}, [1, 2],
    # every run has a node, so a report without one is not a run's
    DELETED, {},
    # json.dumps writes NaN and Infinity, and json.load reads them back
    {"1": {"role": "source", "packets": 1, "t_c_ms": math.nan}},
    {"1": {"role": "source", "packets": 1, "t_c_ms": math.inf}},
    # float() would read these as 1.0, 5.0 and 7.0
    {"1": {"role": "source", "packets": 1, "t_c_ms": True}},
    {"1": {"role": "source", "packets": 1, "t_c_ms": "5"}},
    {"1": {"role": "source", "packets": 1, "t_c_ms": " 7 "}},
    # and the CSV would print these as they stand
    {"1": {"role": "source", "packets": "x", "t_c_ms": 1.0}},
    {"1": {"role": "source", "packets": True, "t_c_ms": 1.0}},
    {"1": {"role": "source", "packets": 2.0, "t_c_ms": 1.0}},
    # float() overflows on an integer past the largest float
    {"1": {"role": "source", "packets": 1, "t_c_ms": 10**400}},
    # a role that no node has
    {"1": {"role": 5, "packets": 1, "t_c_ms": 1.0}},
    {"1": {"role": ["x"], "packets": 1, "t_c_ms": 1.0}},
    {"1": {"role": None, "packets": 1, "t_c_ms": 1.0}},
    {"1": {"role": "router", "packets": 1, "t_c_ms": 1.0}}])
def test_energy_table_refuses_malformed_nodes(tmp_path, capsys, nodes):
    out_dir, report_path = edited_report(tmp_path, capsys, "nodes", nodes)
    csv_path = tmp_path / "energy.csv"
    code, out, err = run_cli(capsys, "energy-table", "--run", str(out_dir),
                             "--out", str(csv_path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {report_path}: malformed nodes (")
    assert not csv_path.exists()


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


def test_attack_suite_fails_on_a_false_accept(capsys, monkeypatch):
    report = analysis.detection_report

    def one_false_accept(log):
        return dict(report(log), false_accepts=1)

    monkeypatch.setattr(analysis, "detection_report", one_false_accept)
    code, out, err = run_cli(capsys, "attack-suite", "--seed", "3")
    assert code == 1
    assert err == "FALSE ACCEPTS: 9\n"
    assert all(line.split()[4] == "1" for line in out.splitlines()[1:])
