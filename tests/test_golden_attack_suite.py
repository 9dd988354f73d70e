"""Byte-for-byte guard on `zircon attack-suite --seed 3`.

The golden run scenarios in test_golden_outputs.py carry no eavesdrop or
delete_bits attack; the suite runs one scenario per attack kind, so its
stdout matrix and the sha256 of each per-kind events log pin the rest of
the writers and the detection report.
"""
import hashlib

from zircon.cli import main

MATRIX = """\
kind               attacks  detected    rate  false_accepts
eavesdrop               10         -       -              0
replay                  10        10    1.00              0
insert_bits             10        10    1.00              0
delete_bits             10        10    1.00              0
modify_payload          10        10    1.00              0
modify_watermark        10        10    1.00              0
drop                    10        10    1.00              0
fake_inject              3         3    1.00              0
store_probe              1         1    1.00              0
"""

LOG_SHA256 = {
    "eavesdrop": "151ef9d4908304568723c9bad9c2a86946e9fe0c6cd7769b525bd95153688ebe",
    "replay": "d4ef46d7d44bfa861d86522d6003a8fd65555511579a3e5edad20dc09104199a",
    "insert_bits": "4e649cbf2ce88957b8603311febe079922f0a405a6f1a1f6ab93d1267fc14461",
    "delete_bits": "314763639c96851f85782355ab7ed6f8533a1b1173ca471e9e4ed7f401d1ce60",
    "modify_payload": "3d657eb72ce1f7c5da03d7f367a3959b0a9b2ebcd680a961ffd9cac7c604e082",
    "modify_watermark": "a4a6483b884e9aa3d55eb25ef6dba0262adfe05bdb45a8140662f82a96788666",
    "drop": "34ff81acc87cac3e217fd787391a07324852446f9c878aae519765c81e18ee4b",
    "fake_inject": "158312591d8913c24b40fb1c99c688259d3388b4313679e2085ffb374ae6af2e",
    "store_probe": "e9ddf38e15de3470acb847e3e4f2b4a989016668775cae66951d3d08c4912b6e",
}


def test_attack_suite_seed_3_matches_pinned_outputs(tmp_path, capsys):
    out_dir = tmp_path / "suite"
    assert main(["attack-suite", "--seed", "3", "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out == MATRIX
    got = {kind: hashlib.sha256((out_dir / f"{kind}.log").read_bytes())
           .hexdigest() for kind in LOG_SHA256}
    assert got == LOG_SHA256
