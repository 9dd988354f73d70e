"""Byte-for-byte guard on `zircon attack-suite --seed 3`.

The golden run scenarios in test_golden_outputs.py carry no eavesdrop or
delete_bits attack; the suite runs one scenario per attack kind, so its
stdout matrix and the sha256 of each per-kind events log pin the rest of
the writers, and each scenario's whole detection report is pinned beside
them.
"""
import hashlib

import pytest

from zircon import adversary, analysis, cli, netsim
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


def _report(kind, attacks=10, detected=10, rate=1.0, clean_accepted=0,
            drop_localization=None):
    return {"kinds": {kind: {"attacks": attacks, "detected": detected,
                             "rate": rate}},
            "false_accepts": 0, "false_rejects": 0,
            "clean_accepted": clean_accepted,
            "drop_localization": drop_localization or {}}


# every key of detection_report, where the matrix above shows four columns:
# clean packets accepted beside a forger or a prober, and the hop at which a
# dropped packet's records were stranded
REPORTS = {
    "eavesdrop": _report("eavesdrop", detected=None, rate=None),
    "replay": _report("replay"),
    "insert_bits": _report("insert_bits"),
    "delete_bits": _report("delete_bits"),
    "modify_payload": _report("modify_payload"),
    "modify_watermark": _report("modify_watermark"),
    "drop": _report("drop", drop_localization={
        f"1:{seq}": 3 for seq in range(1, 11)}),
    "fake_inject": _report("fake_inject", attacks=3, detected=3,
                           clean_accepted=7),
    "store_probe": _report("store_probe", attacks=1, detected=1,
                           clean_accepted=9),
}


@pytest.mark.parametrize("kind", adversary.KINDS)
def test_detection_report_seed_3_matches_pinned_report(kind):
    config = cli._suite_base(3)
    config.attacks = cli._suite_attacks(kind)
    assert analysis.detection_report(netsim.run(config).log) == REPORTS[kind]
