"""Energy and provenance-cost models, CSV writers, and log correlation."""
import io
import math
import re

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.reference import vectors as V
from zircon.analysis import (
    CostModel,
    EnergyParams,
    bfp_bits,
    cost_rows,
    detection_report,
    energy_errors,
    node_budget,
    node_energy,
    provenance_size,
    write_cost_csv,
    write_energy_csv,
)


# -- energy ---------------------------------------------------------------------

def test_energy_at_default_constants():
    params = EnergyParams()
    assert node_energy(params, t_c_ms=0.0) == 18.015
    assert node_energy(params, t_c_ms=10.0) == 18.315


def test_energy_zero_power():
    assert node_energy(EnergyParams(p_n_mw=0.0), 50.0) == 0.0


def test_energy_strictly_monotonic_in_computation_time():
    params = EnergyParams()
    sweep = [node_energy(params, t / 2) for t in range(0, 201)]
    assert all(a < b for a, b in zip(sweep, sweep[1:]))


@given(t_lo=st.floats(min_value=0, max_value=1e5, allow_nan=False),
       bump=st.floats(min_value=1e-3, max_value=1e5, allow_nan=False))
@settings(max_examples=50)
def test_energy_monotonic_property(t_lo, bump):
    params = EnergyParams()
    assert node_energy(params, t_lo) < node_energy(params, t_lo + bump)


def test_energy_monotonic_in_power():
    for p_lo, p_hi in ((1.0, 2.0), (30.0, 30.5), (100.0, 101.0)):
        assert node_energy(EnergyParams(p_n_mw=p_lo), 5.0) < \
            node_energy(EnergyParams(p_n_mw=p_hi), 5.0)


def test_energy_rejects_negatives():
    with pytest.raises(ValueError):
        node_energy(EnergyParams(), -1.0)
    assert energy_errors(EnergyParams(t_tr_ms=-5.0)) == [
        "t_tr_ms: must be a finite nonnegative number, got -5.0"]


def test_budget_by_role():
    params = EnergyParams(e0_mj=80.0, intermediate_multiplier=0.5)
    assert node_budget(params, "source") == 80.0
    assert node_budget(params, "intermediate") == 80.0 + 0.5 * 80.0
    assert node_budget(params, "gateway") == 80.0 + 0.5 * 80.0


# -- provenance cost ---------------------------------------------------------------

def test_scheme_sizes_are_exact():
    for hops in range(1, 31):
        assert provenance_size(CostModel("ssp", hops)) == 42 * hops
        assert provenance_size(CostModel("mp", hops)) == 6 * hops
        assert provenance_size(CostModel("zircon", hops)) == 24
        expected_bfp = math.ceil(bfp_bits(hops, 0.02) / 8)
        assert provenance_size(CostModel("bfp", hops)) == expected_bfp


def test_bfp_bits_against_high_precision():
    mp.mp.dps = 50
    for hops in range(1, 31):
        exact = (-hops * mp.log(mp.mpf("0.02"))) / (mp.log(2) ** 2)
        assert abs(bfp_bits(hops) - float(exact)) < 1e-9


def test_frozen_bfp_vectors():
    assert bfp_bits(1) == pytest.approx(V.BFP_BITS_H1, abs=5e-12)
    assert bfp_bits(11) == pytest.approx(V.BFP_BITS_H11, abs=5e-11)
    assert provenance_size(CostModel("bfp", 11)) == V.BFP_BYTES_H11


def test_mp_crossover_at_four_hops():
    assert provenance_size(CostModel("mp", 4)) == 24
    assert provenance_size(CostModel("mp", 3)) < 24
    assert provenance_size(CostModel("mp", 5)) > 24


def test_bfp_byte_crossover():
    crossover = next(h for h in range(1, 100)
                     if provenance_size(CostModel("bfp", h)) > 24)
    assert crossover == V.BFP_BYTE_CROSSOVER_H


def test_ssp_always_exceeds_constant_scheme():
    assert all(provenance_size(CostModel("ssp", h)) > 24 for h in range(1, 31))


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel("rsa", 1)
    with pytest.raises(ValueError):
        CostModel("ssp", 0)
    with pytest.raises(ValueError):
        CostModel("bfp", 1, p_fp=0.0)
    with pytest.raises(ValueError):
        CostModel("bfp", 1, p_fp=1.0)


# -- CSV writers --------------------------------------------------------------------

def test_cost_csv_shape_and_values():
    out = io.StringIO()
    write_cost_csv(out, cost_rows(max_hops=5))
    lines = out.getvalue().splitlines()
    assert lines[0] == "H,zircon,ssp,mp,bfp_bytes,bfp_bits"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[:5] == ["1", "24", "42", "6", "2"]
    assert float(first[5]) == bfp_bits(1)


def test_cost_csv_deterministic():
    a, b = io.StringIO(), io.StringIO()
    write_cost_csv(a, cost_rows())
    write_cost_csv(b, cost_rows())
    assert a.getvalue() == b.getvalue()
    assert len(a.getvalue().splitlines()) == 31


def test_cost_rows_stop_at_the_longest_path_the_hop_index_counts():
    with pytest.raises(ValueError, match="hop count must be <= 255"):
        cost_rows(max_hops=256)
    # the bound is the table's: the model itself prices any path length
    assert provenance_size(CostModel("ssp", 256)) == 42 * 256


def test_cost_rows_match_csv():
    rows = cost_rows(max_hops=3)
    assert [r["H"] for r in rows] == [1, 2, 3]
    assert all(set(r) == {"H", "zircon", "ssp", "mp", "bfp_bytes", "bfp_bits"}
               for r in rows)


def test_energy_csv_from_report():
    report = {
        "nodes": {
            "9": {"role": "gateway", "packets": 5, "watermark_ops": 10,
                  "t_c_ms": 5.0},
            "1": {"role": "source", "packets": 5, "watermark_ops": 5,
                  "t_c_ms": 2.5},
        },
    }
    params = EnergyParams()
    out = io.StringIO()
    write_energy_csv(out, report, params)
    lines = out.getvalue().splitlines()
    assert lines[0] == "node,role,packets,T_C_ms,energy_mJ"
    assert len(lines) == 3
    assert lines[1].startswith("1,source,5,2.5,")  # sorted numerically
    assert float(lines[1].split(",")[4]) == node_energy(params, 2.5)
    assert float(lines[2].split(",")[4]) == node_energy(params, 5.0)


# -- detection report ------------------------------------------------------------------

def log_lines(*lines):
    return "\n".join(lines) + "\n"


def test_clean_run_counts_accepts():
    log = log_lines(
        "store|1|1|1|00|1|0",
        "emit|1|1|1|1|0",
        "deliver|9|1|1|1|300",
        "delete|1|1|1|300",
        "verdict|9|1|1|1|accepted|300",
    )
    report = detection_report(log)
    assert report["clean_accepted"] == 1
    assert report["false_rejects"] == 0
    assert report["false_accepts"] == 0
    assert report["kinds"] == {}


def test_false_reject_is_a_verdict_without_attack():
    log = log_lines(
        "emit|1|1|1|1|0",
        "verdict|2|1|1|1|integrity_fail|300",
    )
    report = detection_report(log)
    assert report["false_rejects"] == 1
    assert report["clean_accepted"] == 0


def test_modify_detection_by_log_order():
    log = log_lines(
        "emit|1|1|1|1|0",
        "attack|modify_payload|1->2|1|1|edits=1|0",
        "verdict|2|1|1|1|integrity_fail|300",
    )
    report = detection_report(log)
    entry = report["kinds"]["modify_payload"]
    assert entry == {"attacks": 1, "detected": 1, "rate": 1.0}
    assert report["false_accepts"] == 0


def test_false_accept_when_last_verdict_accepts_after_attack():
    log = log_lines(
        "emit|1|1|1|1|0",
        "attack|modify_payload|1->2|1|1|edits=1|0",
        "verdict|2|1|1|1|accepted|300",
        "verdict|9|1|1|2|accepted|600",
    )
    report = detection_report(log)
    assert report["false_accepts"] == 1
    assert report["kinds"]["modify_payload"]["detected"] == 0


def test_verdict_before_attack_does_not_count():
    # the same millisecond can hold a verdict logged before the attack line;
    # correlation follows log order, not timestamps
    log = log_lines(
        "emit|1|1|1|1|0",
        "verdict|2|1|1|1|accepted|600",
        "attack|modify_payload|2->3|1|1|edits=1|600",
        "verdict|3|1|1|2|integrity_fail|900",
    )
    report = detection_report(log)
    assert report["kinds"]["modify_payload"]["rate"] == 1.0
    assert report["false_accepts"] == 0


def test_replay_detection_respects_horizon():
    log = log_lines(
        "emit|1|1|1|1|0",
        "attack|replay|1->2|1|1|delay=30000|0",
        "verdict|2|1|1|1|accepted|300",      # original, before re-delivery
        "verdict|9|1|1|3|accepted|900",      # original delivered
        "verdict|2|1|1|1|missing_record|30000",
    )
    report = detection_report(log)
    assert report["kinds"]["replay"] == {"attacks": 1, "detected": 1,
                                         "rate": 1.0}
    # the original acceptance precedes the replayed copy; not a false accept
    assert report["false_accepts"] == 0


def test_replay_rejection_before_the_horizon_does_not_count():
    # a rejection of the packet before its replayed copy can arrive is not
    # the replay being caught; the delay is read from the detail field
    for detail in ("delay=30000", "delay=30000,mutated"):
        log = log_lines(
            "emit|1|1|1|1|0",
            f"attack|replay|1->2|1|1|{detail}|0",
            "verdict|2|1|1|1|provenance_fail|300",
        )
        assert detection_report(log)["kinds"]["replay"]["detected"] == 0
    log = log_lines(
        "emit|1|1|1|1|0",
        "attack|replay|1->2|1|1|delay=200,mutated|0",
        "verdict|2|1|1|1|provenance_fail|300",
    )
    assert detection_report(log)["kinds"]["replay"]["detected"] == 1


def test_drop_detected_from_stranded_records():
    log = log_lines(
        "store|1|1|1|00|1|0",
        "emit|1|1|1|1|0",
        "store|1|1|2|00|2|300",
        "attack|drop|2->3|1|1|dropped|300",
    )
    report = detection_report(log)
    assert report["kinds"]["drop"]["rate"] == 1.0
    assert report["drop_localization"] == {"1:1": 2}


def test_a_drop_is_stranded_while_its_set_is_live():
    # a store line sets a set's newest hop and a delete line ends the set,
    # as `inspect-store` reads a journal; a set stored after a delete is live
    log = log_lines(
        "delete|1|1|0|0",
        "emit|1|1|1|1|0",
        "store|1|1|1|00|1|0",
        "attack|drop|1->2|1|1|dropped|0",
        "store|1|2|1|00|1|5",
        "store|1|2|2|00|2|300",
        "delete|1|2|2|600",
        "attack|drop|2->3|1|2|dropped|300",
    )
    report = detection_report(log)
    assert report["kinds"]["drop"] == {"attacks": 2, "detected": 1,
                                       "rate": 0.5}
    assert report["drop_localization"] == {"1:1": 1}


def test_drop_not_detected_if_packet_was_delivered():
    log = log_lines(
        "store|1|1|1|00|1|0",
        "emit|1|1|1|1|0",
        "attack|drop|2->3|1|1|dropped|300",
        "delete|1|1|1|600",
        "verdict|9|1|1|1|accepted|600",
    )
    report = detection_report(log)
    assert report["kinds"]["drop"]["detected"] == 0


def test_store_probe_detected_unless_retrieved():
    log = log_lines(
        "attack|store_probe|store|1|1|caller=666,result=authorization_error|500",
        "attack|store_probe|store|1|2|caller=9,result=retrieved|600",
    )
    report = detection_report(log)
    assert report["kinds"]["store_probe"] == {"attacks": 2, "detected": 1,
                                              "rate": 0.5}


def test_eavesdrop_has_no_rate():
    log = log_lines(
        "emit|1|1|1|1|0",
        "attack|eavesdrop|1->2|1|1|captured|0",
        "verdict|9|1|1|1|accepted|300",
    )
    report = detection_report(log)
    assert report["kinds"]["eavesdrop"] == {"attacks": 1, "detected": None,
                                            "rate": None}
    # passive capture leaves the frame intact; delivering it is correct
    assert report["false_accepts"] == 0
    assert report["clean_accepted"] == 0  # the packet was still attacked


def test_a_non_integer_replay_delay_names_its_line():
    with pytest.raises(ValueError, match=re.escape(
            "malformed log line 'attack|replay|1->2|1|1|delay=soon|5': ")):
        detection_report(["emit|1|1|1|1|0",
                          "attack|replay|1->2|1|1|delay=soon|5"])


def test_malformed_log_raises():
    with pytest.raises(ValueError):
        detection_report("verdict|not|enough\n")
    with pytest.raises(ValueError):
        detection_report("teleport|1|2|3\n")


def test_accepts_iterable_of_lines():
    lines = ["emit|1|1|1|1|0", "verdict|9|1|1|1|accepted|300"]
    assert detection_report(lines)["clean_accepted"] == 1
