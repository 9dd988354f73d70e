#!/usr/bin/env python3
"""Check that named tests catch known mutations of the program.

Each entry of MUTANTS is (file, exact old text, new text, test id).  For
each entry the script copies the checkout to a temporary directory, replaces
the old text, which must occur exactly once in its file, with the new text,
and runs the entry's test there.  The test must fail; a mutant it lets pass
has survived.  First, every named test must pass on an unmutated copy.

Exit status: 0 when every mutant is caught, 1 when one survives or its old
text is not found exactly once, 2 when a named test fails unmutated.  Uses
the standard library and pytest only, and takes a few minutes:

    python scripts/mutants.py
"""
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # a plain integer read as an id: "-" would pass for a missing time
    ("src/zircon/events.py",
     'else f"int({name})")',
     'else f"None if {name} == \'-\' else int({name})")',
     "tests/test_events.py::test_parse_read_and_report_reject_alike"),
    # a missing id written raw, as "None", not as "-"
    ("src/zircon/events.py",
     "f\"{{'-' if {name} is None else {name}}}\"",
     'f"{{{name}}}"',
     "tests/test_events.py::test_missing_ids_print_as_dash"),
    # read() no longer strips a padded line before it picks the line's kind
    ("src/zircon/events.py",
     "            line = line.strip()\n            if line and ",
     "            if line.strip() and ",
     "tests/test_events.py::test_read_matches_parse_line_by_line"),
    # a line its reader refuses is parsed again unstripped, so one that ends
    # in whitespace int() refuses is refused, not read
    ("src/zircon/events.py",
     "record = parse(line.strip())",
     "record = parse(line)",
     "tests/test_events.py::test_read_matches_parse_line_by_line"),
    # route items written raw through %s, not by json's rule
    ("src/zircon/netsim.py",
     "            v if type(v) is int else _quote(v) if type(v) is str\n",
     "            v if type(v) is int or any(v is r for r in route)\n"
     "            else _quote(v) if type(v) is str\n",
     "tests/test_netsim.py::test_report_text_is_json_dumps_byte_for_byte"),
    # a report verdict built with its hop and node swapped
    ("src/zircon/netsim.py",
     "(ReportVerdict, (flow, hop, node, outcome, time))",
     "(ReportVerdict, (flow, node, hop, outcome, time))",
     "tests/test_records.py::test_report_verdicts_hold_every_field_in_order"),
    # a drop on a link written into the entry's final slot, not its status
    ("src/zircon/netsim.py",
     '[(src, seq)][_STATUS] = "dropped"',
     '[(src, seq)][_FINAL] = "dropped"',
     "tests/test_records.py::test_report_packets_hold_every_field_in_order"),
    # a packet's fields out of json's key order: the writer's positions and
    # its keys no longer agree
    ("src/zircon/netsim.py",
     '"emitted_ms final path route seq source status "',
     '"emitted_ms final path route source seq status "',
     "tests/test_netsim.py::"
     "test_report_records_list_their_fields_in_json_key_order"),
    # the next emit's tie-break place drawn when it is queued
    ("src/zircon/netsim.py",
     "(self.now + traffic.interval_ms, order,",
     "(self.now + traffic.interval_ms, next(self._order),",
     "tests/test_netsim.py::"
     "test_emits_run_before_deliveries_on_their_millisecond"),
    # link attacks applied only when the scenario has none
    ("src/zircon/netsim.py",
     "if flow == FLOW_ORGANIC and self._link_attacks:",
     "if flow == FLOW_ORGANIC and not self._link_attacks:",
     "tests/test_netsim.py::test_modify_payload_rejected_at_the_receiving_hop"),
    # the rotation check run only when the run does not rotate keys
    ("src/zircon/netsim.py",
     "        if self._rotation_threshold is not None:\n"
     "            self._maybe_rotate()\n",
     "        if self._rotation_threshold is None:\n"
     "            self._maybe_rotate()\n",
     "tests/test_netsim.py::test_rotation_threshold_counts_generations"),
    # the store holds its simulation, so a finished run waits for the
    # cyclic collector
    ("src/zircon/netsim.py",
     "        self.store = ProvenanceStore(self.log)\n",
     "        self.store = ProvenanceStore(self.log)\n"
     "        self.store.simulation = self\n",
     "tests/test_netsim.py::test_a_run_leaves_no_reference_cycle"),
    # the report copies each live entry, and the simulation keeps them all
    ("src/zircon/netsim.py",
     "        self.packets = None\n",
     "",
     "tests/test_netsim.py::test_the_report_takes_over_each_live_entry"),
    # a node's record built with its epoch and time swapped
    ("src/zircon/nodes.py",
     "            key.epoch, now_ms, hash_part))\n",
     "            now_ms, key.epoch, hash_part))\n",
     "tests/test_records.py::test_a_source_stores_a_record_of_every_field"),
    # a forgery accepted at the gateway's hop forwarded past the route's end
    ("src/zircon/netsim.py",
     "        except IndexError:",
     "        except KeyError:",
     "tests/test_netsim.py::"
     "test_a_forgery_under_the_network_key_is_forwarded_to_no_one"),
    # a verdict built with its src and seq swapped
    ("src/zircon/nodes.py",
     "(self.id, pkt.src, pkt.seq, pkt.hop, outcome,",
     "(self.id, pkt.seq, pkt.src, pkt.hop, outcome,",
     "tests/test_records.py::test_process_verdicts_hold_every_field_in_order"),
    # a frame parsed with its hop dropped: every later field moves up one
    ("src/zircon/watermark.py",
     "    return _new(Frame, (src, seq, hop, data[HEADER_BYTES:end],\n",
     "    return _new(Frame, (src, seq, data[HEADER_BYTES:end],\n",
     "tests/test_records.py::test_frames_hold_every_field_in_order"),
    # the per-hop hash-part check skipped, then the gateway's bare-frame one
    ("src/zircon/nodes.py",
     "        if make_hash_subwatermark(pkt.payload) != pkt.hash_part:\n",
     "        if False:\n",
     "tests/test_nodes.py::test_gateway_integrity_fail"),
    ("src/zircon/nodes.py",
     "        if make_hash_subwatermark(pkt.payload) != stored.hash_part:\n",
     "        if False:\n",
     "tests/test_nodes.py::test_singlehop_detects_payload_tamper"),
    # a failed check leaves the packet's stored set in place
    ("src/zircon/nodes.py",
     "            self.store.delete_all(pkt.src, pkt.seq, now_ms)\n"
     "        return self._verdict(outcome, pkt, now_ms), None\n",
     "            pass\n"
     "        return self._verdict(outcome, pkt, now_ms), None\n",
     "tests/test_nodes.py::"
     "test_singlehop_short_frame_burns_the_set_it_still_names"),
    # a negative forged key epoch passes validate, and the run aborts
    ("src/zircon/scenario.py",
     '    ("key_epoch", lambda epoch: epoch >= 0, '
     '"a nonnegative forged key epoch"),\n',
     "",
     "tests/test_scenario.py::test_fake_inject_wire_limits"),
    # a List annotation admits a tuple too, so a code-built tuple route runs
    ("src/zircon/scenario.py",
     '((list,) if origin is list else (list, tuple), "a list", parts,',
     '((list, tuple), "a list", parts,',
     "tests/test_scenario.py::"
     "test_list_fields_refuse_a_tuple_and_tuple_fields_take_a_list"),
    # an attack record checked against Attack's own fields only, so a
    # wrong-typed field of its kind passes the type pass
    ("src/zircon/scenario.py",
     "{k: _rule(k)[2] for k in kinds}",
     "{k: _rule(k)[2][:3] for k in kinds}",
     "tests/test_scenario.py::"
     "test_every_field_and_item_refuses_a_wrong_type_at_its_path"),
    # YAML bits read as a list, not the tuple a code-built attack holds
    ("src/zircon/scenario.py",
     '"bits": ("bits", lambda bits: tuple(_list(bits))),',
     '"bits": ("bits", _list),',
     "tests/test_scenario.py::test_yaml_literal_loads_every_key"),
    # an energy past the largest float passes validate and energy-table
    ("src/zircon/analysis.py",
     "    if not finite_nonnegative(energy):\n",
     "    if False:\n",
     "tests/test_cli.py::test_energy_table_refuses_energy_that_overflows"),
    # provenance_size prices a path of no hops
    ("src/zircon/analysis.py",
     "    if hops < 1:\n        raise ValueError(\"hop count must be >= 1\")\n",
     "",
     "tests/test_analysis.py::test_cost_model_validation"),
]

_IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                  ".pytest_cache", ".bench_out", "*.egg-info")


def run_tests(tree: Path, tests) -> int:
    """pytest's exit status for `tests` run in `tree` against its src/, under
    the Hypothesis profile without the shrink phase (see tests/conftest.py)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-profile=mutants", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def copy_checkout(into: str) -> Path:
    tree = Path(into) / "checkout"
    shutil.copytree(ROOT, tree, ignore=_IGNORED)
    return tree


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tests = sorted({test for *_, test in MUTANTS})
        if run_tests(copy_checkout(tmp), tests) != 0:
            print("a named test fails on the unmutated checkout",
                  file=sys.stderr)
            return 2
    survivors = 0
    for i, (path, old, new, test) in enumerate(MUTANTS):
        with tempfile.TemporaryDirectory() as tmp:
            tree = copy_checkout(tmp)
            text = (tree / path).read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"[{i}] {path}: old text found {text.count(old)} times")
                survivors += 1
                continue
            (tree / path).write_text(text.replace(old, new), encoding="utf-8")
            # pytest exits 1 when a test failed; 0 means the mutant survived,
            # and anything else (no test collected, say) catches nothing
            caught = run_tests(tree, [test]) == 1
        print(f"[{i}] {'caught' if caught else 'SURVIVED'}: {path} by {test}")
        survivors += not caught
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
