"""zircon benchmark: seeded workloads, end-to-end metrics, per-layer trace.

    python3 perfbench/run.py --workload line_deep --seed 1 --seconds 10 --trace 0

Run from anywhere inside a zircon checkout; the program is imported from the
checkout's own src/.  Load is a closed loop in one process and one thread:
each repetition starts only after the previous one finished.  Every time is
host wall time from time.perf_counter, scaled by a calibration loop timed
between repetitions (see calibrate) so that the host's drifting speed does
not move it; the unscaled medians are printed as well.

--trace 0 measures the end-to-end metrics untraced (setup_s, packets_per_s,
cli_run_s, peak_py_mb).  --trace 1 runs the same unit of work untraced and
then traced, wrapping each layer's public functions from outside
(tracer.py), and reports per-layer metrics.  Both modes check the outputs
against the generator's ground truth, print the sha256 of events.log,
report.json and provenance.journal, and end with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is 0 when every check passed and 1 otherwise.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import checks
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"

# (share of --seconds, least repetitions) per timed unit
TRACE0_UNITS = {"setup_s": (0.06, 5), "packets_per_s": (0.44, 3),
                "cli_run_s": (0.50, 2)}
TRACE1_UNITS = {"untraced": (0.35, 2), "traced": (0.65, 2)}

# per-packet call counts fixed by the protocol; on line_deep the ten
# intermediates each verify, re-watermark and store, and the gateway checks
# once and decrypts all eleven records
EXACT_PER_PACKET = {
    "line_deep": {
        "crypto.encrypt_block": 11, "crypto.decrypt_block": 11,
        "watermark.extract": 11, "watermark.embed": 11,
        "provstore.store": 11, "provstore.query_last": 11,
        "provstore.query_all": 1, "provstore.delete_all": 1,
        "crypto.digest": 12, "nodes.process": 10, "nodes.verify": 1,
        "netsim.step": 12,
    },
    "fanin_singlehop": {
        "crypto.encrypt_block": 1, "crypto.decrypt_block": 1,
        "crypto.digest": 2, "provstore.store": 1, "provstore.query_all": 1,
        "provstore.delete_all": 1, "netsim.step": 2, "nodes.process": 0,
    },
}

END_TO_END_UNITS = {"setup_s": "s", "packets_per_s": "1/s", "cli_run_s": "s",
                    "peak_py_mb": "MB"}


def load_program():
    """Import zircon from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "zircon" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no zircon sources at {src}/zircon")
    sys.path.insert(0, str(src))
    import zircon
    if Path(zircon.__file__).resolve().parent != (src / "zircon").resolve():
        raise SystemExit(f"perfbench: zircon imported from {zircon.__file__}, "
                         f"not from {src}")
    return zircon


def host_record() -> dict:
    import cryptography
    from cryptography.hazmat.backends.openssl import backend
    return {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "openssl": backend.openssl_version_text(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "clock": "wall (time.perf_counter), scaled by the calibration loop",
    }


# A fixed calibration loop of the kinds of work the program does: Python
# objects, AES block operations through the cryptography package and
# SHA-256 through hashlib.  It is timed between every two repetitions, and
# each repetition's time is scaled by CALIBRATION_NOMINAL_S over the mean of
# the two calibrations around it.  The host's speed drifts by up to 1.9x
# within minutes; the scaling takes that drift out, and leaves times in
# seconds on a host where the loop takes CALIBRATION_NOMINAL_S.
CALIBRATION_NOMINAL_S = 0.05
CALIBRATION_KEY = bytes(range(16))
CALIBRATION_BLOCK = bytes(16)
# a repetition of a short unit runs it this long, in one batch of calls
MIN_SAMPLE_S = 0.05


def pin_to_one_cpu() -> None:
    """Keep this process on one CPU, so that the calibration loop and the
    repetitions around it run on the same one; the host's CPUs drift in
    speed independently of each other."""
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def calibrate() -> float:
    """Wall time of the calibration loop, with the collector off so the
    program's heap does not leak into it."""
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(40000):
            table[(i, str(i))] = [i, {"i": i}]
        sorted(table, key=lambda k: k[1])
        for _ in range(800):
            enc = Cipher(algorithms.AES(CALIBRATION_KEY), modes.ECB()).encryptor()
            enc.update(CALIBRATION_BLOCK)
            enc.finalize()
        for _ in range(8000):
            hashlib.sha256(CALIBRATION_BLOCK).digest()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def interleaved(units: dict, seconds: float) -> tuple:
    """Closed loop over several units of work, {name: (fn, share, min_reps)}.

    Each turn runs the unit that has used the smallest part of its share of
    the time, so every unit's samples spread over the whole run and a slow
    phase of the host hits all of them alike.  A unit shorter than
    MIN_SAMPLE_S runs in batches of calls.  Returns, per unit, the time per
    call of each repetition scaled to the calibration (see calibrate), and
    the same times unscaled.
    """
    scaled = {name: [] for name in units}
    raw = {name: [] for name in units}
    spent = {name: 0.0 for name in units}
    batch = {}
    # an untimed first call warms each unit up and sizes its batch
    for name, (fn, _, _) in units.items():
        t0 = time.perf_counter()
        fn()
        batch[name] = max(1, math.ceil(MIN_SAMPLE_S
                                       / max(time.perf_counter() - t0, 1e-6)))
    before = calibrate()
    deadline = time.perf_counter() + seconds
    while True:
        short = [n for n, (_, _, least) in units.items()
                 if len(raw[n]) < least]
        if time.perf_counter() >= deadline:
            if not short:
                return scaled, raw
            pool = short
        else:
            pool = list(units)
        name = min(pool, key=lambda n: spent[n] / units[n][1])
        fn = units[name][0]
        gc.collect()
        t0 = time.perf_counter()
        for _ in range(batch[name]):
            fn()
        dt = (time.perf_counter() - t0) / batch[name]
        after = calibrate()
        raw[name].append(dt)
        scaled[name].append(dt * CALIBRATION_NOMINAL_S * 2 / (before + after))
        spent[name] += dt * batch[name] + after
        before = after


def measure(fns: dict, seconds: float) -> tuple:
    """The untraced end-to-end loop: set-up, work and CLI repetitions,
    interleaved."""
    return interleaved({name: (fn, *TRACE0_UNITS[name])
                        for name, fn in fns.items()}, seconds)


def peak_mb(fn) -> float:
    """tracemalloc peak of one call, in MB.  Python allocations only:
    OpenSSL's own memory is invisible to it."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def quartiles(times: list) -> list:
    """Lower quartile, median and upper quartile of repetition times."""
    if len(times) < 2:
        return times * 3
    return statistics.quantiles(times, n=4, method="inclusive")


# -- simulator workloads --------------------------------------------------------

class SimBench:
    def __init__(self, wl, out: Path):
        from zircon import analysis, cli, netsim, scenario
        self.wl, self.out = wl, out
        self.analysis, self.cli, self.netsim = analysis, cli, netsim
        self.scenario = scenario
        self.attacked = wl.name == "attack_mix"
        self.config_path = out / "scenario.yaml"
        self.config_path.write_text(wl.yaml_text, encoding="utf-8")
        self.config = scenario.load_config(wl.yaml_text)

    def setup(self):
        """Scenario YAML text to a ready simulation."""
        return self.netsim.Simulation(self.scenario.load_config(self.wl.yaml_text))

    def work(self):
        """The library path: simulate and build the report; attack_mix also
        builds the detection report, as attack-suite does."""
        result = self.netsim.run(self.config)
        if self.attacked:
            self.analysis.detection_report(result.log)
        return result

    def cli_run(self, out_dir: Path) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(["run", "--config", str(self.config_path),
                                  "--out", str(out_dir)])
        if code != 0:
            raise RuntimeError(f"zircon run exited {code}")

    def traced_unit(self, out_dir: Path) -> None:
        self.cli_run(out_dir)
        if self.attacked:
            log = (out_dir / "events.log").read_text(encoding="utf-8")
            self.analysis.detection_report(log)

    def check(self, out_dir: Path) -> dict:
        report = json.loads((out_dir / "report.json").read_text("utf-8"))
        lines = (out_dir / "events.log").read_text("utf-8").splitlines()
        detection = self.analysis.detection_report(lines) \
            if self.attacked else None
        return checks.check_sim(self.wl, report, lines, detection)

    def end_to_end(self, seconds: float) -> tuple:
        dirs = [self.out / "cli_a", self.out / "cli_b"]
        turn = itertools.cycle(dirs)
        samples = measure({
            "setup_s": self.setup,
            "packets_per_s": self.work,
            "cli_run_s": lambda: self.cli_run(next(turn)),
        }, seconds)
        peak = peak_mb(lambda: self.netsim.run(self.config))
        return samples, peak, dirs


# -- datagram workload ----------------------------------------------------------

class DatagramBench:
    def __init__(self, wl, out: Path):
        from zircon import internal_datagram
        self.wl, self.out, self.idg = wl, out, internal_datagram
        self.stream_path = out / "datagrams.bin"
        self.stream_path.write_bytes(wl.stream)
        self.models, self.modes = self.setup()

    def setup(self, stream: bytes = None):
        """Datagram bytes to parsed header models, with the label mode each
        one's destination subnet uses."""
        models = [self.idg.Ipv4HeaderModel.from_bytes(chunk)
                  for chunk in workloads.split_stream(stream or self.wl.stream)]
        return models, [workloads.label_mode(m.dst) for m in models]

    def work(self, models=None, modes=None):
        """Sender labelling plus receiver classification of every datagram."""
        idg, seed = self.idg, self.wl.prng_seed
        size, internal = workloads.INTERNAL_SIZE, workloads.is_internal
        classes, labels = [], {}
        for i, (m, mode, (to_label, _)) in enumerate(
                zip(models or self.models, modes or self.modes, self.wl.truth)):
            if to_label:
                m = idg.label_datagram(m, mode, seed)
                labels[i] = idg.extract_label(m)
            classes.append(idg.check_datagram(m, internal, size, mode, seed))
        return classes, labels

    def cli_run(self, out_dir: Path) -> None:
        """One whole batch from the stream file on disk to a verdict file;
        there is no CLI verb for datagrams."""
        out_dir.mkdir(exist_ok=True)
        models, modes = self.setup(self.stream_path.read_bytes())
        classes, _ = self.work(models, modes)
        (out_dir / "verdicts.txt").write_text("\n".join(classes) + "\n",
                                              encoding="utf-8")

    def end_to_end(self, seconds: float) -> tuple:
        samples = measure({
            "setup_s": self.setup,
            "packets_per_s": self.work,
            "cli_run_s": lambda: self.cli_run(self.out / "batch"),
        }, seconds)
        return samples, peak_mb(self.work)


# -- per-layer metrics ----------------------------------------------------------

# (metric, unit, better); .calls are per packet (per datagram on
# datagram_filter), .us are mean self microseconds per call, .share is the
# layer's share of traced self time
CALLS_US = ("crypto.encrypt_block", "crypto.decrypt_block", "crypto.digest",
            "watermark.embed", "watermark.extract",
            "provstore.store", "provstore.query_last", "provstore.query_all",
            "provstore.delete_all",
            "nodes.emit", "nodes.process", "nodes.verify",
            "adversary.apply",
            "internal_datagram.label", "internal_datagram.check")
US_ONLY = ("watermark.record", "watermark.hash_part",
           "crypto.select_label_bits.lsb32", "crypto.select_label_bits.prng")
SHARES = ("crypto", "watermark", "provstore", "nodes", "adversary")
PER_CALL_S = {"scenario.load_config.s": "scenario.load_config",
              "netsim.init.s": "netsim.init",
              "netsim.report.s": "netsim.run",
              "cli.write.s": "cli.main",
              "analysis.detection_report.s": "analysis.detection_report"}


def per_layer_spec() -> list:
    spec = []
    for name in CALLS_US:
        spec.append((f"{name}.calls", "1/pkt", "lower"))
        spec.append((f"{name}.us", "us", "lower"))
    spec += [(f"{name}.us", "us", "lower") for name in US_ONLY]
    spec += [(f"{layer}.share", "ratio", "lower") for layer in SHARES]
    spec += [("crypto.keys", "count", "lower"),
             ("crypto.block_ops_per_key", "count", "higher"),
             ("provstore.live_sets_peak", "count", "lower"),
             ("nodes.accept_ratio", "ratio", "higher"),
             ("netsim.step.calls", "1/pkt", "lower"),
             ("netsim.step.us_p50", "us", "lower"),
             ("netsim.step.us_p99", "us", "lower"),
             ("netsim.self.share", "ratio", "lower")]
    spec += [(name, "s", "lower") for name in PER_CALL_S]
    spec.append(("trace.overhead", "ratio", "lower"))
    return spec


def layer_metrics(tracers: list, ops: int, overhead: float) -> dict:
    first = tracers[0]
    calls, self_s = {}, {}
    for t in tracers:
        for k, v in t.calls.items():
            calls[k] = calls.get(k, 0) + v
        for k, v in t.self_s.items():
            self_s[k] = self_s.get(k, 0.0) + v
    total = sum(self_s.values())

    def us(name):
        return self_s.get(name, 0.0) / calls[name] * 1e6 if calls.get(name) else 0.0

    def share(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix)) / total

    out = {}
    for name in CALLS_US:
        out[f"{name}.calls"] = first.calls.get(name, 0) / ops
        out[f"{name}.us"] = us(name)
    for name in US_ONLY:
        out[f"{name}.us"] = us(name)
    for layer in SHARES:
        out[f"{layer}.share"] = share(layer + ".")
    block_ops = (first.calls.get("crypto.encrypt_block", 0)
                 + first.calls.get("crypto.decrypt_block", 0))
    keys = len(first.key_epochs)
    out["crypto.keys"] = keys
    out["crypto.block_ops_per_key"] = block_ops / keys if keys else 0.0
    out["provstore.live_sets_peak"] = first.live_sets_peak
    out["nodes.accept_ratio"] = first.accepts / first.verdicts \
        if first.verdicts else 0.0
    steps = sorted(s for t in tracers for s in t.step_s)
    out["netsim.step.calls"] = first.calls.get("netsim.step", 0) / ops
    out["netsim.step.us_p50"] = steps[len(steps) // 2] * 1e6 if steps else 0.0
    out["netsim.step.us_p99"] = steps[int(len(steps) * 0.99)] * 1e6 \
        if steps else 0.0
    out["netsim.self.share"] = share("netsim.")
    for metric, span in PER_CALL_S.items():
        out[metric] = us(span) / 1e6
    out["trace.overhead"] = overhead
    return out


def exact_count_errors(name: str, tracer: Tracer, ops: int) -> list:
    errors = []
    for span, per_packet in EXACT_PER_PACKET.get(name, {}).items():
        # Simulation.run makes one last step() call that finds the queue empty
        want = per_packet * ops + (span == "netsim.step")
        got = tracer.calls.get(span, 0)
        if got != want:
            errors.append(f"{span}: {got} calls, expected {want} "
                          f"({per_packet} per packet)")
    return errors


def datagram_count_errors(wl, tracer: Tracer) -> list:
    labelled = sum(to_label for to_label, _ in wl.truth)
    forged = sum(cls == workloads.FORGED for _, cls in wl.truth)
    selects = (tracer.calls.get("crypto.select_label_bits.lsb32", 0)
               + tracer.calls.get("crypto.select_label_bits.prng", 0))
    want = {"internal_datagram.label": labelled,
            "internal_datagram.check": wl.count}
    errors = [f"{span}: {tracer.calls.get(span, 0)} calls, expected {n}"
              for span, n in want.items() if tracer.calls.get(span, 0) != n]
    # labelling computes a label once; checking recomputes it for every
    # datagram that passes the address and size test
    if selects != 2 * labelled + forged:
        errors.append(f"select_label_bits: {selects} calls, expected "
                      f"{2 * labelled + forged}")
    return errors


def traced_pass(unit, seconds: float) -> tuple:
    """Untraced and traced repetitions of the same unit of work,
    interleaved.  unit(i) takes the traced repetition's index, or None when
    untraced.  Returns (tracer, result) per traced repetition and the ratio
    of the median traced to the median untraced time."""
    tracers = []

    def traced():
        tracer = Tracer()
        tracer.install()
        try:
            result = tracer.wrap("bench.unit", unit)(len(tracers))
        finally:
            tracer.remove()
        tracers.append((tracer, result))

    times, _ = interleaved({"untraced": (lambda: unit(None),
                                      *TRACE1_UNITS["untraced"]),
                         "traced": (traced, *TRACE1_UNITS["traced"])},
                        seconds)
    overhead = statistics.median(times["traced"]) \
        / statistics.median(times["untraced"])
    return tracers, overhead


# -- entry points ---------------------------------------------------------------

def bench(name: str, seed: int, seconds: float, trace: bool,
          sizes: dict = None) -> dict:
    """Run one workload; returns the result object (correct, attempted,
    failed, metrics) plus the lines to print before it."""
    wl = workloads.GENERATORS[name](seed, **(sizes or {}))
    out = OUT_ROOT / f"{name}-{seed}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    lines, errors = [], []
    try:
        if isinstance(wl, workloads.DatagramWorkload):
            db = DatagramBench(wl, out)
            ops = wl.count
            if trace:
                tracers, overhead = traced_pass(lambda i: db.work(), seconds)
                baseline = db.work()
                for t, res in tracers:
                    if res != baseline:
                        errors.append("traced verdicts differ from untraced")
                        break
                errors += datagram_count_errors(wl, tracers[0][0])
                metrics = layer_metrics([t for t, _ in tracers], ops, overhead)
                chk = checks.check_datagrams(wl, *baseline)
            else:
                samples, peak = db.end_to_end(seconds)
                verdicts = db.work()
                chk = checks.check_datagrams(wl, *verdicts)
                digest = hashlib.sha256(
                    "\n".join(verdicts[0]).encode()).hexdigest()
                lines.append(f"digests {json.dumps({'verdicts': digest})}")
        else:
            sb = SimBench(wl, out)
            ops = wl.packets
            if trace:
                plain = out / "untraced"
                sb.traced_unit(plain)
                tracers, overhead = traced_pass(
                    lambda i: sb.traced_unit(
                        plain if i is None else out / f"traced{i}"), seconds)
                want = checks.digests(plain)
                for i in range(len(tracers)):
                    got = checks.digests(out / f"traced{i}")
                    if got != want:
                        errors.append(f"traced outputs differ: {got} vs "
                                      f"{want}")
                counts = [dict(t.calls) for t, _ in tracers]
                if any(c != counts[0] for c in counts):
                    errors.append("per-layer call counts differ between "
                                  "traced runs")
                errors += exact_count_errors(name, tracers[0][0], ops)
                metrics = layer_metrics([t for t, _ in tracers], ops, overhead)
                lines.append(f"digests {json.dumps(want, sort_keys=True)}")
                chk = sb.check(plain)
            else:
                samples, peak, dirs = sb.end_to_end(seconds)
                first, second = (checks.digests(d) for d in dirs)
                if first != second:
                    errors.append(f"same seed, different outputs: "
                                  f"{first} vs {second}")
                lines.append(f"digests {json.dumps(first, sort_keys=True)}")
                chk = sb.check(dirs[0])
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_ROOT.rmdir()

    errors += chk["errors"]
    if trace:
        values = metrics
        units = {m: u for m, u, _ in per_layer_spec()}
        for m in units:
            lines.append(f"{m} = {values[m]:.6g} {units[m]}")
    else:
        units = END_TO_END_UNITS
        values = {"peak_py_mb": peak}
        scaled, raw = samples
        for m, times in scaled.items():
            q1, q2, q3 = quartiles(times)
            wall = statistics.median(raw[m])
            if m == "packets_per_s":
                q1, q2, q3, wall = ops / q3, ops / q2, ops / q1, ops / wall
            values[m] = q2
            lines.append(f"{m} = {q2:.6g} {units[m]} (median of {len(times)} "
                         f"reps, calibrated; quartiles {q1:.6g} to {q3:.6g}; "
                         f"uncalibrated {wall:.6g})")
        lines.append(f"peak_py_mb = {peak:.6g} MB (one untraced pass)")
    lines.append(f"ops attempted={ops} failed={chk['failed']}")
    if name == "attack_mix":
        lines.append(f"forged-frame targets={len(wl.forged_targets)} "
                     f"(collateral loss counts as failed)")
    if not trace:
        lines.append("peak_py_mb counts Python allocations only; OpenSSL "
                     "memory is not seen by tracemalloc")
    lines += [f"CHECK FAILED: {e}" for e in errors]
    return {
        "lines": lines,
        "result": {
            "correct": not errors,
            "attempted": ops,
            "failed": chk["failed"],
            "metrics": {m: {"value": values[m], "unit": units[m]}
                        for m in units},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    pin_to_one_cpu()
    print(f"host {json.dumps(host_record(), sort_keys=True)}")
    names = sorted(workloads.GENERATORS) if args.workload == "all" \
        else [args.workload]
    results = {}
    for name in names:
        print(f"workload={name} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        out = bench(name, args.seed, args.seconds, bool(args.trace))
        for line in out["lines"]:
            print(line)
        results[name] = out["result"]
    if len(names) == 1:
        result = results[names[0]]
    else:
        for name, res in results.items():
            print(f"result {name} {json.dumps(res)}")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
