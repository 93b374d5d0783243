"""omstrata benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload certificate-deep --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A result file with
the run's metadata, every metric and every failure witness is written to
``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from math import ceil
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

import tracer as tracer_mod
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

MIN_OPS = 20  # so that op_s.tail (>= 10 ops beyond a percentile) always exists
MIN_PASSES = 2
PROBE_REF_S = 0.0018  # host_probe's fastest time on the quiet reference host
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
MODULES = ("errors", "geometry", "linalg", "labels", "om", "grassmann",
           "construction", "serialization", "cli")


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop; shows a slowed host."""
    start = perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - start


def host_probe() -> float:
    """Seconds taken by a fixed ~2 ms of pure-Python work like the library's
    (rationals, integers, tuples, a dict), with the collector off so that no
    garbage of the program is collected inside it."""
    gc.disable()
    start = perf_counter()
    counts = {}
    for i in range(1, 400):
        q = Fraction(i, 7) * Fraction(3, i + 1) - Fraction(i % 5, 3)
        key = (q.numerator % 17, q.denominator % 5)
        counts[key] = counts.get(key, 0) + 1
    elapsed = perf_counter() - start
    gc.enable()
    return elapsed


def fresh_import() -> SimpleNamespace:
    """Import omstrata from src/ anew (module code runs again)."""
    for name in [k for k in sys.modules if k == "omstrata" or k.startswith("omstrata.")]:
        del sys.modules[name]
    importlib.import_module("omstrata")
    return SimpleNamespace(**{m: importlib.import_module(f"omstrata.{m}") for m in MODULES})


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest listed percentile with at least 10 ops beyond it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, ceil(p / 100 * n))
        if n - rank >= 10:
            return p, ordered[rank - 1]
    raise ValueError(f"{n} ops are too few for a tail percentile")


def host_metadata(workload, seed: int, smoke: bool) -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu_model = next(l.split(":", 1)[1].strip() for l in info if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and Path(lines[0]) == ROOT else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "commit": commit,
        "workload": workload.name,
        "seed": seed,
        "smoke": smoke,
        "size": workload.size,
    }


def cpu_time() -> float:
    """CPU seconds of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def timed_pass(lib, workload, items, references, first=None, tracer=None):
    """Run each item once, closed loop; check each output outside its timing.

    With ``first`` (the digests of a run's first pass) an output only has to
    equal the first pass's output; otherwise it gets the workload's checks.
    After each op it times ``host_probe``.  Returns per-op wall and CPU
    seconds, the probe times, output digests and failures."""
    latencies, cpu, probes, digests, failures = [], [], [], [], []
    for i, item in enumerate(items):
        c0, t0 = cpu_time(), perf_counter()
        try:
            if tracer is None:
                output = workload.run(lib, item)
            else:
                with tracer.op(i):
                    output = workload.run(lib, item)
        except Exception as exc:  # an op that raises is a failed op
            latencies.append(perf_counter() - t0)
            cpu.append(cpu_time() - c0)
            probes.append(host_probe())
            digests.append(None)
            failures.append({"op": i, "witness": f"raised {type(exc).__name__}: {exc}"})
            continue
        latencies.append(perf_counter() - t0)
        cpu.append(cpu_time() - c0)
        probes.append(host_probe())
        try:
            digest = workloads.digest(workload.answer(output))
            witness = None if first is not None else workload.check(lib, item, output)
        except Exception as exc:  # malformed output
            digest, witness = None, f"output check raised {type(exc).__name__}: {exc}"
        digests.append(digest)
        if witness is None and first is not None and digest != first[i]:
            witness = "output differs from the same op's output in the first pass"
        if witness is None and first is None and i < len(references) and digest != references[i]:
            witness = f"output digest {digest[:16]} differs from the reference {references[i][:16]}"
        if witness is not None:
            failures.append({"op": i, "witness": witness})
    return latencies, cpu, probes, digests, failures


def end_to_end(passes) -> tuple[dict, dict]:
    """Times are divided by the run's host slowdown: seconds on the quiet
    reference host."""
    h = passes.slowdown
    latencies = [t / h for t in passes.best]
    run_s = sum(latencies)
    pct, tail_s = tail(latencies)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(passes.setups) / h, "s"),
        "run_s": (run_s, "s"),
        "ops_per_s": (len(latencies) / run_s, "1/s"),
        "op_s.p50": (statistics.median(latencies), "s"),
        "op_s.tail": (tail_s, "s"),
        "cpu_s": (sum(passes.best_cpu) / h, "s"),
        "peak_rss_mib": (peak, "MiB"),
    }
    notes = {"op_s.tail": f"p{pct:g} of {len(latencies)} ops",
             "op_s.p50": f"{len(latencies)} ops"}
    return metrics, notes


def per_layer(tracer, untraced_s, host_s) -> dict:
    self_s, calls, run_s, unattributed = tracer.summary()
    layered = sum(self_s.values())
    if abs(layered + unattributed - run_s) > 1e-6 * max(run_s, 1.0):
        raise RuntimeError(f"span self times {layered} + unattributed {unattributed} != run {run_s}")
    c = tracer.counters
    sign_evals = c["om.om_of.sign_evals"]
    metrics = {}
    for name in sorted({t[0] for t in tracer_mod.TARGETS}):
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    metrics.update({
        "om.om_of.elements": (c["om.om_of.elements"], "count"),
        "om.om_of.ns_per_sign": (self_s["om.om_of"] * 1e9 / sign_evals if sign_evals else 0.0, "ns"),
        "om.cocircuits": (c["om.cocircuits"], "count"),
        "om.covectors": (c["om.covectors"], "count"),
        "grassmann.coord_bits_max": (c["grassmann.coord_bits_max"], "bits"),
        "construction.coord_bits_max": (c["construction.coord_bits_max"], "bits"),
        "construction.points": (c["construction.points"], "count"),
        "serialization.bytes": (c["serialization.bytes"], "B"),
        "trace.run_s": (run_s, "s"),
        "trace.unattributed_s": (unattributed, "s"),
        "trace.overhead_frac": (run_s / untraced_s - 1, "ratio"),
        "trace.peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "host.ref_s": (host_s, "s"),
    })
    return metrics


def set_up(workload, seed, count):
    """Import the library, draw the inputs (screening them calls the
    library), then import it anew, rebuild the inputs as its objects and run
    one warm-up op, so nothing computed before the ops is reused by them."""
    screening = fresh_import()
    data = workload.inputs(screening, seed, count)
    warmup = workload.warmup_input(screening)
    lib = fresh_import()
    items = [workload.materialise(lib, datum) for datum in data]
    workload.run(lib, workload.materialise(lib, warmup))
    if Path(lib.om.__file__).resolve().parent != SRC / "omstrata":
        raise RuntimeError(f"omstrata imported from {lib.om.__file__}, not from {SRC}")
    return lib, items


def timed_passes(workload, seed, count, references, passes) -> SimpleNamespace:
    """Set up and run every op ``passes`` times, each pass on its own set-up,
    so no pass finds what an earlier one computed.

    An op's time is its fastest pass: other tenants of a shared host only
    ever slow an op down.  The host probe after each op is taken the same
    way, and ``slowdown`` is the median of the probes' fastest times over
    ``PROBE_REF_S``: how much slower than the quiet reference host even the
    run's best moments were."""
    setups, latencies, cpu, probes, failures, digests = [], [], [], [], [], None
    for p in range(passes):
        start = perf_counter()
        lib, items = set_up(workload, seed, count)
        setups.append(perf_counter() - start)
        gc.collect()
        lat, cp, probe, dig, fail = timed_pass(lib, workload, items, references, digests)
        if digests is None:
            digests = dig
        latencies.append(lat)
        cpu.append(cp)
        probes.append(probe)
        failures += [dict(f, run_pass=p) for f in fail]
    return SimpleNamespace(
        setups=setups,
        best=[min(times) for times in zip(*latencies)],
        best_cpu=[min(times) for times in zip(*cpu)],
        slowdown=statistics.median(min(times) for times in zip(*probes)) / PROBE_REF_S,
        digests=digests,
        failures=failures,
        pass_run_s=[sum(lat) for lat in latencies],
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and the minimum op count, for a quick check")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's seed-0 output digests as the reference")
    args = parser.parse_args(argv)
    if args.record_reference and (args.seed != 0 or args.trace):
        parser.error("--record-reference needs --seed 0 --trace 0")

    OUT.mkdir(exist_ok=True)
    mode = "smoke" if args.smoke else "full"
    workload = workloads.WORKLOADS[args.workload](args.smoke, OUT)
    # Few ops, many passes: each op's fastest pass is then taken from many
    # moments spread over the run.
    count = ceil(MIN_OPS / workload.round_len) * workload.round_len
    passes = MIN_PASSES if args.smoke else max(
        MIN_PASSES, round(args.seconds / (count * workload.nominal_op_s)))
    references = []
    if args.seed == 0 and not args.record_reference:
        references = json.loads(REFERENCE.read_text(encoding="utf-8"))[mode][workload.name]

    host_before = reference_loop()
    # A traced run times one untraced pass (for trace.overhead_frac), then
    # the traced pass on its own set-up; its outputs must equal the first's.
    timed = timed_passes(workload, args.seed, count, references, 1 if args.trace else passes)
    digests, failures = timed.digests, timed.failures
    attempted = len(timed.best)
    if args.trace:
        lib, items = set_up(workload, args.seed, count)
        tracer = tracer_mod.Tracer()
        tracer.install([workloads])
        traced = timed_pass(lib, workload, items, references, digests, tracer)[4]
        failures += [dict(f, run_pass="traced") for f in traced]
        tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl")
    host_ref_s = [host_before, reference_loop()]
    if args.trace:
        metrics, notes = per_layer(tracer, sum(timed.best), statistics.mean(host_ref_s)), {}
    else:
        metrics, notes = end_to_end(timed)
    result = {"metadata": host_metadata(workload, args.seed, args.smoke)}
    result["metadata"].update(
        ops=attempted, passes=len(timed.pass_run_s), host_slowdown=timed.slowdown,
        best_run_s=sum(timed.best), pass_run_s=timed.pass_run_s, setup_reps_s=timed.setups,
        host_ref_s=host_ref_s)
    if args.record_reference:
        stored = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
        stored.setdefault(mode, {})[workload.name] = digests
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    failed = len({f["op"] for f in failures})
    metrics_out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    result.update(metrics=metrics_out, failures=failures, failed_frac=failed / attempted)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"# {workload.name} seed={args.seed} ops={attempted} size: {workload.size}")
    for key, value in result["metadata"].items():
        print(f"# {key}: {value}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")
    print(f"failed_frac {failed / attempted:.6g} 1  ({failed} of {attempted} ops)")
    for failure in failures[:5]:
        print(f"# failed op {failure['op']}: {failure['witness']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    if not (SRC / "omstrata" / "__init__.py").is_file():
        print(f"error: no omstrata sources at {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
