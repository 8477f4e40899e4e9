"""Benchmark harness for compident.

    python3 bench/run.py --workload census-cold --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run from the repository root. Each pass sets up (a fresh import of the
library plus inputs made from --seed) and then times every operation of the
workload once; passes repeat until the next one would end after --seconds,
with at least one. Every output is checked against bench/reference.json
outside the timed span. Times are rescaled to a reference core speed by
bench/speed.py. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of bench/tracing.py with --trace 1. A
readable report and the run's metadata go to stderr and to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MIN_SETUPS = 5  # setup_s is the median of at least this many set-ups


def log(text: str = "") -> None:
    print(text, file=sys.stderr, flush=True)


def prepare(workload, seed, ref):
    """(library, Setup, start_ns, end_ns) for one fresh set-up."""
    from workloads import load_library

    start = time.perf_counter_ns()
    lib = load_library()
    setup = workload.setup(lib, seed, ref)
    return lib, setup, start, time.perf_counter_ns()


def checked(workload, lib, seed, ref, item, result) -> bool:
    if isinstance(result, Exception):
        return False
    try:
        return bool(workload.check(lib, seed, ref, item, result))
    except Exception as exc:  # a check that raises is a wrong output
        log(f"check raised {exc!r}")
        return False


def run_pass(workload, lib, setup, seed, tracer=None):
    """Time one pass: (results, per-op intervals, pass interval) in ns."""
    from workloads import timed

    results, intervals = [], []
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter_ns()
        for item in setup.inputs:
            result, op_start, op_end = timed(workload.operation, lib, seed, item)
            results.append(result)
            intervals.append((op_start, op_end))
        end = time.perf_counter_ns()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return results, intervals, (start, end)


class Record:
    """Everything one run measured."""

    def __init__(self):
        self.passes = []  # (traced, pass interval, per-op intervals)
        self.setups = []  # set-up intervals
        self.layers = []  # layer_metrics of each traced pass
        self.tracer = None  # the last traced pass's spans
        self.inputs = []
        self.sizes = {}
        self.attempted = 0
        self.failed = 0


def measure(workload, seed: int, seconds: int, trace: bool, ref, probe) -> Record:
    from tracing import Tracer, layer_metrics

    rec = Record()
    # With tracing, the first half of the run measures untraced passes, so
    # the overhead is the difference of the two halves' medians.
    phases = [(False, seconds / 2), (True, seconds)] if trace else [(False, seconds)]
    start = time.perf_counter()
    for traced, deadline in phases:
        while True:
            begun = time.perf_counter()
            lib, setup, setup_start, setup_end = prepare(workload, seed, ref)
            tracer = Tracer() if traced else None
            results, intervals, span = run_pass(workload, lib, setup, seed, tracer)
            failed = sum(
                not checked(workload, lib, seed, ref, item, result)
                for item, result in zip(setup.inputs, results)
            )
            rec.setups.append((setup_start, setup_end))
            rec.passes.append((traced, span, intervals))
            rec.inputs, rec.sizes = setup.inputs, setup.sizes
            rec.attempted += setup.attempted + len(setup.inputs)
            rec.failed += setup.failed + failed
            if traced:
                rec.layers.append(layer_metrics(tracer))
                rec.tracer = tracer
            now = time.perf_counter()
            if now - start + (now - begun) > deadline:
                break
    while len(rec.setups) < MIN_SETUPS:
        _, setup, setup_start, setup_end = prepare(workload, seed, ref)
        rec.setups.append((setup_start, setup_end))
        rec.attempted += setup.attempted
        rec.failed += setup.failed
    return rec


def percentiles(per_pass_ms: list[list[float]]) -> dict:
    """Median and p90 over the operations of all passes, each reported only
    when one pass leaves at least ten samples beyond it."""
    ops = len(per_pass_ms[0])
    samples = [ms for run in per_pass_ms for ms in run]
    out = {"op_samples": len(samples)}
    if ops >= 20:
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        out["op_ms_p50"] = cuts[49]
        if ops >= 100:
            out["op_ms_p90"] = cuts[89]
    return out


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "compident").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def metadata(workload, args, sizes: dict, probe) -> dict:
    return {
        "workload": workload.name,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "inputs": sizes,
        "probe_samples": len(probe.durations),
        "core_slowdown_median": probe.median_factor(),
    }


def unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith(("ratio", "per_graph", "per_reparam")):
        return "ratio"
    return "count"


def run_one(args, ref) -> int:
    from speed import SpeedProbe
    from tracing import top_self_times
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    with SpeedProbe() as probe:
        rec = measure(workload, args.seed, args.seconds, trace, ref, probe)
    meta = metadata(workload, args, rec.sizes, probe)

    def walls(traced: bool) -> list[float]:
        return [probe.scaled(*span) for t, span, _ in rec.passes if t == traced]

    untraced = [(span, ops) for t, span, ops in rec.passes if not t]
    op_ms = [[probe.scaled(*op) * 1e3 for op in ops] for _, ops in untraced]
    report = {
        "wall_s": statistics.median(walls(False)),
        "wall_unscaled_s": statistics.median((b - a) / 1e9 for (a, b), _ in untraced),
        "passes": len(untraced),
        "setup_s": statistics.median(probe.scaled(*s) for s in rec.setups),
        "setup_samples": len(rec.setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_ratio": rec.failed / rec.attempted,
        **percentiles(op_ms),
    }
    if trace:
        # Layer times are rescaled by their traced pass's speed factor.
        traced_spans = [span for t, span, _ in rec.passes if t]
        samples = []
        for sample, (start, end) in zip(rec.layers, traced_spans):
            factor = probe.scaled(start, end) / ((end - start) / 1e9)
            samples.append({k: v * factor if k.endswith("_s") else v for k, v in sample.items()})
        # `factor` is now the last traced pass's, whose spans are reported.
        layers = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
        layers["trace.overhead_s"] = statistics.median(walls(True)) - report["wall_s"]
        metrics = {key: {"value": v, "unit": unit_of(key)} for key, v in layers.items()}
    else:
        metrics = {
            key: {"value": report[key], "unit": unit}
            for key, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
        }

    log(f"# {workload.name}: {workload.why}")
    log("# metadata " + json.dumps(meta))
    units = {"wall_s": "s", "wall_unscaled_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "fail_ratio": "ratio", "op_ms_p50": "ms", "op_ms_p90": "ms"}
    for key, unit in units.items():
        if key in report:
            log(f"{key:>16} = {report[key]:.6g} {unit}")
    log(f"passes = {report['passes']}, op samples = {report['op_samples']}, "
        f"setup samples = {report['setup_samples']}")
    extra = {}
    if workload.label:
        labels = [workload.label(item) for item in rec.inputs]
        extra["op_s_median"] = {
            label: statistics.median(run[i] for run in op_ms) / 1e3
            for i, label in enumerate(labels)
        }
        extra["op_s_median_unscaled"] = {
            label: statistics.median((ops[i][1] - ops[i][0]) / 1e9 for _, ops in untraced)
            for i, label in enumerate(labels)
        }
        log("per-operation medians, scaled and unscaled:")
        for label, value in extra["op_s_median"].items():
            log(f"  {value:10.4f} s {extra['op_s_median_unscaled'][label]:10.4f} s  {label}")
    if trace:
        spans = rec.tracer.spans
        log(f"tracing overhead = {layers['trace.overhead_s']:.4f} s")
        log("largest self times, last traced pass:")
        for name, value in top_self_times(spans):
            log(f"  {value * factor:10.4f} s  {name}")
        if workload.label and args.workload == "single-graph":
            mains = [i for i, span in enumerate(spans) if span[0] == "cli.main"]
            extra["query_top_self"] = {}
            for label, idx in zip(labels, mains):
                name, value = top_self_times(spans, under=idx, limit=1)[0]
                extra["query_top_self"][label] = [name, value * factor]
                log(f"  top self time in {label}: {name} {value * factor:.4f} s")
        OUT_DIR.mkdir(exist_ok=True)
        rec.tracer.write(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl.gz")

    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {"metadata": meta, "report": report, "result": result, **extra}
    path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so no workload inflates another's
    peak memory or warms its caches."""
    from workloads import WORKLOADS

    combined, status = {}, 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = 1
            continue
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "compident" / "__init__.py").is_file():
        log(f"error: no compident sources under {SRC}; run from a repository checkout")
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    ref = json.loads((HERE / "reference.json").read_text())
    return run_one(args, ref)


if __name__ == "__main__":
    sys.exit(main())
