#!/usr/bin/env python3
"""Run one workload of the bottiter benchmark and print its metrics.

    python3 perfbench/run.py --workload verify-ci --seed 0 --seconds 30 --trace 0

Workloads: verify-ci, verify-desk, profile-queries (see README.md).
With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run.  The line before it stamps the run (interpreter, CPU,
backend, commit, seed, workload sizes) and carries the failure fraction,
survivors and sample counts.  Both lines are also written to
.bench_out/ at the root of the checkout, with the spans of a traced run.

Exit status: 0 with a result printed; 2 without one (bad arguments, or
no bottiter sources in the checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

from speed import SpeedMeter
from tracer import LAYERS, Tracer
from workloads import ROOT, WORKLOADS, SourceMissing, import_bottiter, make_workload

SETUP_REPEATS = 5


def measure_sweep(workload, tracer: Tracer | None = None) -> dict:
    """Run one sweep in a closed loop; check its outputs after the timing.

    `times` and `seconds` are at reference speed (see speed.py),
    `raw_seconds` as measured.
    """
    ops = workload.sweep()
    raw, results = [], []
    meter = SpeedMeter()
    cpu = 0.0
    for op in ops:
        if tracer is not None:
            tracer.begin_op()
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a raising call is a failed operation
            result = exc
        raw.append(time.perf_counter() - start)
        cpu += time.process_time() - cpu0
        results.append(result)
        meter.record(raw[-1])
    factor = meter.factor()
    failures, survivors = [], 0
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            failures.append(f"{op.label}: raised {result!r}")
            continue
        reason = op.check(result)
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
        survivors += op.survivors(result)
    return {
        "times": [t * factor for t in raw],
        "seconds": sum(raw) * factor,
        "raw_seconds": sum(raw),
        "factor": factor,
        "cpu_s": cpu * factor,
        "failures": failures,
        "survivors": survivors,
    }


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_untraced(workload, seconds: float) -> tuple[dict, list[dict]]:
    """The end-to-end metrics other than set-up and memory."""
    sweeps: list[dict] = []
    measured = 0.0
    while not sweeps or measured + sweeps[-1]["raw_seconds"] <= seconds:
        sweeps.append(measure_sweep(workload))
        measured += sweeps[-1]["raw_seconds"]
    # Every sweep repeats the same operations: take each one's median time.
    latencies = [statistics.median(times) for times in zip(*(s["times"] for s in sweeps))]
    ops = sum(len(s["times"]) for s in sweeps)
    metrics = {
        "verify_s": (statistics.median(s["seconds"] for s in sweeps), "s"),
        "query_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "query_p99_ms": (percentile(latencies, 99) * 1e3, "ms"),
        "queries_per_s": (ops / sum(s["seconds"] for s in sweeps), "1/s"),
    }
    return metrics, sweeps


def run_traced(workload, seconds: float, spans_path) -> tuple[dict, list[dict]]:
    """Alternate untraced and traced sweeps.

    Count metrics come from the first traced sweep; times are means over
    the traced sweeps, at reference speed.
    """
    tracer = Tracer()
    plain, traced = [], []
    counts: dict = {}
    terms = 0
    measured = 0.0
    while not traced or measured + plain[-1]["raw_seconds"] + traced[-1]["raw_seconds"] <= seconds:
        plain.append(measure_sweep(workload))
        spans_before = len(tracer.span_start)
        with tracer:
            traced.append(measure_sweep(workload, tracer))
        measured += plain[-1]["raw_seconds"] + traced[-1]["raw_seconds"]
        kernel = tracer.kernel_counts()
        terms += kernel["terms"]
        if not counts:
            instantiated = tracer.calls["verifier.instantiate"]
            counts = {
                "verifier.enumerate.signatures": tracer.signatures,
                "verifier.enumerate.useful_ratio": _ratio(tracer.useful_signatures, tracer.signatures),
                "verifier.instantiate.calls": instantiated,
                "verifier.instantiate.infeasible_ratio": _ratio(tracer.infeasible_count(), instantiated),
                "verifier.prop33.calls": tracer.calls["verifier.prop33"],
                "verifier.pipeline.calls": tracer.calls["verifier.pipeline"],
                "verifier.survivors": traced[0]["survivors"],
                "kernel.calls": kernel["calls"],
                "kernel.terms": kernel["terms"],
                "kernel.distinct_ratio": _ratio(kernel["distinct"], kernel["terms"]),
                "kernel.compiled_share": _ratio(tracer.compiled_calls, kernel["calls"]),
                "trace.spans": len(tracer.span_start) - spans_before,
            }
        for log in tracer.log.values():
            log.clear()
    tracer.write(spans_path)

    sweeps = len(traced)
    traced_s = sum(s["seconds"] for s in traced)
    traced_raw_s = sum(s["raw_seconds"] for s in traced)
    plain_s = sum(s["seconds"] for s in plain)
    factor = traced_s / traced_raw_s  # self times are as measured
    self_total = sum(tracer.self_ns.values()) / 1e9
    metrics = {name: (value, _unit(name)) for name, value in counts.items()}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.self_ns[layer] / 1e9 * factor / sweeps, "s")
    metrics["kernel.ns_per_term"] = (_ratio(tracer.self_ns["kernel"] * factor, terms), "ns")
    metrics["trace.sweep_s"] = (traced_s / sweeps, "s")
    metrics["trace.self_coverage"] = (self_total / traced_raw_s, "ratio")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    metrics["process.cpu_s"] = (statistics.mean(s["cpu_s"] for s in plain), "s")
    return metrics, plain + traced


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _unit(name: str) -> str:
    return "ratio" if name.endswith(("_ratio", "_share")) else "count"


def stamp(bt, args, workload, compiled_share) -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "kernel_backend": bt.KERNEL_BACKEND,
        "kernel_compiled_share": compiled_share,
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = ROOT / ".bench_out"
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        meter = SpeedMeter()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            bt = import_bottiter()
            workload = make_workload(args.workload, bt, args.seed, workdir)
            workload.warm_up()
            setups.append(time.perf_counter() - start)
            meter.record(setups[-1])

        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            out_dir.mkdir(exist_ok=True)
            metrics, sweeps = run_traced(workload, args.seconds, out_dir / f"{tag}.spans")
            compiled_share = metrics["kernel.compiled_share"][0]
        else:
            metrics, sweeps = run_untraced(workload, args.seconds)
            metrics["setup_s"] = (statistics.median(setups) * meter.factor(), "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            compiled_share = 0.0 if bt.KERNEL_BACKEND == "python" else None
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(s["times"]) for s in sweeps)
    failures = [f for s in sweeps for f in s["failures"]]
    for failure in failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    info = {
        "stamp": stamp(bt, args, workload, compiled_share),
        "failed_frac": len(failures) / attempted,
        "survivors": sweeps[0]["survivors"],
        "samples": attempted,
        "sweeps": len(sweeps),
        "measured": {
            "sweep_s": [s["raw_seconds"] for s in sweeps],
            "setup_s": setups,
            "speed_factor": [s["factor"] for s in sweeps],
            "setup_speed_factor": meter.factor(),
        },
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps({**info, "result": result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
