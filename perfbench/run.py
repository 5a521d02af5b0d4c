#!/usr/bin/env python3
"""greenseq benchmark: one workload per run, a closed loop with one client.

Usage, from the root of a greenseq checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

Workloads: ``verify``, ``construct``, ``auto_mgs`` and ``search`` (see
``workloads.py`` and ``README.md``).  The program is imported from the
checkout's ``src`` directory and called in-process, one operation after the
other on a single thread.  ``--trace 0`` times the loop and prints the
end-to-end metrics; ``--trace 1`` spends half the time untraced and half
with every public ``greenseq`` function wrapped (``tracer.py``) and prints
the per-layer metrics.  Every metric is printed as ``name value unit``; the
last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# p90 needs ten samples beyond it: the loop runs past --seconds until it
# has this many, but never past STRETCH times --seconds
MIN_SAMPLES = 100
STRETCH = 3.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "setup_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["verify", "construct", "auto_mgs", "search"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="run every workload at toy sizes, traced and untraced, and check the output",
    )
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    return args


def load_program() -> tuple[object, float]:
    """Import greenseq from the checkout; returns (workloads module, import seconds)."""
    src = ROOT / "src"
    if not (src / "greenseq" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {src / 'greenseq'} not found; run from a greenseq checkout")
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import greenseq.cli  # noqa: F401  (imports every layer the workloads use)
    import workloads

    return workloads, time.perf_counter() - start


def set_up(workloads, name: str, seed: int, toy: bool, import_s: float):
    """Build the inputs SETUP_REPEATS times; setup_s is imports plus the median build."""
    base = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    times = []
    for rep in range(SETUP_REPEATS):
        workdir = base / str(rep)
        workdir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        work = workloads.BUILDERS[name](seed, workdir, toy)
        times.append(time.perf_counter() - start)
    return work, import_s + statistics.median(times), base


def closed_loop(work, seconds: float, min_samples: int, recorder=None):
    """Run ops in turn until the time is up.

    Returns (latencies, failure notes, elapsed seconds, ops per second of
    each round).  The loop ends only between rounds, so every run holds the
    same mix of inputs and latency quantiles do not depend on where the
    loop stopped.
    """
    ops = work.ops
    latencies: list[float] = []
    round_rates: list[float] = []
    notes: Counter = Counter()
    start = round_start = time.perf_counter()
    deadline, hard_stop = start + seconds, start + STRETCH * seconds
    i = 0
    while True:
        now = time.perf_counter()
        if i and i % work.round == 0:
            round_rates.append(work.round / (now - round_start))
            round_start = now
        if i % work.round == 0 and (
            now >= hard_stop or (now >= deadline and len(latencies) >= min_samples)
        ):
            break
        op = ops[i % len(ops)]
        t0 = time.perf_counter()
        try:
            if recorder is None:
                message = op.call()
            else:
                with recorder.op_span(i):
                    message = op.call()
        except Exception as exc:  # counted as a failed op; the loop goes on
            message = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if message:
            notes[f"{op.kind}: {message}"] += 1
        i += 1
    return latencies, notes, time.perf_counter() - start, round_rates


def run_probes(probes) -> tuple[int, int, list[str]]:
    """Known-defect inputs, outside the loop: (crashes, documented outcomes, lines)."""
    crashes = documented = 0
    lines = []
    for op in probes:
        try:
            message = op.call()
        except Exception as exc:
            crashes += 1
            message = f"{type(exc).__name__}"
        documented += message is None
        lines.append(f"probe {op.kind}: {message or 'documented outcome'}")
    return crashes, documented, lines


def traced_peak_mb(op) -> float:
    """tracemalloc peak of one run of ``op``, in MB."""
    import tracemalloc

    tracemalloc.start()
    try:
        op.call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run_workload(workloads, name, seed, seconds, trace, toy, import_s):
    work, setup_s, workdir = set_up(workloads, name, seed, toy, import_s)
    try:
        if not trace:
            latencies, notes, _, round_rates = closed_loop(
                work, seconds, 1 if toy else MIN_SAMPLES
            )
            deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else latencies * 9
            metrics = {
                "ops_per_s": statistics.median(round_rates),
                "latency_p50_ms": 1000 * statistics.median(latencies),
                "latency_p90_ms": 1000 * deciles[8],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_rate": 1 - sum(notes.values()) / len(latencies),
                "setup_s": setup_s,
            }
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        else:
            from tracer import Recorder, layer_metrics

            plain, notes, plain_s, _ = closed_loop(work, seconds / 2, 1)
            recorder = Recorder()
            recorder.install()
            try:
                traced, traced_notes, traced_s, _ = closed_loop(
                    work, seconds / 2, 1, recorder
                )
            finally:
                recorder.uninstall()
            notes.update(traced_notes)
            latencies = plain + traced
            metrics = layer_metrics(recorder.spans, len(traced))
            untraced_rate, traced_rate = len(plain) / plain_s, len(traced) / traced_s
            metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
            metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
            metrics["trace.overhead_pct"] = (100 * (untraced_rate / traced_rate - 1), "%")
            metrics["quiver.traced_peak_mb"] = (
                traced_peak_mb(max(work.ops, key=lambda op: op.size)),
                "MB",
            )
            recorder.write(ROOT / ".bench_out" / f"spans-{name}-seed{seed}.jsonl")
        crashes, documented, probe_lines = run_probes(work.probes)
        if trace:
            metrics["oracle.crashes"] = (float(crashes), "count")
            metrics["oracle.budget_exhausted"] = (float(documented), "count")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()
    return {
        "metrics": metrics,
        "attempted": len(latencies),
        "failed": sum(notes.values()),
        "notes": notes,
        "probe_lines": probe_lines,
    }


def report(result) -> dict:
    for note, count in sorted(result["notes"].items()):
        print(f"FAILED x{count} {note}")
    for line in result["probe_lines"]:
        print(line)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }


def self_check(workloads, import_s) -> int:
    """Toy-sized run of every workload in both modes; checks names, values and outputs."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for name in workloads.BUILDERS:
        for trace in (0, 1):
            result = run_workload(workloads, name, 7, 0.5, trace, True, import_s)
            got = result["metrics"]
            tag = f"{name} --trace {trace}"
            if set(got) != want[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(want[trace] - set(got))}, "
                                f"extra {sorted(set(got) - want[trace])}")
            bad = [k for k, (v, _) in got.items() if not math.isfinite(v)]
            if bad:
                problems.append(f"{tag}: non-finite {bad}")
            problems.extend(f"{tag}: {n}" for n in result["notes"])
            print(f"{tag}: {result['attempted']} ops, {result['failed']} failed")
            for line in result["probe_lines"]:
                print(f"  {line} (known defect when not the documented outcome)")
    for line in problems:
        print("SELF-CHECK FAILED:", line)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads, import_s = load_program()
    if args.self_check:
        return self_check(workloads, import_s)
    result = run_workload(
        workloads, args.workload, args.seed, args.seconds, args.trace, False, import_s
    )
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
