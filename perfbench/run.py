"""Benchmark for torusapprox: end-to-end timings per workload, and a traced
run that splits the time by layer.

    python3 perfbench/run.py --workload quasi-ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; torusapprox is imported from its `src/`.
One run of a workload (see workloads.py):

1. sets the workload up SETUP_PROBES times, each in a fresh interpreter
   (importing torusapprox and making the inputs from --seed), and reports
   the median as setup_s;
2. repeats one pass of the workload until --seconds have gone by (at least
   MIN_PASSES passes), checking each pass's output after its timer stops;
3. with --trace 0 reports the median pass's wall_s and cpu_s (this process
   and its reaped children, from getrusage) and the peak resident memory of
   this process or any child; with --trace 1 spends the first third of the
   time on untraced passes and the rest on traced ones, and reports the
   median per-layer metrics of tracing.METRICS.  Every time is rescaled to
   a reference machine speed sampled while it was taken (see speed.py), so
   that runs on a host whose speed drifts stay comparable; the record line
   keeps the raw wall times and the factors;
4. runs the costlier checks on every pass's output (for moving-enclosure,
   the exact pair sum the enclosure must contain) and prints a record line
   (seed, machine, load average, every sample) and, as the last line, the
   JSON result.  A pass whose check fails is counted in `failed`, never
   dropped.

`--workload all` runs every workload in its own process and prints each
metric by name with its unit, and each workload's failed share.
Span summaries of traced runs go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import tracing
import workloads

SETUP_PROBES = 9
MIN_PASSES = 3

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import workloads
workloads.setup(sys.argv[2], int(sys.argv[3]))
took = time.perf_counter() - start
import speed
print(took, speed.factor_from(speed.kernel_seconds() for _ in range(25)))
"""


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine_record() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
    }


def probe_setup(name: str, seed: int) -> float:
    """Seconds to import torusapprox and make the inputs, in a fresh
    interpreter (the module cache makes a second import in-process free),
    rescaled to the reference speed measured right after."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(workloads.HERE), name, str(seed)],
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        lines = done.stderr.strip().splitlines() or [f"exit status {done.returncode}"]
        sys.exit(f"perfbench: setup failed: {lines[-1]}")
    took, factor = map(float, done.stdout.split())
    return took * factor


def timed_pass(workload, pkg, inputs, sampler) -> dict:
    """One pass, its times rescaled to the reference speed (speed.py) after
    taking out this process's own sampling time.  The output is checked
    after the clocks stop."""
    cpu0 = _cpu_seconds()
    sampler.start()
    start = time.perf_counter()
    try:
        output = workload.run(pkg, inputs)
    except Exception:
        output = None
        problems = [traceback.format_exc(limit=2).strip().splitlines()[-1]]
    wall = time.perf_counter() - start
    samples = sampler.stop()
    cpu = _cpu_seconds() - cpu0
    if output is not None:
        problems = workload.check(output, inputs)
    factor = speed.factor_from(samples or [speed.kernel_seconds()])
    return {
        "wall_s": (wall - sampler.own_s) * factor,
        "cpu_s": (cpu - sampler.own_s) * factor,
        "raw_wall_s": wall,
        "speed_factor": factor,
        "output": output,
        "problems": problems,
    }


def run_passes(workload, pkg, inputs, sampler, seconds: float, minimum: int,
               on_pass=None) -> list[dict]:
    passes = []
    start = time.perf_counter()
    while len(passes) < minimum or time.perf_counter() - start < seconds:
        result = timed_pass(workload, pkg, inputs, sampler)
        if on_pass is not None:
            on_pass(result)
        passes.append(result)
    return passes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workload = workloads.WORKLOADS[name]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_record(),
        "loadavg_before": list(os.getloadavg()),
    }
    setup_samples = [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    pkg, inputs = workloads.setup(name, seed)
    sampler = speed.SpeedSampler()

    if not trace:
        passes = run_passes(workload, pkg, inputs, sampler, seconds, MIN_PASSES)
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = END_TO_END
    else:
        untraced = run_passes(workload, pkg, inputs, sampler, seconds / 3, 1)
        tracer = tracing.Tracer(pkg)
        layer_samples = []

        def reduce_spans(result):
            output = result["output"]
            summary = tracer.span_summary()
            layer_samples.append(tracer.layer_metrics(
                summary, workload.report_bytes(output) if output is not None else 0,
                result["speed_factor"]))
            record["spans"] = summary
            tracer.reset()

        tracer.install()
        try:
            traced = run_passes(workload, pkg, inputs, sampler, seconds - seconds / 3, 1,
                                reduce_spans)
        finally:
            tracer.uninstall()
        passes = untraced + traced
        metrics = tracing.median_metrics(layer_samples)
        metrics["trace_overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in untraced)
        )
        units = tracing.METRICS
        record["layer_samples"] = layer_samples

    for result in passes:
        if result["output"] is not None:
            result["problems"] += workload.final_check(pkg, result["output"], seed)
    problems = [p for result in passes for p in result["problems"]]
    failed = sum(1 for result in passes if result["problems"])
    record.update(
        setup_samples=setup_samples,
        wall_samples=[p["wall_s"] for p in passes],
        cpu_samples=[p["cpu_s"] for p in passes],
        raw_wall_samples=[p["raw_wall_s"] for p in passes],
        speed_factors=[p["speed_factor"] for p in passes],
        problems=problems,
    )
    result = {
        "correct": not problems,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    return record, result


def write_trace(record: dict) -> None:
    out = workloads.ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{record['workload']}-seed{record['seed']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")


def run_all(args) -> int:
    """Every workload in its own process (peak memory is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for metric, entry in result["metrics"].items():
            print(f"{name:18} {metric:32} {entry['value']:.6g} {entry['unit']}")
        print(f"{name:18} {'failed_share':32} {result['failed']}/{result['attempted']}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    record, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        write_trace(record)
        del record["spans"], record["layer_samples"]
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
