#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pf_single --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-test

Builds the driver (perfbench/driver.cc, linked against the simulator's
libraries in src/) into .bench_build/perfbench, then runs passes of the
workload until --seconds have elapsed. A pass is one driver process that
sweeps the workload's whole grid, the way a user runs one sweep binary,
so each pass pays process start-up and starts with a cold trace arena.
Host timings are best-of-passes, as timeit reports them: the fastest
pass for wall_s, each cell's fastest run for the cell metrics and
work_mps. setup_s is the median over the passes' start-ups.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
passes. --trace 1 alternates untraced and traced passes and reports the
per-layer metrics from the traced ones (medians over the traced passes),
plus sim.trace_overhead, the ratio of their fastest wall times.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. The lines before it are a human-readable summary. Exit code
is 0 whenever a result is printed, including an incorrect one; a build
failure, a crashed or timed-out pass, or a missing src/ exits non-zero
without a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "mab_perfbench"

WORKLOADS = ("pf_single", "smt_fetch", "bandit_drift")
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
# Scale guard: a pass whose simulation covers less of its wall time than
# this is dominated by start-up or reporting, and its cells fail.
MIN_SIM_SHARE = 0.9

# The workload-specific name of work_mps, printed in the summary.
ALIASES = {
    "pf_single": ("sim_mips", "M instr/s"),
    "smt_fetch": ("sim_mips", "M instr/s"),
    "bandit_drift": ("bandit_msteps_per_s", "M steps/s"),
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found in {ROOT / 'src'}")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "mab_perfbench", "--parallel", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def driver_env():
    # The simulator reads MAB_* knobs (trace arena, profiling); the
    # benchmark must not inherit them.
    return {k: v for k, v in os.environ.items() if not k.startswith("MAB_")}


def run_pass(workload, seed, traced):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    start = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S, env=driver_env())
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass timed out after {PASS_TIMEOUT_S}s: {cmd}")
    end = time.monotonic_ns()
    if proc.returncode != 0:
        raise BenchError(f"driver exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-600:]}")
    p = json.loads(proc.stdout.strip().splitlines()[-1])
    # steady_clock and time.monotonic both read CLOCK_MONOTONIC, so the
    # driver's timestamps and the spawn time share one time base.
    p["wall_s"] = (end - start) / 1e9
    p["setup_s"] = (p["sim_start_ns"] - start) / 1e9
    p["sim_share"] = (p["sim_end_ns"] - p["sim_start_ns"]) / (end - start)
    return p


def run_passes(workload, seed, seconds, trace):
    deadline = time.monotonic() + seconds
    plain, traced = [], []
    while True:
        use_trace = trace and len(traced) < len(plain)
        (traced if use_trace else plain).append(
            run_pass(workload, seed, use_trace))
        enough = len(plain) >= MIN_PASSES and (
            not trace or len(traced) >= MIN_PASSES)
        if enough and time.monotonic() >= deadline:
            return plain, traced


def judge(passes):
    """Correctness over all passes: (attempted, failed, problems)."""
    attempted = failed = 0
    problems = []
    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        problems.append(f"outputs differ between passes of one seed: "
                        f"{sorted(digests)}")
    for p in passes:
        attempted += p["cells"]
        bad = p["failed_cells"]
        problems += p["errors"]
        if p["rr_incomplete"]:
            problems.append(f"{p['rr_incomplete']} bandit cell(s) ended in "
                            "round-robin: the scale is too small")
            bad = p["cells"]
        if p["sim_share"] < MIN_SIM_SHARE:
            problems.append(f"simulation was {p['sim_share']:.1%} of the "
                            "pass wall time")
            bad = p["cells"]
        if len(digests) != 1:
            bad = p["cells"]
        failed += bad
    return attempted, failed, problems


def best_cell_ms(plain):
    """Each cell's fastest latency over the passes of the run.

    The host's speed drifts by a fifth over tens of seconds (other
    tenants), which moves a median of passes with it; a cell's fastest
    run moves far less. Over five runs of one workload, pooled cell
    medians spread 11-13% and per-cell bests 2-5%.
    """
    return [min(ms) for ms in zip(*(p["cell_ms"] for p in plain))]


def end_to_end(plain):
    cells = best_cell_ms(plain)
    return {
        "wall_s": min(p["wall_s"] for p in plain),
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "cell_ms_p50": statistics.median(cells),
        "cell_ms_p95": statistics.quantiles(cells, n=20,
                                            method="inclusive")[18],
        "peak_rss_mb": statistics.median(
            [p["peak_rss_mb"] for p in plain]),
        # Every pass does the same work: judge() requires one digest.
        "work_mps": plain[0]["work_units"] / sum(cells) / 1e3,
        "bandit_quality": plain[0]["quality"],
    }


def per_layer(plain, traced):
    keys = traced[0]["layers"].keys()
    out = {k: statistics.median([p["layers"][k] for p in traced])
           for k in keys}
    out["sim.trace_overhead"] = (min(p["wall_s"] for p in traced) /
                                 min(p["wall_s"] for p in plain))
    return out


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(trace):
    return {m["name"]: m["unit"]
            for m in spec()["per_layer" if trace else "end_to_end"]}


def summary(workload, seed, plain, traced, metrics, units, attempted,
            failed, problems):
    first = plain[0]
    lines = [f"workload {workload}  seed {seed}  lanes {first['lanes']}  "
             f"passes {len(plain)} untraced, {len(traced)} traced  "
             f"cells {attempted} ({first['cells']}/pass)",
             f"digest {first['digest']}"]
    for name, value in metrics.items():
        lines.append(f"  {name:32s} {value:16.6g} {units[name]}")
    if "work_mps" in metrics:
        alias, unit = ALIASES[workload]
        lines.append(f"  {alias:32s} {metrics['work_mps']:16.6g} {unit}"
                     "  (= work_mps)")
        lines.append(f"  cell latency samples: {first['cells']} cells, "
                     f"each the fastest of {len(plain)} passes")
    for name, value in first["named"].items():
        lines.append(f"  {name:32s} {value:16.6g}  (simulated)")
    lines.append(f"  fail_frac {failed / attempted:.6g} "
                 f"({failed}/{attempted} cells)")
    for p in problems[:10]:
        lines.append(f"  problem: {p}")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build, then check the gate, digest and guards")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        build()
        if args.self_test:
            return subprocess.run([str(DRIVER), "--self-test"],
                                  env=driver_env()).returncode
        units = declared(args.trace)
        seconds = (spec()["run_seconds"] if args.seconds is None
                   else args.seconds)
        plain, traced = run_passes(args.workload, args.seed, seconds,
                                   args.trace)
        attempted, failed, problems = judge(plain + traced)
        metrics = (per_layer(plain, traced) if args.trace
                   else end_to_end(plain))
        if set(metrics) != set(units):
            raise BenchError("metrics disagree with BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ set(units))}")
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1

    print(summary(args.workload, args.seed, plain, traced, metrics, units,
                  attempted, failed, problems))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
