#!/usr/bin/env bash
# Records the repo's perf trajectory for the sweep engine: end-to-end
# wall-clock of the fig8 / fig13 / table8 sweeps at 1% scale — trace
# arena on vs off vs the persistent arena directory (cold spill and
# warm mmap start) — at 1 and 4 jobs, plus the record-delivery
# microbenchmark (BM_ReplayNext) and the compute-kernel
# microbenchmarks (BM_CacheProbe*, BM_CacheLookupFill,
# BM_PolicyScores*). Emits BENCH_sweeps.json.
#
# Methodology: for each (sweep, jobs) cell the legs are interleaved
# (on, off, dircold, dirwarm, on, off, ...) so slow drift in
# host load hits every leg equally, and the summary reports both the
# min and the median of the per-leg times. On a shared box prefer the
# min — it is the closest observable to the noise-free cost. The
# dircold leg starts from an emptied spill directory every rep; the
# dirwarm leg reuses a directory primed once before timing.
#
# Usage:
#   scripts/bench_baseline.sh <build-bench-dir> [out.json]
#
# Environment:
#   MAB_BASELINE_REPS   repetitions per leg (default 5)
#   MAB_BENCH_SCALE     sweep scale (default 0.01)
set -euo pipefail

bench_dir=${1:?usage: bench_baseline.sh <build-bench-dir> [out.json]}
out=${2:-BENCH_sweeps.json}
reps=${MAB_BASELINE_REPS:-5}
export MAB_BENCH_SCALE=${MAB_BENCH_SCALE:-0.01}

sweeps=(bench_fig8_singlecore bench_fig13_smt_scurve
    bench_table8_prefetch_algos)
jobs_list=(1 4)

now_ms() {
    echo $((($(date +%s%N)) / 1000000))
}

# run_leg <exe> <jobs> <mode:on|off|dircold|dirwarm>
#   -> wall ms on stdout
run_leg() {
    local exe=$1 jobs=$2 mode=$3 t0 t1
    if [ "$mode" = dircold ]; then
        rm -rf "$colddir"
        mkdir -p "$colddir"
    fi
    t0=$(now_ms)
    case "$mode" in
    off) MAB_BENCH_JOBS=$jobs MAB_TRACE_ARENA=0 "$exe" >/dev/null ;;
    dircold) MAB_BENCH_JOBS=$jobs MAB_TRACE_ARENA_DIR=$colddir \
        "$exe" >/dev/null ;;
    dirwarm) MAB_BENCH_JOBS=$jobs MAB_TRACE_ARENA_DIR=$warmdir \
        "$exe" >/dev/null ;;
    *) MAB_BENCH_JOBS=$jobs "$exe" >/dev/null ;;
    esac
    t1=$(now_ms)
    echo $((t1 - t0))
}

results=$(mktemp)
micro=$(mktemp)
arenas=$(mktemp -d)
trap 'rm -rf "$results" "$micro" "$arenas"' EXIT

for sweep in "${sweeps[@]}"; do
    exe="$bench_dir/$sweep"
    [ -x "$exe" ] || {
        echo "missing binary: $exe" >&2
        exit 1
    }
    colddir="$arenas/$sweep.cold"
    warmdir="$arenas/$sweep.warm"
    # Prime the warm directory once, outside the timed legs.
    mkdir -p "$warmdir"
    MAB_BENCH_JOBS=1 MAB_TRACE_ARENA_DIR=$warmdir "$exe" >/dev/null
    for jobs in "${jobs_list[@]}"; do
        on_ms=() off_ms=() cold_ms=() warm_ms=()
        for ((r = 0; r < reps; ++r)); do
            on_ms+=("$(run_leg "$exe" "$jobs" on)")
            off_ms+=("$(run_leg "$exe" "$jobs" off)")
            cold_ms+=("$(run_leg "$exe" "$jobs" dircold)")
            warm_ms+=("$(run_leg "$exe" "$jobs" dirwarm)")
        done
        echo "$sweep jobs=$jobs on: ${on_ms[*]} | off: ${off_ms[*]}" \
            "| dircold: ${cold_ms[*]} | dirwarm: ${warm_ms[*]}" >&2
        echo "$sweep $jobs ${on_ms[*]} | ${off_ms[*]}" \
            "| ${cold_ms[*]} | ${warm_ms[*]}" >>"$results"
    done
done

# The record-delivery microbench (per-record replay cost) plus the
# compute-kernel microbenches added with the SoA cache rewrite: the
# probe/fill paths (BM_CacheProbe*, BM_CacheLookupFill) and the bandit
# score loops (BM_PolicyScores*).
"$bench_dir/bench_microbench" \
    --benchmark_filter='BM_ReplayNext|BM_CacheProbe|BM_CacheLookupFill|BM_PolicyScores' \
    --benchmark_min_time=0.2 --benchmark_repetitions=3 \
    --benchmark_format=json >"$micro" \
    2>/dev/null

# Host provenance: enough to judge whether two BENCH_sweeps.json are
# comparable (arch + kernel + compiler + optimization level).
cache="$bench_dir/../CMakeCache.txt"
cxx=$(sed -n 's/^CMAKE_CXX_COMPILER:[^=]*=//p' "$cache" 2>/dev/null |
    head -1)
cxx_version=$({ "$cxx" --version 2>/dev/null || true; } | head -1)
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$cache" \
    2>/dev/null | head -1)

python3 - "$results" "$out" "$reps" "$MAB_BENCH_SCALE" "$micro" \
    "$cxx_version" "$build_type" <<'EOF'
import json
import statistics
import subprocess
import sys

results_path, out_path, reps = sys.argv[1], sys.argv[2], int(sys.argv[3])
scale = float(sys.argv[4])
micro_path = sys.argv[5]
cxx_version, build_type = sys.argv[6], sys.argv[7]

sweeps = []
with open(results_path) as f:
    for line in f:
        name, jobs, rest = line.split(maxsplit=2)
        on_part, off_part, cold_part, warm_part = rest.split("|")
        on = [int(x) for x in on_part.split()]
        off = [int(x) for x in off_part.split()]
        cold = [int(x) for x in cold_part.split()]
        warm = [int(x) for x in warm_part.split()]
        saving = lambda a, b: round(100.0 * (b - a) / b, 1) if b else 0.0
        sweeps.append({
            "sweep": name,
            "jobs": int(jobs),
            "arenaOnMs": on,
            "arenaOffMs": off,
            "dirColdMs": cold,
            "dirWarmMs": warm,
            "minOnMs": min(on),
            "minOffMs": min(off),
            "minDirColdMs": min(cold),
            "minDirWarmMs": min(warm),
            "medianOnMs": statistics.median(on),
            "medianOffMs": statistics.median(off),
            "medianDirColdMs": statistics.median(cold),
            "medianDirWarmMs": statistics.median(warm),
            "savingPctMin": saving(min(on), min(off)),
            "savingPctMedian": saving(statistics.median(on),
                                      statistics.median(off)),
            "warmSavingPctMin": saving(min(warm), min(cold)),
        })

with open(micro_path) as f:
    micro = json.load(f)
replay_ns = None
kernel_ns = {}
# Inverted-rate counters are reported in seconds per item; scale to
# ns. The kernel benches carry their per-op cost in real_time
# (already ns). The bench ran --benchmark_repetitions=3: skip the
# aggregate rows and keep the min across repetitions, the same
# noise-resistant statistic the sweep legs use.
for b in micro.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    name = b.get("name", "")
    if name.startswith("BM_ReplayNext"):
        v = round(b["ns/record"] * 1e9, 3)
        replay_ns = v if replay_ns is None else min(replay_ns, v)
    elif name.startswith(("BM_Cache", "BM_PolicyScores")):
        v = round(b["real_time"], 3)
        kernel_ns[name] = min(kernel_ns.get(name, v), v)

# ns/op of the pre-SoA array-of-struct kernel, measured as an
# interleaved A/B on the recorded host: the pre-change commit rebuilt
# with the same bench sources, old/new binaries alternated run for
# run, min over the reps (single uninterleaved samples swing +-40%
# on this box and are not comparable). Kept inline so every
# regenerated record carries the before/after comparison.
kernel_before_ns = {
    "BM_CacheLookupFill/32768/real_time": 17.021,
    "BM_CacheLookupFill/1048576/real_time": 18.481,
    "BM_CacheProbeHit/32768/real_time": 15.355,
    "BM_CacheProbeHit/2097152/real_time": 18.192,
    "BM_CacheProbeMiss/32768/real_time": 14.582,
    "BM_CacheProbeMiss/2097152/real_time": 15.296,
    "BM_CacheProbeInflight/real_time": 12.125,
    "BM_PolicyScores/11/real_time": 76.848,
    "BM_PolicyScores/64/real_time": 379.079,
    "BM_PolicyScoresSwUcb/11/real_time": 82.605,
    "BM_PolicyScoresSwUcb/64/real_time": 371.601,
}

def run(cmd):
    return subprocess.run(cmd, capture_output=True,
                          text=True).stdout.strip()

date = run(["date", "-u", "+%Y-%m-%dT%H:%M:%SZ"])
nproc = run(["nproc"])
doc = {
    "schema": "mab-bench-sweeps-v5",
    "generatedUtc": date,
    "host": {
        "nproc": int(nproc or 1),
        "arch": run(["uname", "-m"]),
        "kernel": run(["uname", "-sr"]),
        "compiler": cxx_version,
        "buildType": build_type,
    },
    "scale": scale,
    "repsPerLeg": reps,
    "methodology": ("interleaved on/off/dircold/dirwarm legs per "
                    "cell; min is the noise-resistant statistic on a "
                    "shared host"),
    "replayNsPerRecord": replay_ns,
    "kernel": {
        "note": ("ns/op (real_time) of the cache probe/fill and "
                 "bandit score microbenches; beforeNsPerOp was "
                 "measured on the pre-SoA AoS cache layout on the "
                 "same host"),
        "nsPerOp": kernel_ns,
        "beforeNsPerOp": kernel_before_ns,
    },
    "sweeps": sweeps,
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out_path}")
print(f"  BM_ReplayNext {replay_ns} ns/record")
for name in sorted(kernel_ns):
    before = kernel_before_ns.get(name)
    vs = f" (was {before})" if before is not None else ""
    print(f"  {name:<42} {kernel_ns[name]} ns/op{vs}")
for s in sweeps:
    print(f"  {s['sweep']:<28} jobs={s['jobs']}  "
          f"min {s['minOnMs']}/{s['minOffMs']}/"
          f"{s['minDirColdMs']}/{s['minDirWarmMs']} ms "
          f"(on/off/dircold/dirwarm)  "
          f"arena saving {s['savingPctMin']}%  "
          f"warm saving {s['warmSavingPctMin']}%")
EOF
