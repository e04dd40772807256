#!/usr/bin/env bash
# Arena + jobs identity gate: neither the trace arena nor the job
# count may change anything observable.
#
# For each sweep binary this runs one base configuration (arena on,
# MAB_BENCH_JOBS=[jobs]) and diffs it against:
#
#   - arena off (MAB_TRACE_ARENA=0) at the same job count, and
#   - jobs 1    (MAB_BENCH_JOBS=1, arena on) when [jobs] is above 1,
#
# asserting for every leg that:
#
#   1. stdout is byte-identical to the base leg, and
#   2. the --json reports (every sweep writes one) are byte-identical
#      after dropping the top-level "meta" block (which by design
#      records run-local facts: wall-clock samples, the command line
#      and the arena hit/miss counters).
#
# Usage:
#   scripts/check_arena_identity.sh <build-bench-dir> [jobs] [bench...]
#
# With no [bench...] arguments, every bench-smoke sweep from
# bench/CMakeLists.txt is checked. Scale defaults to the smoke scale
# (MAB_BENCH_SCALE=0.01); override via the environment.
set -euo pipefail

bench_dir=${1:?usage: check_arena_identity.sh <build-bench-dir> [jobs] [bench...]}
jobs=${2:-1}
if [ $# -ge 2 ]; then shift 2; else shift 1; fi

source "$(dirname "$0")/sweep_lib.sh"

benches=("$@")
if [ ${#benches[@]} -eq 0 ]; then
    benches=("${MAB_SWEEPS[@]}")
fi

export MAB_BENCH_SCALE=${MAB_BENCH_SCALE:-0.01}
export MAB_BENCH_JOBS=$jobs

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail=0
for b in "${benches[@]}"; do
    exe="$bench_dir/$b"
    if [ ! -x "$exe" ]; then
        echo "MISSING  $b (not built at $exe)" >&2
        fail=1
        continue
    fi

    # run_leg <leg> [VAR=VAL...]: one run of $exe under the given
    # environment overrides, output and --json captured per leg.
    run_leg() {
        local leg=$1
        shift
        run_sweep "$exe" "$b" "$tmp/$b.$leg" "$@"
    }

    # compare_leg <leg> <description>: diff the leg against base.
    compare_leg() {
        same_output "$b" "$tmp/$b.base" "$tmp/$b.$1" "$2" || ok=0
    }

    ok=1
    run_leg base
    run_leg off MAB_TRACE_ARENA=0
    compare_leg off "arena on vs off (jobs=$jobs)"
    legs="arena off"
    if [ "$jobs" -gt 1 ]; then
        run_leg j1 MAB_BENCH_JOBS=1
        compare_leg j1 "jobs 1 vs jobs $jobs"
        legs="$legs, jobs 1"
    fi

    if [ "$ok" -eq 1 ]; then
        echo "IDENTICAL  $b (jobs=$jobs, $legs)"
    else
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "arena identity check FAILED" >&2
    exit 1
fi
echo "arena+jobs identity check passed: ${#benches[@]} sweep(s), jobs=$jobs"
