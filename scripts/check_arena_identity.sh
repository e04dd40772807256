#!/usr/bin/env bash
# Arena + lockstep + shard identity gate: neither the trace arena,
# batch-lockstep execution, nor multi-process sharding may change
# anything observable.
#
# For each sweep binary this runs one base configuration (arena on,
# batching off, unsharded) and diffs it against:
#
#   - arena off        (MAB_TRACE_ARENA=0),
#   - lockstep batches (--batch 2 and --batch 8, each at jobs 1 and 4),
#   - sharded runs     (--shards 2 and --shards 4 driver mode, each at
#                       jobs 1 and 4: the driver spawns that many
#                       worker processes over a shared spill directory
#                       and merges their partial reports)
#
# asserting for every leg that:
#
#   1. stdout is byte-identical to the base leg, and
#   2. for binaries that emit a --json report, the reports are
#      byte-identical after dropping the top-level "meta" block
#      (which by design records run-local facts: wall-clock samples,
#      the command line, the arena hit/miss counters and the
#      lockstep batch plan themselves).
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
export MAB_BENCH_BATCH=0

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
    for batch in 2 8; do
        for bj in 1 4; do
            run_leg "b$batch.j$bj" \
                MAB_BENCH_BATCH=$batch MAB_BENCH_JOBS=$bj
            compare_leg "b$batch.j$bj" \
                "batch $batch jobs $bj vs unbatched (jobs=$jobs)"
        done
    done
    for shards in 2 4; do
        for sj in 1 4; do
            run_leg "s$shards.j$sj" \
                MAB_BENCH_SHARDS=$shards MAB_BENCH_JOBS=$sj
            compare_leg "s$shards.j$sj" \
                "shards $shards jobs $sj vs unsharded (jobs=$jobs)"
        done
    done

    if [ "$ok" -eq 1 ]; then
        echo "IDENTICAL  $b (jobs=$jobs, arena off," \
            "batch 2/8 x jobs 1/4, shards 2/4 x jobs 1/4)"
    else
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "arena identity check FAILED" >&2
    exit 1
fi
echo "arena+lockstep+shard identity check passed: ${#benches[@]} sweep(s), jobs=$jobs"
