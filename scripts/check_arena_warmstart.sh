#!/usr/bin/env bash
# Persistent trace-arena gate: cold, concurrent and warm starts over a
# MAB_TRACE_ARENA_DIR must not change anything observable.
#
# Three checks on bench_fig8_singlecore, each byte-identical (stdout
# and the --json report modulo meta, which every leg must write) to a
# run with no arena directory:
#
#   1. Cold start — one run over an empty directory must spill the
#      traces it generates (fileSpills > 0) and load none
#      (fileHits = 0).
#   2. Concurrent cold start — two runs at once over a second empty
#      directory race to spill the same traces. Spill files are
#      published by atomic rename (trace/arena_file.h), so neither run
#      may reject a file it finds there (fileRejects = 0 in both).
#   3. Warm start — a run over the directory step 2 filled must do
#      zero trace generation (genMs = 0, fileSpills = 0,
#      fileHits > 0).
#
# Usage:
#   scripts/check_arena_warmstart.sh <build-bench-dir>
#
# Scale defaults to the smoke scale (MAB_BENCH_SCALE=0.01); override
# via the environment.
set -euo pipefail

bench_dir=${1:?usage: check_arena_warmstart.sh <build-bench-dir>}
b=bench_fig8_singlecore
exe="$bench_dir/$b"
[ -x "$exe" ] || {
    echo "missing binary: $exe" >&2
    exit 1
}

export MAB_BENCH_SCALE=${MAB_BENCH_SCALE:-0.01}
export MAB_BENCH_JOBS=${MAB_BENCH_JOBS:-2}
unset MAB_TRACE_ARENA_DIR

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

source "$(dirname "$0")/sweep_lib.sh" # run_sweep, same_output

# assert_arena <report.json> <check:cold|race|warm>
assert_arena() {
    python3 - "$1" "$2" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    arena = json.load(f)["meta"]["traceArena"]
check = sys.argv[2]
def fail(msg):
    print(f"FAIL {check} start: {msg}: {arena}", file=sys.stderr)
    sys.exit(1)
if not arena["dir"]:
    fail("meta.traceArena.dir is empty")
if arena["fileRejects"] != 0:
    fail("no run here may reject a spill file")
if check == "cold":
    if arena["fileSpills"] == 0:
        fail("a cold run must spill its traces")
    if arena["fileHits"] != 0:
        fail("a cold run cannot hit spill files")
elif check == "warm":
    if arena["fileHits"] == 0:
        fail("a warm run must load spilled traces")
    if arena["fileSpills"] != 0:
        fail("a warm run must not regenerate anything")
    if arena["genMs"] != 0:
        fail("a warm run must spend zero time generating")
print(f"OK   {check} start: spills={arena['fileSpills']}"
      f" hits={arena['fileHits']} rejects={arena['fileRejects']}"
      f" genMs={arena['genMs']}")
PY
}

fail=0

# check_leg <leg> <check>: the leg against the dirless base run.
check_leg() {
    same_output "$b" "$tmp/base" "$tmp/$1" "($1 vs no arena directory)" ||
        fail=1
    assert_arena "$tmp/$1.json" "$2" || fail=1
}

echo "== base: no arena directory =="
run_sweep "$exe" "$b" "$tmp/base"

echo "== 1. cold start over an empty directory =="
mkdir "$tmp/dir1"
run_sweep "$exe" "$b" "$tmp/cold" MAB_TRACE_ARENA_DIR="$tmp/dir1"
check_leg cold cold

echo "== 2. two concurrent cold starts over one empty directory =="
mkdir "$tmp/dir2"
pids=()
for r in a b; do
    run_sweep "$exe" "$b" "$tmp/race-$r" MAB_TRACE_ARENA_DIR="$tmp/dir2" &
    pids+=($!)
done
for p in "${pids[@]}"; do
    if ! wait "$p"; then
        echo "FAIL a concurrent cold run exited nonzero" >&2
        tail -5 "$tmp"/race-*.txt >&2 || true
        exit 1
    fi
done
check_leg race-a race
check_leg race-b race

echo "== 3. warm start over the directory step 2 filled =="
run_sweep "$exe" "$b" "$tmp/warm" MAB_TRACE_ARENA_DIR="$tmp/dir2"
check_leg warm warm

if [ "$fail" -ne 0 ]; then
    echo "arena warm-start check FAILED" >&2
    exit 1
fi
echo "arena warm-start check passed"
