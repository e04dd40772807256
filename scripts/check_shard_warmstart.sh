#!/usr/bin/env bash
# Shard-fabric functional gate: independently-launched workers (the CI
# matrix mode) and warm starts from a persistent trace-arena
# directory.
#
# Three checks on bench_fig8_singlecore:
#
#   1. Matrix merge — three worker processes launched by hand (not by
#      the driver) over one MAB_TRACE_ARENA_DIR, each writing a
#      partial with `--shards 3 --shard-id K --json`, then a fourth
#      run merging with `--merge-reports`: stdout and the --json
#      report (modulo meta) must be byte-identical to an unsharded
#      run.
#   2. Cold start — the first run against an empty arena directory
#      must spill every trace it generates (fileSpills > 0,
#      fileHits = 0) and still match the dirless run byte-for-byte.
#   3. Warm start — the second run over the same directory must do
#      ZERO trace generation (genMs = 0, fileSpills = 0,
#      fileHits > 0) and again match byte-for-byte.
#
# Usage:
#   scripts/check_shard_warmstart.sh <build-bench-dir>
#
# Scale defaults to the smoke scale (MAB_BENCH_SCALE=0.01); override
# via the environment.
set -euo pipefail

bench_dir=${1:?usage: check_shard_warmstart.sh <build-bench-dir>}
exe="$bench_dir/bench_fig8_singlecore"
[ -x "$exe" ] || {
    echo "missing binary: $exe" >&2
    exit 1
}

export MAB_BENCH_SCALE=${MAB_BENCH_SCALE:-0.01}
export MAB_BENCH_JOBS=${MAB_BENCH_JOBS:-2}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

source "$(dirname "$0")/sweep_lib.sh" # strip_meta

# assert_arena <report.json> <mode:cold|warm>
assert_arena() {
    python3 - "$1" "$2" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    arena = json.load(f)["meta"]["traceArena"]
mode = sys.argv[2]
def fail(msg):
    print(f"FAIL {mode} start: {msg}: {arena}", file=sys.stderr)
    sys.exit(1)
if not arena["dir"]:
    fail("meta.traceArena.dir is empty")
if mode == "cold":
    if arena["fileSpills"] == 0:
        fail("a cold run must spill its traces")
    if arena["fileHits"] != 0:
        fail("a cold run cannot hit spill files")
else:
    if arena["fileHits"] == 0:
        fail("a warm run must load spilled traces")
    if arena["fileSpills"] != 0:
        fail("a warm run must not regenerate anything")
    if arena["genMs"] != 0:
        fail("a warm run must spend zero time generating")
if arena["fileRejects"] != 0:
    fail("no run here may reject a spill file")
print(f"OK   {mode} start: spills={arena['fileSpills']}"
      f" hits={arena['fileHits']} genMs={arena['genMs']}")
EOF
}

echo "== base: unsharded, no arena directory =="
"$exe" --json "$tmp/base.json" >"$tmp/base.txt" 2>&1
sed -i "s#$tmp/base\.json#<json>#" "$tmp/base.txt"
strip_meta "$tmp/base.json" "$tmp/base.stripped.json"

fail=0

echo "== 1. matrix-mode workers + --merge-reports =="
arena="$tmp/arena"
mkdir -p "$arena"
pids=()
for k in 0 1 2; do
    MAB_TRACE_ARENA_DIR=$arena "$exe" --shards 3 --shard-id "$k" \
        --json "$tmp/part-$k.json" >"$tmp/worker-$k.log" 2>&1 &
    pids+=($!)
done
for k in 0 1 2; do
    if ! wait "${pids[$k]}"; then
        echo "FAIL worker $k exited nonzero:" >&2
        tail -5 "$tmp/worker-$k.log" >&2
        exit 1
    fi
done
"$exe" --merge-reports "$tmp/part-0.json,$tmp/part-1.json,$tmp/part-2.json" \
    --json "$tmp/merged.json" >"$tmp/merged.txt" 2>&1
sed -i "s#$tmp/merged\.json#<json>#" "$tmp/merged.txt"
strip_meta "$tmp/merged.json" "$tmp/merged.stripped.json"
if ! cmp -s "$tmp/base.txt" "$tmp/merged.txt"; then
    echo "FAIL merged stdout differs from unsharded:" >&2
    diff "$tmp/base.txt" "$tmp/merged.txt" | head -20 >&2 || true
    fail=1
fi
if ! cmp -s "$tmp/base.stripped.json" "$tmp/merged.stripped.json"; then
    echo "FAIL merged --json differs from unsharded (modulo meta):" >&2
    diff "$tmp/base.stripped.json" "$tmp/merged.stripped.json" \
        | head -20 >&2 || true
    fail=1
fi
[ "$fail" -eq 0 ] && echo "OK   merge is byte-identical to unsharded"

echo "== 2/3. cold then warm start over one arena directory =="
dir="$tmp/persist"
mkdir -p "$dir"
for mode in cold warm; do
    MAB_TRACE_ARENA_DIR=$dir "$exe" --json "$tmp/$mode.json" \
        >"$tmp/$mode.txt" 2>&1
    sed -i "s#$tmp/$mode\.json#<json>#" "$tmp/$mode.txt"
    strip_meta "$tmp/$mode.json" "$tmp/$mode.stripped.json"
    if ! cmp -s "$tmp/base.txt" "$tmp/$mode.txt"; then
        echo "FAIL $mode-start stdout differs from dirless run:" >&2
        diff "$tmp/base.txt" "$tmp/$mode.txt" | head -20 >&2 || true
        fail=1
    fi
    if ! cmp -s "$tmp/base.stripped.json" "$tmp/$mode.stripped.json"; then
        echo "FAIL $mode-start --json differs (modulo meta)" >&2
        fail=1
    fi
    assert_arena "$tmp/$mode.json" "$mode" || fail=1
done

if [ "$fail" -ne 0 ]; then
    echo "shard warm-start check FAILED" >&2
    exit 1
fi
echo "shard warm-start check passed"
