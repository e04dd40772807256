#!/usr/bin/env bash
# Cross-build identity gate: a sweep must print the same results when
# built from two source trees, such as a parent commit and a change
# that claims to be output-neutral (a kernel rewrite, a deletion).
#
# For each sweep binary this runs <ref-bench-dir>/<bench> and
# <new-bench-dir>/<bench> under the same environment and asserts that
#
#   1. stdout is byte-identical, and
#   2. the --json reports are byte-identical after dropping the
#      top-level "meta" block (run-local facts: wall-clock samples,
#      the command line, arena counters). The new build must write a
#      report; when the reference build wrote none (it predates the
#      sweep's report), NEW REPORT is printed and stdout alone is
#      compared.
#
# Usage:
#   scripts/check_build_identity.sh <ref-bench-dir> <new-bench-dir> [bench...]
#
# With no [bench...] arguments, every bench-smoke sweep from
# bench/CMakeLists.txt is checked. Scale defaults to the smoke scale
# (MAB_BENCH_SCALE=0.01) and jobs to 1 (MAB_BENCH_JOBS); override
# either via the environment.
set -euo pipefail

usage="usage: check_build_identity.sh <ref-bench-dir> <new-bench-dir> [bench...]"
ref_dir=${1:?$usage}
new_dir=${2:?$usage}
shift 2

source "$(dirname "$0")/sweep_lib.sh"

benches=("$@")
if [ ${#benches[@]} -eq 0 ]; then
    benches=("${MAB_SWEEPS[@]}")
fi

export MAB_BENCH_SCALE=${MAB_BENCH_SCALE:-0.01}
export MAB_BENCH_JOBS=${MAB_BENCH_JOBS:-1}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail=0
for b in "${benches[@]}"; do
    missing=0
    for dir in "$ref_dir" "$new_dir"; do
        if [ ! -x "$dir/$b" ]; then
            echo "MISSING  $b (not built at $dir/$b)" >&2
            missing=1
        fi
    done
    if [ "$missing" -ne 0 ]; then
        fail=1
        continue
    fi
    run_sweep "$ref_dir/$b" "$b" "$tmp/$b.ref"
    run_sweep "$new_dir/$b" "$b" "$tmp/$b.new"
    if same_output "$b" "$tmp/$b.ref" "$tmp/$b.new" \
        "between builds (scale $MAB_BENCH_SCALE)"; then
        echo "IDENTICAL  $b (scale $MAB_BENCH_SCALE," \
            "jobs $MAB_BENCH_JOBS)"
    else
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "build identity check FAILED" >&2
    exit 1
fi
echo "build identity check passed: ${#benches[@]} sweep(s)," \
    "scale $MAB_BENCH_SCALE"
