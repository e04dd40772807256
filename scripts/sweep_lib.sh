# Shared helpers of the sweep identity scripts (check_arena_identity.sh,
# check_build_identity.sh, check_shard_warmstart.sh). Source it; it
# defines:
#
#   MAB_SWEEPS          every bench-smoke sweep binary of
#                       bench/CMakeLists.txt
#   json_capable <b>    true when sweep <b> writes a --json report
#   strip_meta <in> <out>
#                       the report without its run-local "meta" block
#   run_sweep <exe> <b> <prefix> [VAR=VAL...]
#                       one run of sweep <b> from binary <exe> under the
#                       environment overrides: output in <prefix>.txt,
#                       the report minus meta in <prefix>.stripped.json
#   same_output <b> <prefix-a> <prefix-b> <what>
#                       compare two runs of sweep <b>; print the first
#                       lines of any difference and return 1

MAB_SWEEPS=(
    bench_fig2_pythia_actions bench_fig5_pg_policy_space
    bench_fig7_exploration bench_fig8_singlecore
    bench_fig9_timeliness bench_fig10_bandwidth
    bench_fig11_altcache bench_fig12_multilevel
    bench_fig13_smt_scurve bench_fig14_fourcore
    bench_fig15_rename bench_table8_prefetch_algos
    bench_table9_smt_algos bench_ablation_hparams
    bench_ablation_normalization bench_ablation_rrrestart
    bench_ablation_step bench_ext_algorithms bench_ext_joint
    bench_drift_scurve
)

# Binaries whose writeJsonReport() path is wired up (grep
# writeJsonReport bench/*.cc to regenerate this list).
json_capable() {
    case "$1" in
    bench_fig8_singlecore | bench_fig9_timeliness | \
        bench_table8_prefetch_algos | bench_table9_smt_algos | \
        bench_drift_scurve)
        return 0
        ;;
    esac
    return 1
}

strip_meta() {
    python3 - "$1" "$2" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
doc.pop("meta", None)
with open(sys.argv[2], "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
EOF
}

run_sweep() {
    local exe=$1 b=$2 out=$3
    shift 3
    local json_args=()
    if json_capable "$b"; then
        json_args=(--json "$out.json")
    fi
    env "$@" "$exe" "${json_args[@]}" >"$out.txt" 2>&1
    # The json-report path is printed; mask it so stdout compares clean
    # while the reports are diffed separately.
    sed -i "s#$out\.json#<json>#" "$out.txt"
    # The batch-footprint advisory on stderr reads the *host's* cache
    # size — run-local by design, like meta; drop it before diffing.
    sed -i '/^lockstep: --batch/d' "$out.txt"
    if json_capable "$b"; then
        strip_meta "$out.json" "$out.stripped.json"
    fi
}

same_output() {
    local b=$1 x=$2 y=$3 what=$4 same=0
    if ! cmp -s "$x.txt" "$y.txt"; then
        echo "DIFF     $b: stdout differs $what" >&2
        diff "$x.txt" "$y.txt" | head -20 >&2 || true
        same=1
    fi
    if json_capable "$b" &&
        ! cmp -s "$x.stripped.json" "$y.stripped.json"; then
        echo "DIFF     $b: --json report differs $what (modulo meta)" >&2
        diff "$x.stripped.json" "$y.stripped.json" | head -20 >&2 || true
        same=1
    fi
    return $same
}
