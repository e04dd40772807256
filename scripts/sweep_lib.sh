# Shared helpers of the sweep identity scripts (check_arena_identity.sh,
# check_build_identity.sh, check_arena_warmstart.sh). Source it; it
# defines:
#
#   MAB_SWEEPS          every bench-smoke sweep binary of
#                       bench/CMakeLists.txt
#   strip_meta <in> <out>
#                       the report without its run-local "meta" block
#   run_sweep <exe> <b> <prefix> [VAR=VAL...]
#                       one run of sweep <b> from binary <exe> with
#                       --json, under the environment overrides: stdout
#                       in <prefix>.txt (minus the "json report written"
#                       line), the report in <prefix>.json and minus
#                       meta in <prefix>.stripped.json
#   same_output <b> <prefix-a> <prefix-b> <what>
#                       compare two runs of sweep <b>: stdout and the
#                       reports minus meta. A report missing on side b
#                       fails; one missing only on side a (a reference
#                       build from before every sweep wrote one) prints
#                       NEW REPORT and compares stdout only. Prints the
#                       first lines of any difference and returns 1

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
    rm -f "$out.json" "$out.stripped.json"
    env "$@" "$exe" --json "$out.json" >"$out.txt" 2>&1
    # The report path is run-local; drop its line so stdout compares
    # clean while the reports are diffed separately.
    sed -i "\\#^json report written to $out\\.json\$#d" "$out.txt"
    if [ -f "$out.json" ]; then
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
    if [ ! -f "$y.json" ]; then
        echo "MISSING  $b: no --json report $what" >&2
        same=1
    elif [ ! -f "$x.json" ]; then
        echo "NEW REPORT $b"
    elif ! cmp -s "$x.stripped.json" "$y.stripped.json"; then
        echo "DIFF     $b: --json report differs $what (modulo meta)" >&2
        diff "$x.stripped.json" "$y.stripped.json" | head -20 >&2 || true
        same=1
    fi
    return $same
}
