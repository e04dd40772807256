#!/usr/bin/env python3
"""A/A and parent/change comparisons of benchmark runs.

    python3 perfbench/compare.py aa --workload pf_single [--runs 10]
    python3 perfbench/compare.py ab --parent DIR --change DIR [--pairs 10]

Both commands call perfbench/run.py (untraced) once per run, on seed k
for the k-th pair, alternating which side of a pair runs first. Every
run is printed to stderr as it finishes.

aa runs two interleaved sets of this checkout and reports, per workload
and end-to-end metric, each set's median and quartiles. The sets agree
when their medians are within the metric's bound of each other and
each set's spread (quartile distance over median) is within the bound
as well. The simulated outputs (the digest run.py prints) must also be
identical for each seed. Exit code 1 if anything disagrees.

ab runs pairs of a parent checkout and a change checkout and prints one
row per workload, with a verdict per end-to-end metric:

    gain        at least 10 pairs ran, the change wins at least 9 in
                10 of them (ties count for neither), and the medians
                differ by more than the distance between the parent's
                quartiles
    unresolved  the parent's spread is wider than the bound, and not
                every change run beats every parent run
    worse       the change's median is worse than the parent's by more
                than the bound
    same        otherwise

A workload whose change runs fail more cells than the parent's is
marked FAILED. Exit code 1 if any metric is worse or any workload
failed. Bounds and directions come from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = SPEC["end_to_end"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Fewer pairs than this can never support a gain claim.
MIN_GAIN_PAIRS = 10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_one(checkout, label, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{label}: run.py failed in {checkout}:\n"
                         f"{proc.stderr.strip()[-800:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next((l.split()[1] for l in lines
                             if l.startswith("digest ")), None)
    log(f"{label:6s} {workload:12s} seed {seed:3d} "
        f"failed {result['failed']}/{result['attempted']} " +
        " ".join(f"{k}={v['value']:.6g}"
                 for k, v in result["metrics"].items()))
    return result


def run_pairs(sides, workload, pairs, seconds):
    """sides: [(label, checkout), (label, checkout)] -> {label: [runs]}."""
    runs = {label: [] for label, _ in sides}
    for k in range(pairs):
        order = sides if k % 2 == 0 else sides[::-1]
        for label, checkout in order:
            runs[label].append(
                run_one(checkout, label, workload, k + 1, seconds))
    return runs


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / med if med else float("inf")


def better(metric, a, b):
    """True when value a is strictly better than value b."""
    return a < b if metric["better"] == "lower" else a > b


def worse_share(metric, parent, change):
    """How much worse change is than parent, as a share of parent."""
    rel = change / parent - 1.0 if parent else 0.0
    return rel if metric["better"] == "lower" else -rel


def describe(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def cmd_aa(args):
    ok = True
    for workload in args.workload or WORKLOADS:
        runs = run_pairs([("A", ROOT), ("B", ROOT)], workload, args.runs,
                         args.seconds)
        same = all(a["digest"] == b["digest"]
                   for a, b in zip(runs["A"], runs["B"]))
        ok = ok and same
        print(f"{workload}: {args.runs} interleaved runs per set; "
              f"simulated outputs {'identical' if same else 'DIFFER'} "
              "per seed")
        for m in METRICS:
            a, b = values(runs["A"], m["name"]), values(runs["B"], m["name"])
            qa, qb = quartiles(a), quartiles(b)
            diff = abs(qb[1] / qa[1] - 1.0) if qa[1] else float("inf")
            agree = (diff <= m["bound"] and
                     max(spread(a), spread(b)) <= m["bound"])
            ok = ok and agree
            print(f"  {m['name']:16s} A {describe(qa)}  B {describe(qb)}  "
                  f"spread {spread(a):.3f}/{spread(b):.3f}  "
                  f"diff {diff:.2%}  bound {m['bound']:.2f}  "
                  f"{'agree' if agree else 'DISAGREE'}")
    print("A/A:", "sets agree within the bounds" if ok else "sets DISAGREE")
    return 0 if ok else 1


def verdict(metric, parent, change):
    pairs = len(parent)
    wins = sum(better(metric, c, p) for p, c in zip(parent, change))
    q1, pmed, q3 = quartiles(parent)
    cmed = statistics.median(change)
    if (pairs >= MIN_GAIN_PAIRS and wins >= 0.9 * pairs and
            abs(cmed - pmed) > q3 - q1):
        return "gain"
    if spread(parent) > metric["bound"] and not all(
            better(metric, c, p) for c in change for p in parent):
        return "unresolved"
    if worse_share(metric, pmed, cmed) > metric["bound"]:
        return "worse"
    return "same"


def cmd_ab(args):
    bad = False
    rows = []
    for workload in args.workload or WORKLOADS:
        runs = run_pairs([("parent", args.parent), ("change", args.change)],
                         workload, args.pairs, args.seconds)
        failed_p = sum(r["failed"] for r in runs["parent"])
        failed_c = sum(r["failed"] for r in runs["change"])
        cells = []
        for m in METRICS:
            p = values(runs["parent"], m["name"])
            c = values(runs["change"], m["name"])
            v = verdict(m, p, c)
            bad = bad or v == "worse"
            rel = statistics.median(c) / statistics.median(p) - 1.0
            cells.append(f"{m['name']} {v} {rel:+.1%}")
        status = "FAILED" if failed_c > failed_p else "ok"
        bad = bad or status == "FAILED"
        rows.append(f"{workload:14s} {status:6s} " + " | ".join(cells))
    print(f"parent {args.parent}  change {args.change}  "
          f"{args.pairs} pairs per workload")
    print("\n".join(rows))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    aa = sub.add_parser("aa", help="two interleaved sets of this checkout")
    aa.add_argument("--runs", type=int, default=10)
    ab = sub.add_parser("ab", help="parent checkout vs change checkout")
    ab.add_argument("--parent", required=True)
    ab.add_argument("--change", required=True)
    ab.add_argument("--pairs", type=int, default=10)
    for p in (aa, ab):
        p.add_argument("--workload", action="append", choices=WORKLOADS,
                       help="repeatable; default: every workload")
        p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = ap.parse_args()
    return cmd_aa(args) if args.cmd == "aa" else cmd_ab(args)


if __name__ == "__main__":
    sys.exit(main())
