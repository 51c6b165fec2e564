#!/usr/bin/env python3
"""Steadiness report for the simulator benchmark.

Runs every workload --runs times per set, each run with another seed
(101, 102, ...), for --sets sets (the same seeds in every set), and
reports for each end-to-end metric the median, the quartiles, the spread
(Q3 - Q1 as a share of the median) against the metric's bound in
BENCHMARK.json, and how far each later set's median moved from the first
set's. The host probe's median per set is printed beside it: when two sets
disagree and their probes do too, the host was slower, not the program.

The run passes ("steady") when no operation failed, every spread is
within its metric's bound and no later set's median is worse than the
first set's by more than the bound: the rule two sets of runs of the same
code must meet. It also says which spreads are above a third of their
bound, the margin the benchmark aims for; that is reported, not gated.

    python3 simbench/steady.py --runs 10 --sets 2
    python3 simbench/steady.py --runs 5 --sets 1 --workloads fleet-sweep

The report is also written to .bench_build/simbench/steady.json.
"""

import argparse
import json
import os
import statistics
import sys

import run

FIRST_SEED = 101
BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args()

    with open(BENCHMARK) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    run.build()
    report = {}
    ok = True
    wide = []  # spreads above a third of their bound
    for wl in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            reps = [run.run_process(wl, FIRST_SEED + i) for i in range(args.runs)]
            sets.append(reps)
        rows = {}
        for name in run.END_TO_END:
            per_set = []
            for reps in sets:
                vals = [r["metrics"][name]["value"] for r in reps]
                q1, med, q3 = quartiles(vals)
                per_set.append({"values": vals, "q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med})
            first = per_set[0]["median"]
            for p in per_set[1:]:
                p["median_change"] = (p["median"] - first) / first
            rows[name] = {"bound": bounds[name], "sets": per_set}
        probes = [statistics.median(r["host_probe_s"] for r in reps) for reps in sets]
        failed = sum(r["failed"] for reps in sets for r in reps)
        report[wl] = {"metrics": rows, "probe_median_s": probes, "failed_ops": failed}

        print("%s: %d runs x %d sets, %d failed operations, host probe medians %s" % (
            wl, args.runs, args.sets, failed, " ".join("%.3fs" % p for p in probes)))
        print("  %-12s %6s  %s" % ("metric", "bound", "per set: median [Q1, Q3] spread, change vs set 1"))
        for name, row in rows.items():
            cells = []
            for i, p in enumerate(row["sets"]):
                cell = "%.4g [%.4g, %.4g] %.3f" % (p["median"], p["q1"], p["q3"], p["spread"])
                if i > 0:
                    cell += " %+.3f" % p["median_change"]
                cells.append(cell)
                if p["spread"] > row["bound"] or p.get("median_change", 0) > row["bound"]:
                    ok = False
                if p["spread"] > row["bound"] / 3:
                    wide.append("%s %s set %d (%.3f)" % (wl, name, i + 1, p["spread"]))
            print("  %-12s %6.3f  %s" % (name, row["bound"], " | ".join(cells)))
        if failed:
            ok = False
    os.makedirs(run.OUT, exist_ok=True)
    with open(os.path.join(run.OUT, "steady.json"), "w") as f:
        json.dump(report, f, indent=1)
    print("spreads above a third of their bound: %s" % ("; ".join(wide) if wide else "none"))
    print("steady" if ok else "NOT steady: a spread above its bound, a median worse by more than its bound, or a failed operation")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
