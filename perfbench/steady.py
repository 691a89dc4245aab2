#!/usr/bin/env python3
"""Steadiness check: runs every workload of BENCHMARK.json in two (or more)
sets of N runs, each run with its own seed, and reports per end-to-end metric
the median, quartiles and spread of each set and the gap between the sets'
medians. It checks both against the bounds in BENCHMARK.json and proposes
bounds from what it measured.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--seconds S]
                                [--first-seed N]

Run from the root of a checkout. Results go to perfbench/out/steady.json.
The spread is (q3 - q1) / median with quartiles from
statistics.quantiles(values, n=4); the gap is how much worse the last set's
median is than the first set's, as a share of the first.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MAX_BOUND = 0.25


def cpu_times():
    """The machine-wide cpu line of /proc/stat, or None where there is none."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def run_once(workload, seed, seconds):
    before = cpu_times()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit("run failed (%s seed %d):\n%s" % (workload, seed, proc.stderr[-2000:]))
    # A run with a wrong answer prints its result and exits 1.
    result["correct"] = result["correct"] and proc.returncode == 0
    after = cpu_times()
    # Share of the machine's CPU time the hypervisor stole during the run
    # (field 8 of the cpu line): wall-clock figures move with it.
    if before and after and len(after) > 7 and sum(after) > sum(before):
        result["steal_share"] = (after[7] - before[7]) / (sum(after) - sum(before))
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def propose_bound(unit, spread, gap):
    """Three times the spread, or twice the gap, whichever is larger, rounded
    up to a hundredth: counts get a floor of 0.02, timings of 0.05."""
    floor = 0.02 if unit == "count" else 0.05
    return min(MAX_BOUND, max(floor, math.ceil(100 * max(3 * spread, 2 * gap)) / 100))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    spec = {m["name"]: m for m in bench["end_to_end"]}

    # Workloads interleave inside each set, so slow drift of the machine
    # lands on every workload alike.
    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    seed = args.first_seed
    for s in range(args.sets):
        for _ in range(args.runs):
            for w in workloads:
                r = run_once(w, seed, args.seconds)
                results[w][s].append(r)
                print("set %d %s seed %d: correct=%s attempted=%d failed=%d steal=%.1f%%" %
                      (s + 1, w, seed, r["correct"], r["attempted"], r["failed"],
                       100 * r.get("steal_share", 0.0)), file=sys.stderr)
            seed += 1

    report = {}
    proposed = {name: 0.0 for name in spec}
    ok = True
    for w in workloads:
        sets = results[w]
        shares = sorted({r["failed"] / r["attempted"] for runs in sets for r in runs})
        correct = all(r["correct"] for runs in sets for r in runs)
        rows = {}
        steal = ["%.1f%%" % (100 * statistics.median(r.get("steal_share", 0.0) for r in runs))
                 for runs in sets]
        print("\n%s  (failed share per run: %s; all correct: %s; median host steal per set: %s)" %
              (w, ", ".join("%.6f" % x for x in shares), correct, ", ".join(steal)))
        print("  %-28s %-30s %-30s %7s %7s %7s %5s %8s %s" %
              ("metric", "set 1: median [q1, q3]", "set 2: median [q1, q3]", "spread1",
               "spread2", "gap", "bound", "proposed", "verdict"))
        for name, m in spec.items():
            per_set = [summarize([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            first, last = per_set[0]["median"], per_set[-1]["median"]
            if m["better"] == "lower":
                gap = (last - first) / first if first else 0.0
            else:
                gap = (first - last) / first if first else 0.0
            spread = max(p["spread"] for p in per_set)
            bound = m["bound"]
            good = gap <= bound and spread <= bound
            ok = ok and good
            verdict = "ok" if good else "OUT OF BOUND"
            if good and spread > bound / 3:
                verdict = "ok (spread above a third of the bound)"
            mine = propose_bound(m["unit"], spread, max(gap, 0))
            proposed[name] = max(proposed[name], mine)
            rows[name] = {"sets": per_set, "gap": gap, "proposed_bound": mine}
            quart = ["%.5g [%.5g, %.5g]" % (p["median"], p["q1"], p["q3"]) for p in per_set]
            print("  %-28s %-30s %-30s %7.4f %7.4f %7.4f %5s %8s %s" %
                  (name, quart[0], quart[-1], per_set[0]["spread"], per_set[-1]["spread"], gap,
                   bound, mine, verdict))
        ok = ok and correct and len(shares) == 1
        report[w] = {"metrics": rows, "failed_shares": shares, "correct": correct,
                     "runs": sets}
    # One bound per metric serves every workload; setup_s, one cold set-up
    # per run, carries the largest.
    if "setup_s" in proposed:
        proposed["setup_s"] = max(proposed.values())
    print("\nproposed bounds (largest over the workloads): %s" %
          ", ".join("%s %.2f" % kv for kv in proposed.items()))
    report["proposed_bounds"] = proposed
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steady.json"), "w") as f:
        json.dump(report, f, indent=1)
    print("steady: %s" % ("all metrics within their bounds" if ok else "NOT STEADY"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
