#!/usr/bin/env python3
"""Compares two result sets written by `run.py --set`.

    python3 bench_suite/compare.py BASE.json NEW.json

For every workload and end-to-end metric of BENCHMARK.json it prints each
set's median and quartiles over its runs, and NEW's change against BASE in
the metric's worse direction. A change worse than the metric's bound is a
breach, unless the quartile spread of either set is wider than the bound:
then the metric is unresolved (noise hides the change) and only reported.
Simulated results must be identical: every run of the same workload and
seed must carry the same exact values (rounds, request outcomes,
fingerprints) in both sets, and every run must have passed its checks.
Traced sets are compared by per-layer medians only.

Exits 1 on a breach, 0 otherwise.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def by_workload(runs, name):
    out = {}
    for r in runs:
        if name in r["result"]["metrics"]:
            out.setdefault(r["workload"], []).append(
                r["result"]["metrics"][name]["value"])
    return out


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = []
    for path in sys.argv[1:]:
        with open(path) as f:
            sets.append(json.load(f))
    base, new = sets
    breach = False

    for label, s in (("base", base), ("new", new)):
        print("%s: %s, %d runs, machine %s" %
              (label, sys.argv[1 if label == "base" else 2], len(s["runs"]),
               s.get("machine")))
        for r in s["runs"]:
            if not r["correct"]:
                breach = True
                print("FAILED CHECKS %s seed %d: %s" %
                      (r["workload"], r["seed"], r["failures"]))

    exact = {(r["workload"], r["seed"]): r["exact"] for r in base["runs"]}
    for r in new["runs"]:
        key = (r["workload"], r["seed"])
        if key in exact and exact[key] != r["exact"]:
            breach = True
            diff = sorted(k for k in set(exact[key]) | set(r["exact"])
                          if exact[key].get(k) != r["exact"].get(k))
            print("EXACT MISMATCH %s seed %d: %s" % (key[0], key[1], diff))

    traced = base.get("trace") or new.get("trace")
    metrics = spec["per_layer"] if traced else spec["end_to_end"]
    print("\n%-18s %-28s %12s %12s %8s %8s %8s  %s" %
          ("workload", "metric", "base_med", "new_med", "worse",
           "spread_b", "spread_n", "verdict"))
    for m in metrics:
        a_all, b_all = by_workload(base["runs"], m["name"]), by_workload(
            new["runs"], m["name"])
        for w in sorted(set(a_all) & set(b_all)):
            a, b = a_all[w], b_all[w]
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (bm - am) / am if am else 0.0
            sa = (a3 - a1) / am if am else 0.0
            sb = (b3 - b1) / bm if bm else 0.0
            verdict = ""
            if "bound" in m:
                bound = m["bound"]
                b_wins = all(sign * (y - x) < 0 for x in a for y in b)
                if max(sa, sb) > bound and not b_wins:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "BREACH (bound %.2f)" % bound
                    breach = True
                else:
                    verdict = "ok (bound %.2f)" % bound
            print("%-18s %-28s %12.5g %12.5g %+8.3f %8.3f %8.3f  %s" %
                  (w, m["name"], am, bm, worse, sa, sb, verdict))
    return 1 if breach else 0


if __name__ == "__main__":
    sys.exit(main())
