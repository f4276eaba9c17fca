"""Compare two sets of benchmark results, workload by workload and metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result records written by run.py (perfbench/results/
after a series of runs; copy it away between commits).  For each workload,
each metric, and traced and untraced runs separately, this prints both sides'
median and quartiles, the pairs won by each side, and a verdict:

* better: the new side wins at least 9/10 of the pairs, ties counting for
  neither, and the medians differ by more than the base side's interquartile
  distance; or every new run beats every base run.
* worse: the same with the sides swapped; or, for an end-to-end metric, the
  new median is worse than the base median by more than the metric's bound
  in BENCHMARK.json while the base side's spread is within that bound.
* unresolved: anything else.

Runs are paired by seed where both sides ran the seed, in run order
otherwise.  Fewer than ten pairs are flagged.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """{(workload, trace): {metric: [(seed, value), ...]}} in run order."""
    out = {}
    records = []
    for path in glob.glob(os.path.join(directory, "**", "*.json"), recursive=True):
        with open(path) as fh:
            rec = json.load(fh)
        if "metrics" in rec and "workload" in rec:
            records.append(rec)
    records.sort(key=lambda r: r.get("time_utc", ""))
    for rec in records:
        by_metric = out.setdefault((rec["workload"], rec["trace"]), {})
        for name, m in rec["metrics"].items():
            by_metric.setdefault(name, []).append((rec["seed"], m["value"]))
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base, new):
    base_by_seed = {}
    for seed, v in base:
        base_by_seed.setdefault(seed, []).append(v)
    paired = []
    for seed, v in new:
        if base_by_seed.get(seed):
            paired.append((base_by_seed[seed].pop(0), v))
    if paired:
        return paired
    return list(zip([v for _, v in base], [v for _, v in new]))


def verdict(base, new, better, bound):
    """(verdict, new wins, base wins, pair count) under the rule in the module doc."""
    def gain(b, n):          # > 0 when n is better than b
        return (b - n) if better == "lower" else (n - b)

    bvals, nvals = [v for _, v in base], [v for _, v in new]
    q1, bmed, q3 = quartiles(bvals)
    nmed = statistics.median(nvals)
    iqr = q3 - q1
    ps = pairs(base, new)
    new_wins = sum(gain(b, n) > 0 for b, n in ps)
    base_wins = sum(gain(b, n) < 0 for b, n in ps)
    delta = gain(bmed, nmed)
    if all(gain(b, n) > 0 for b in bvals for n in nvals):
        return "better", new_wins, base_wins, len(ps)
    if all(gain(b, n) < 0 for b in bvals for n in nvals):
        return "worse", new_wins, base_wins, len(ps)
    if ps and new_wins >= 0.9 * len(ps) and delta > iqr:
        return "better", new_wins, base_wins, len(ps)
    if ps and base_wins >= 0.9 * len(ps) and -delta > iqr:
        return "worse", new_wins, base_wins, len(ps)
    if bound is not None and bmed and iqr / abs(bmed) <= bound and -delta > bound * abs(bmed):
        return "worse", new_wins, base_wins, len(ps)
    return "unresolved", new_wins, base_wins, len(ps)


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = load(argv[1]), load(argv[2])
    print("%-11s %-28s %-6s %-32s %-32s %-9s %s"
          % ("workload", "metric", "unit", "base median [q1, q3] n", "new median [q1, q3] n",
             "wins n/b", "verdict"))
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        for name in specs:
            if name not in base[key] or name not in new[key]:
                continue
            spec = specs[name]
            b, n = base[key][name], new[key][name]
            word, nw, bw, npairs = verdict(b, n, spec["better"], spec.get("bound"))
            cols = []
            for side in (b, n):
                q1, med, q3 = quartiles([v for _, v in side])
                cols.append("%.4g [%.4g, %.4g] %d" % (med, q1, q3, len(side)))
            flag = "" if npairs >= 10 else "  (only %d pairs)" % npairs
            print("%-11s %-28s %-6s %-32s %-32s %-9s %s%s"
                  % (workload, name, spec["unit"], cols[0], cols[1], "%d/%d" % (nw, bw),
                     word, flag))
    missing = sorted(set(base) ^ set(new))
    if missing:
        print("only on one side: %s" % ", ".join("%s trace=%d" % k for k in missing))


if __name__ == "__main__":
    main(sys.argv)
