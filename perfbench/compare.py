"""Compare two sets of benchmark results, per workload and end-to-end metric.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are directories (or single files) of records written by
``run.py --trace 0 --out FILE``.  For every workload present on both sides
and every end-to-end metric of BENCHMARK.json the table gives each side's
median and quartiles, the share of paired runs the change wins, and a label:

  better      the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's own spread (its interquartile range);
  worse       the change's median is worse than the parent's by more than
              the metric's bound, and the parent's spread is within the
              bound or every change run is worse than every parent run;
  unresolved  neither; the note says "within bound" when the change is no
              worse than the bound allows and the spread is resolved, and
              "spread > bound" when the parent's runs vary by more than it.

Runs are paired by seed when both sides hold the same seeds, otherwise in
seed order.  The exit code is 1 when any metric is worse.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    runs = {}
    for f in files:
        with open(f, encoding="utf-8") as fp:
            rec = json.load(fp)
        if not isinstance(rec, dict) or rec.get("trace") != 0 or "metrics" not in rec:
            continue
        runs.setdefault(rec["workload"], []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(a_runs, b_runs):
    a_by_seed = {r["seed"]: r for r in a_runs}
    b_by_seed = {r["seed"]: r for r in b_runs}
    if set(a_by_seed) == set(b_by_seed):
        return [(a_by_seed[s], b_by_seed[s]) for s in sorted(a_by_seed)]
    return list(zip(a_runs, b_runs))


def judge(metric, a_vals, b_vals, paired):
    """Label one metric; values are oriented so that lower is better."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    a = [sign * v for v in a_vals]
    b = [sign * v for v in b_vals]
    a_q1, a_med, a_q3 = quartiles(a)
    _, b_med, _ = quartiles(b)
    scale = abs(a_med) or 1.0
    spread = (a_q3 - a_q1) / scale
    worse_by = (b_med - a_med) / scale
    wins = sum(1 for pa, pb in paired if sign * pb < sign * pa)
    win_share = wins / len(paired) if paired else 0.0
    bound = metric["bound"]
    if win_share >= 0.9 and a_med - b_med > a_q3 - a_q1:
        return "better", "", win_share
    if spread > bound and not max(b) < min(a):
        if worse_by > bound and min(b) > max(a):
            return "worse", f"worse by {100 * worse_by:.1f}%", win_share
        return "unresolved", "spread > bound", win_share
    if worse_by > bound:
        return "worse", f"worse by {100 * worse_by:.1f}%", win_share
    return "unresolved", "within bound", win_share


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        metrics = json.load(fp)["end_to_end"]
    parent, change = load(args.parent), load(args.change)
    common = [w for w in parent if w in change]
    if not common:
        sys.stderr.write("error: no workload has trace-0 results on both sides\n")
        return 2
    any_worse = False
    header = f"{'workload':<10} {'metric':<12} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'wins':>5}  label"
    print(header)
    for w in common:
        paired_runs = pairs(parent[w], change[w])
        for m in metrics:
            name = m["name"]
            a_vals = [r["metrics"][name]["value"] for r in parent[w]]
            b_vals = [r["metrics"][name]["value"] for r in change[w]]
            paired = [(ra["metrics"][name]["value"], rb["metrics"][name]["value"]) for ra, rb in paired_runs]
            label, note, win_share = judge(m, a_vals, b_vals, paired)
            any_worse |= label == "worse"
            qa = "/".join(f"{v:.4g}" for v in quartiles(a_vals))
            qb = "/".join(f"{v:.4g}" for v in quartiles(b_vals))
            unit = m["unit"]
            print(
                f"{w:<10} {name:<12} {qa + ' ' + unit:>32} {qb + ' ' + unit:>32} "
                f"{100 * win_share:>4.0f}%  {label}" + (f" ({note})" if note else "")
            )
        print(f"{'':<10} runs: parent {len(parent[w])}, change {len(change[w])}, pairs {len(paired_runs)}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
