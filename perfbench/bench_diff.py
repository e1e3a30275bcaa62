#!/usr/bin/env python3
"""Compare two sets of perfbench results, workload by workload.

    python3 perfbench/bench_diff.py <base> <new> [--benchmark BENCHMARK.json]

<base> and <new> are directories of results saved by perfbench/run.py (its
<build dir>/perfbench-results/ tree, copied aside per commit). For every
workload x metric it prints each side's run count, median and quartiles
(statistics.quantiles, n=4), the relative change of the medians, and a
verdict for end-to-end metrics, judged against the metric's bound in
BENCHMARK.json:

  unresolved  the run-to-run spread (quartile distance / median) of either
              side exceeds the bound, and not every new run reads better
              than every base run
  worse       the new median is worse than the base median by more than
              the bound
  better      the new median is better by more than the base side's own
              spread, and the new run wins at least 9 in 10 of all
              (new, base) run pairs
  same        anything else

Per-layer metrics have no bound and get the verdict "info". Exits 1 when
any end-to-end metric is worse, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_runs(directory):
    """Every correct result file under `directory`, as dicts with workload,
    trace (bool), seed and metrics (name -> value)."""
    runs = []
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            record = json.loads(path.read_text())
            stamp, result = record["stamp"], record["result"]
        except (ValueError, KeyError, TypeError):
            continue
        if not result.get("correct"):
            continue
        runs.append({
            "workload": stamp["workload"],
            "trace": bool(stamp["trace"]),
            "seed": stamp["seed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        })
    return runs


def summarize(values):
    """(median, first quartile, third quartile) of the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values):
    median, q1, q3 = summarize(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base, new, bound, better):
    """Judge one end-to-end metric; `better` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = summarize(base)[0]
    new_median = summarize(new)[0]
    worse_by = sign * (new_median - base_median) / abs(base_median) if base_median else 0.0
    separated = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if max(spread(base), spread(new)) > bound and not separated:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(1 for n in new for b in base if sign * (n - b) < 0)
    if -worse_by > spread(base) and wins >= 0.9 * len(new) * len(base):
        return "better"
    return "same"


def compare(base_runs, new_runs, benchmark):
    """Rows of (workload, metric, unit, base values, new values, change, verdict)."""
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for trace in (False, True):
            base = [r for r in base_runs if r["workload"] == workload and r["trace"] == trace]
            new = [r for r in new_runs if r["workload"] == workload and r["trace"] == trace]
            if not base or not new:
                continue
            for metric in base[0]["metrics"]:
                base_values = [r["metrics"][metric] for r in base if metric in r["metrics"]]
                new_values = [r["metrics"][metric] for r in new if metric in r["metrics"]]
                if not base_values or not new_values:
                    continue
                base_median = summarize(base_values)[0]
                change = ((summarize(new_values)[0] - base_median) / abs(base_median)
                          if base_median else 0.0)
                if metric in bounds and not trace:
                    judged = verdict(base_values, new_values, bounds[metric]["bound"],
                                     bounds[metric]["better"])
                else:
                    judged = "info"
                rows.append((workload, metric, units.get(metric, ""), base_values,
                             new_values, change, judged))
    return rows


def format_side(values):
    median, q1, q3 = summarize(values)
    return "%d runs %.6g [%.6g, %.6g]" % (len(values), median, q1, q3)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=str(Path(__file__).resolve().parent.parent
                                                   / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    benchmark = json.loads(Path(args.benchmark).read_text())
    rows = compare(load_runs(args.base), load_runs(args.new), benchmark)
    if not rows:
        print("no workload has correct runs on both sides", file=sys.stderr)
        return 2
    print("%-12s %-30s %-6s %-46s %-46s %8s  %s" % (
        "workload", "metric", "unit", "base: median [q1, q3]", "new: median [q1, q3]",
        "change", "verdict"))
    for workload, metric, unit, base, new, change, judged in rows:
        print("%-12s %-30s %-6s %-46s %-46s %+7.1f%%  %s" % (
            workload, metric, unit, format_side(base), format_side(new), 100 * change, judged))
    return 1 if any(row[6] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
