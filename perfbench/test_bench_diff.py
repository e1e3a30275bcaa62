"""Tests of perfbench/bench_diff.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_diff  # noqa: E402

BENCHMARK = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "op_trimmed_mean_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "core.evaluations", "unit": "count", "better": "lower"}],
}


def runs(metric, values, trace=False):
    return [{"workload": "w", "trace": trace, "seed": i, "metrics": {metric: v}}
            for i, v in enumerate(values)]


def verdicts(base, new):
    return {row[1]: row[6] for row in bench_diff.compare(base, new, BENCHMARK)}


class VerdictTest(unittest.TestCase):
    def test_same_distribution_is_same(self):
        values = [10.0, 10.1, 9.9, 10.05, 9.95]
        self.assertEqual(verdicts(runs("op_trimmed_mean_ms", values),
                                  runs("op_trimmed_mean_ms", values)),
                         {"op_trimmed_mean_ms": "same"})

    def test_slower_beyond_bound_is_worse(self):
        base = runs("op_trimmed_mean_ms", [10.0, 10.1, 9.9, 10.05, 9.95])
        new = runs("op_trimmed_mean_ms", [12.0, 12.1, 11.9, 12.05, 11.95])
        self.assertEqual(verdicts(base, new), {"op_trimmed_mean_ms": "worse"})

    def test_wide_spread_is_unresolved(self):
        base = runs("op_trimmed_mean_ms", [10.0, 14.0, 7.0, 12.0, 9.0])
        new = runs("op_trimmed_mean_ms", [11.0, 15.0, 8.0, 13.0, 10.0])
        self.assertEqual(verdicts(base, new), {"op_trimmed_mean_ms": "unresolved"})

    def test_wide_spread_but_separated_is_judged(self):
        base = runs("op_trimmed_mean_ms", [20.0, 28.0, 24.0, 30.0, 22.0])
        new = runs("op_trimmed_mean_ms", [10.0, 14.0, 7.0, 12.0, 9.0])
        self.assertEqual(verdicts(base, new), {"op_trimmed_mean_ms": "better"})

    def test_higher_is_better_metric(self):
        base = runs("throughput_per_s", [100.0, 101.0, 99.0, 100.5, 99.5])
        faster = runs("throughput_per_s", [130.0, 131.0, 129.0, 130.5, 129.5])
        slower = runs("throughput_per_s", [80.0, 81.0, 79.0, 80.5, 79.5])
        self.assertEqual(verdicts(base, faster), {"throughput_per_s": "better"})
        self.assertEqual(verdicts(base, slower), {"throughput_per_s": "worse"})

    def test_small_gain_within_spread_is_same(self):
        base = runs("op_trimmed_mean_ms", [10.0, 10.4, 9.6, 10.2, 9.8])
        new = runs("op_trimmed_mean_ms", [9.95, 10.35, 9.55, 10.15, 9.75])
        self.assertEqual(verdicts(base, new), {"op_trimmed_mean_ms": "same"})

    def test_per_layer_metrics_are_info(self):
        base = runs("core.evaluations", [1057.0, 1057.0], trace=True)
        new = runs("core.evaluations", [3.0, 3.0], trace=True)
        self.assertEqual(verdicts(base, new), {"core.evaluations": "info"})


class LoadTest(unittest.TestCase):
    def test_loads_correct_results_and_skips_the_rest(self):
        with tempfile.TemporaryDirectory() as directory:
            stamp = {"workload": "w", "trace": False, "seed": 1}
            good = {"correct": True, "attempted": 3, "failed": 0,
                    "metrics": {"op_trimmed_mean_ms": {"value": 1.5, "unit": "ms"}}}
            bad = {"correct": False, "attempted": 3, "failed": 1, "metrics": {}}
            Path(directory, "a.json").write_text(json.dumps({"stamp": stamp, "result": good}))
            Path(directory, "b.json").write_text(json.dumps({"stamp": stamp, "result": bad}))
            Path(directory, "c.json").write_text("not json")
            loaded = bench_diff.load_runs(directory)
        self.assertEqual(loaded, [{"workload": "w", "trace": False, "seed": 1,
                                   "metrics": {"op_trimmed_mean_ms": 1.5}}])

    def test_main_exits_nonzero_on_a_regression(self):
        with tempfile.TemporaryDirectory() as base, tempfile.TemporaryDirectory() as new:
            for directory, value in ((base, 10.0), (new, 20.0)):
                for seed in range(3):
                    result = {"correct": True, "attempted": 1, "failed": 0,
                              "metrics": {"op_trimmed_mean_ms": {"value": value + 0.01 * seed,
                                                        "unit": "ms"}}}
                    stamp = {"workload": "w", "trace": False, "seed": seed}
                    Path(directory, "%d.json" % seed).write_text(
                        json.dumps({"stamp": stamp, "result": result}))
            benchmark = Path(base, "BENCHMARK.json")
            benchmark.write_text(json.dumps(BENCHMARK))
            self.assertEqual(bench_diff.main([base, new, "--benchmark", str(benchmark)]), 1)
            self.assertEqual(bench_diff.main([base, base, "--benchmark", str(benchmark)]), 0)


if __name__ == "__main__":
    unittest.main()
