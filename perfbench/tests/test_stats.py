"""Tests for the benchmark's statistics and its metric table.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import run  # noqa: E402
import stats  # noqa: E402


def span(id_, parent, name, start, end):
    return {"id": id_, "parent": parent, "name": name, "start": start,
            "end": end}


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [7.0, 1.0, 3.0, 9.0, 4.0, 6.0, 2.0, 8.0, 5.0, 10.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))


class Percentiles(unittest.TestCase):
    def test_percentile_interpolates(self):
        values = [0.0, 10.0, 20.0, 30.0, 40.0]
        self.assertEqual(stats.percentile(values, 0), 0.0)
        self.assertEqual(stats.percentile(values, 100), 40.0)
        self.assertEqual(stats.percentile(values, 50), 20.0)
        self.assertAlmostEqual(stats.percentile(values, 90), 36.0)

    def test_percentile_of_empty_sample_fails(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_tail_leaves_ten_samples_beyond(self):
        # p99 needs 1000 samples, p95 200, p90 100, p75 40.
        self.assertEqual(stats.tail_percentile(3000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(120), 90.0)
        self.assertEqual(stats.tail_percentile(99), 75.0)
        self.assertEqual(stats.tail_percentile(48), 75.0)
        self.assertEqual(stats.tail_percentile(39), 50.0)
        for n in (20, 48, 108, 200, 1000, 3000, 10000):
            p = stats.tail_percentile(n)
            self.assertGreaterEqual(n * (100 - p) / 100, stats.MIN_BEYOND)

    def test_tail_is_judged_at_the_minimum_count(self):
        # More samples than guaranteed do not move the percentile.
        values = list(range(1, 301))
        p, value = stats.tail(values, 120)
        self.assertEqual(p, 90.0)
        self.assertAlmostEqual(value, stats.percentile(values, 90.0))
        self.assertGreaterEqual(sum(v > value for v in values), 10)


class Lateness(unittest.TestCase):
    def test_on_time_and_early_sends_are_not_late(self):
        self.assertEqual(stats.lateness([0.0, 10.0], [0.0, 9.5]), [0.0, 0.0])

    def test_late_sends_count_from_the_schedule(self):
        self.assertEqual(stats.lateness([0.0, 10.0, 20.0], [1.5, 10.0, 27.0]),
                         [1.5, 0.0, 7.0])

    def test_lengths_must_match(self):
        with self.assertRaises(ValueError):
            stats.lateness([0.0], [])


class SelfTime(unittest.TestCase):
    def test_nested_children_are_subtracted(self):
        spans = [span(1, 0, "bench.pass", 0, 100),
                 span(2, 1, "planner.plan", 10, 20),
                 span(3, 1, "core.run", 20, 90),
                 span(4, 3, "io.read", 30, 40)]
        self.assertEqual(stats.self_times(spans),
                         {"bench": 20, "planner": 10, "core": 60, "io": 10})
        self.assertEqual(stats.traced_wall(spans), 100)

    def test_overlapping_children_are_subtracted_once(self):
        spans = [span(1, 0, "bench.open_loop", 0, 100),
                 span(2, 1, "server.probe", 10, 40),
                 span(3, 1, "server.probe", 30, 60),
                 span(4, 1, "core.probe", 50, 70)]
        # The loop keeps 0..10 and 70..100; the probes cover 10..60.
        self.assertEqual(stats.self_times(spans),
                         {"bench": 40, "server": 50, "core": 20})

    def test_same_layer_overlap_is_not_counted_twice(self):
        spans = [span(1, 0, "bench.open_loop", 0, 100),
                 span(2, 1, "server.probe", 10, 40),
                 span(3, 1, "server.probe", 30, 60)]
        self.assertEqual(stats.self_times(spans), {"bench": 50, "server": 50})

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, 0, "bench.check", 0, 50),
                 span(2, 1, "server.probe", 40, 80)]
        self.assertEqual(stats.self_times(spans), {"bench": 40, "server": 40})

    def test_self_times_sum_to_the_traced_wall(self):
        spans = [span(1, 0, "bench.setup", 0, 10),
                 span(2, 1, "io.read", 1, 9),
                 span(3, 0, "bench.first_pass", 12, 30),
                 span(4, 3, "core.run", 12, 29)]
        self.assertAlmostEqual(sum(stats.self_times(spans).values()),
                               stats.traced_wall(spans))


class MetricTable(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))

    def test_absent_metrics_are_per_layer_metrics(self):
        for absent in run.ABSENT.values():
            self.assertLessEqual(set(absent), set(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
