"""Tests for the benchmark's own math.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))

from benchlib import stats  # noqa: E402


def span(sid, parent, start, end, name="layer"):
    return {"op": 1, "id": sid, "parent": parent, "name": name,
            "start": start, "end": end}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_and_support(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 0.5), (50, 50))
        self.assertEqual(stats.percentile(values, 0.99), (99, 1))
        self.assertEqual(stats.percentile(values, 1.0), (100, 0))

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 0.5), (3, 2))

    def test_rejects_empty_and_bad_quantiles(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)
        with self.assertRaises(ValueError):
            stats.percentile([1], 0.0)

    def test_tail_needs_ten_samples_beyond(self):
        # 1000 samples: p99.9 has 1 beyond, p99 has 10.
        q, value, beyond = stats.tail_percentile(range(1000))
        self.assertEqual((q, value, beyond), (0.99, 989, 10))
        # 200 samples: p99 has 2 beyond, p95 has 10.
        self.assertEqual(stats.tail_percentile(range(200))[0], 0.95)
        # 99 samples: even p90 (rank 90) has only 9 beyond.
        self.assertIsNone(stats.tail_percentile(range(99)))
        self.assertEqual(stats.tail_percentile(range(100))[0], 0.9)

    def test_latency_summary_reports_count(self):
        summary = stats.latency_summary([3.0, 1.0, 2.0, 4.0])
        self.assertEqual(summary["n"], 4)
        self.assertEqual(summary["p50"], 2.5)
        self.assertIsNone(summary["tail"])

    def test_quartile_spread(self):
        values = [90, 95, 100, 105, 110]
        q1, _, q3 = (92.5, 100, 107.5)
        self.assertAlmostEqual(stats.quartile_spread(values),
                               (q3 - q1) / 100)


class SliceTest(unittest.TestCase):
    def test_slice_medians_set_a_disturbed_slice_aside(self):
        slices = [stats.Slice(1.0, 100, 0.5, [1.0, 2.0, 3.0]),
                  stats.Slice(1.0, 120, 0.48, [1.5, 2.5]),
                  stats.Slice(1.0, 20, 0.9, [0.5, 9.0, 9.0])]
        m = stats.slice_medians(slices)
        self.assertEqual(m["throughput_ops_s"], 100.0)
        self.assertEqual(m["cpu_ms_per_op"], 5.0)
        self.assertEqual(m["latency_p50_ms"], 2.0)
        self.assertEqual(m["slices"], 3)

    def test_empty_slices_are_skipped(self):
        slices = [stats.Slice(1.0, 0, 0.0, []),
                  stats.Slice(2.0, 4, 0.2, [1.0])]
        m = stats.slice_medians(slices)
        self.assertEqual((m["throughput_ops_s"], m["slices"]), (2.0, 1))
        with self.assertRaises(ValueError):
            stats.slice_medians(slices[:1])

    def test_time_slices_cut_at_records(self):
        completions = [(0.5, 1.0), (1.0, 2.0), (1.5, 3.0), (2.5, 4.0),
                       (2.55, 5.0)]
        rows = [(0.0, 1.0, 2, 0.25), (1.1, 2.0, 1, 0.25),
                (2.5, 2.6, 2, 0.01)]
        slices = stats.time_slices(completions, rows, min_wall_s=0.5)
        self.assertEqual([s.latencies_ms for s in slices], [[1.0, 2.0], [3.0]])
        self.assertEqual([(s.ok, s.cpu_s) for s in slices],
                         [(2, 0.25), (1, 0.25)])
        self.assertAlmostEqual(slices[1].wall_s, 0.9)

    def test_scale_to_reference_uses_the_median_loop_time(self):
        # One outlying loop run does not move the median (40 ms): the host
        # ran at half the reference speed, so times halve when scaled.
        factor = stats.reference_factor([40.0, 39.0, 41.0, 90.0, 40.0],
                                        ref_ms=20.0)
        self.assertEqual(factor, 0.5)
        medians = {"throughput_ops_s": 100.0, "cpu_ms_per_op": 4.0,
                   "latency_p50_ms": 8.0}
        self.assertEqual(stats.scale_to_reference(medians, factor),
                         {"throughput_ops_s": 200.0, "cpu_ms_per_op": 2.0,
                          "latency_p50_ms": 4.0})
        with self.assertRaises(ValueError):
            stats.reference_factor([])
        with self.assertRaises(ValueError):
            stats.reference_factor([20.0, -1.0])


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([span(1, 0, 10, 40)]), {1: 30})

    def test_nested_children_are_subtracted_once(self):
        spans = [
            span(1, 0, 0, 100, "op"),
            span(2, 1, 10, 40),
            span(3, 2, 15, 25),   # grandchild: counts against span 2 only
            span(4, 1, 50, 90),
        ]
        self.assertEqual(stats.self_times(spans),
                         {1: 30, 2: 20, 3: 10, 4: 40})

    def test_overlapping_and_overhanging_children(self):
        spans = [
            span(1, 0, 0, 100, "op"),
            span(2, 1, 10, 50),
            span(3, 1, 40, 60),    # overlaps span 2: union 10..60
            span(4, 1, 90, 130),   # overhangs the parent: clipped to 90..100
        ]
        self.assertEqual(stats.self_times(spans)[1], 100 - 50 - 10)


class CoverageTest(unittest.TestCase):
    def test_layers_that_fill_the_op_cover_it(self):
        spans = [span(1, 0, 0, 100, "op"), span(2, 1, 0, 60),
                 span(3, 1, 60, 100)]
        self.assertEqual(stats.coverage(spans), 1.0)

    def test_glue_between_layers_lowers_coverage(self):
        spans = [span(1, 0, 0, 100, "op"), span(2, 1, 0, 45),
                 span(3, 2, 5, 15), span(4, 1, 50, 100)]
        # Layer self times: 35 + 10 + 50 = 95 of 100.
        self.assertAlmostEqual(stats.coverage(spans), 0.95)

    def test_replay_roots_are_not_ops(self):
        spans = [span(1, 0, 0, 100, "op"), span(2, 1, 0, 100),
                 span(3, 0, 100, 200, "sched.evaluate")]
        self.assertEqual(stats.coverage(spans), 1.0)

    def test_sums_over_ops(self):
        spans = [span(1, 0, 0, 100, "op"), span(2, 1, 0, 100),
                 span(3, 0, 100, 400, "op"), span(4, 3, 100, 250)]
        self.assertAlmostEqual(stats.coverage(spans), 250 / 400)

    def test_no_ops(self):
        self.assertEqual(stats.coverage([span(1, 0, 0, 5, "x")]), 0.0)

    def test_span_means(self):
        spans = [span(1, 0, 0, 100, "op"), span(2, 1, 0, 40, "a"),
                 span(3, 0, 100, 300, "op"), span(4, 3, 100, 180, "a")]
        self.assertEqual(stats.span_means(spans),
                         {"op": (2, 150.0, 90.0), "a": (2, 60.0, 60.0)})


class ResultLineTest(unittest.TestCase):
    def test_shape_and_digits(self):
        line = stats.result_line(True, 1000, 0, {
            "latency_p50_ms": (1.2034567891234, "ms"),
            "setup_s": (0.8127, "s")})
        self.assertNotIn("\n", line)
        parsed = json.loads(line)
        self.assertEqual(set(parsed), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(parsed["metrics"]["latency_p50_ms"],
                         {"value": 1.2034567891234, "unit": "ms"})
        self.assertIs(parsed["correct"], True)
        self.assertEqual((parsed["attempted"], parsed["failed"]), (1000, 0))

    def test_rejects_bad_counts_and_values(self):
        with self.assertRaises(ValueError):
            stats.result_line(True, 0, 0, {})
        with self.assertRaises(ValueError):
            stats.result_line(False, 5, 6, {})
        with self.assertRaises(ValueError):
            stats.result_line(True, 5, 0, {"x": (float("nan"), "ms")})


if __name__ == "__main__":
    unittest.main()
