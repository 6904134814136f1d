"""Tests of perfbench's reductions. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import analysis  # noqa: E402


def span(name, start, end, parent=-1, req=0, layer=-1):
    return {"name": name, "start_us": start, "end_us": end, "parent": parent, "req": req,
            "layer": layer, "tid": 1}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(analysis.self_times([span("a", 5, 25)]), [20])

    def test_children_are_subtracted_once_and_clipped_to_the_parent(self):
        spans = [
            span("request", 0, 100),
            span("step", 10, 30, parent=0),
            span("step", 20, 50, parent=0),    # Overlaps the first child.
            span("finalize", 90, 120, parent=0),  # Runs past the parent's end.
        ]
        selfs = analysis.self_times(spans)
        # Covered: [10, 50) and [90, 100) -> 50 of the parent's 100.
        self.assertEqual(selfs[0], 50)
        self.assertEqual(selfs[1:], [20, 30, 30])

    def test_grandchildren_only_reduce_their_own_parent(self):
        spans = [
            span("apps.run", 0, 100),
            span("serving.cache", 10, 90, parent=0),
            span("core.service", 20, 80, parent=1),
        ]
        self.assertEqual(analysis.self_times(spans), [20, 20, 60])

    def test_table_sums_by_name(self):
        spans = [span("request", 0, 10), span("step", 0, 4, parent=0),
                 span("step", 4, 8, parent=0)]
        table = analysis.self_time_table(spans)
        self.assertEqual(table["step"]["count"], 2)
        self.assertAlmostEqual(table["step"]["self_ms"], 0.008)
        self.assertAlmostEqual(table["request"]["self_ms"], 0.002)
        self.assertAlmostEqual(table["request"]["total_ms"], 0.010)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(analysis.percentile(values, 50), 50)
        self.assertEqual(analysis.percentile(values, 90), 90)
        self.assertEqual(analysis.percentile(values, 100), 100)
        self.assertEqual(analysis.percentile([7.0], 99), 7.0)
        self.assertEqual(analysis.percentile([], 50), 0.0)

    def test_samples_beyond(self):
        self.assertEqual(analysis.samples_beyond(100, 90), 10)
        self.assertEqual(analysis.samples_beyond(99, 90), 9)
        self.assertEqual(analysis.samples_beyond(20, 50), 10)
        self.assertEqual(analysis.samples_beyond(0, 50), 0)

    def test_highest_percentile_keeps_ten_samples_beyond_it(self):
        self.assertIsNone(analysis.highest_supported_percentile(19))
        self.assertEqual(analysis.highest_supported_percentile(20), 50.0)
        self.assertEqual(analysis.highest_supported_percentile(99), 75.0)
        self.assertEqual(analysis.highest_supported_percentile(100), 90.0)
        self.assertEqual(analysis.highest_supported_percentile(200), 95.0)
        self.assertEqual(analysis.highest_supported_percentile(1000), 99.0)
        self.assertEqual(analysis.highest_supported_percentile(10000), 99.9)
        for n in range(20, 3000, 7):
            p = analysis.highest_supported_percentile(n)
            self.assertGreaterEqual(analysis.samples_beyond(n, p), 10, n)


def request(sched, start, end, ok=True):
    return {"sched_us": sched, "start_us": start, "end_us": end, "ok": ok}


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_the_due_time(self):
        # Sent 30 ms late, served in 20 ms: the client waited 50 ms.
        r = request(sched=1000, start=31000, end=51000)
        self.assertAlmostEqual(analysis.open_loop_latency_ms(r), 50.0)
        self.assertAlmostEqual(analysis.lateness_ms(r), 30.0)

    def test_an_early_wakeup_is_not_negative_lateness(self):
        self.assertEqual(analysis.lateness_ms(request(sched=5000, start=4990, end=6000)), 0.0)

    def test_slo_attainment_counts_failures_as_misses(self):
        records = [request(0, 0, 10_000), request(0, 0, 300_000),
                   request(0, 0, 5_000, ok=False), request(0, 0, 20_000)]
        self.assertAlmostEqual(analysis.slo_attainment(records, 100.0), 0.5)
        self.assertEqual(analysis.slo_attainment([], 100.0), 0.0)

    def test_backlog_grows_when_the_generator_falls_behind(self):
        steady = [request(i * 10_000, i * 10_000, i * 10_000 + 5_000) for i in range(30)]
        self.assertFalse(analysis.backlog_grows(steady, slo_ms=100.0))
        # Each send slips a further 2 ms: the last third is 40-58 ms late.
        slipping = [request(i * 10_000, i * 12_000, i * 12_000 + 5_000) for i in range(30)]
        self.assertTrue(analysis.backlog_grows(slipping, slo_ms=100.0))


class ChromeTraceTest(unittest.TestCase):
    def test_complete_events_keep_request_and_layer(self):
        trace = analysis.chrome_trace([span("core.step", 10, 30, parent=0, req=7, layer=3)])
        (event,) = trace["traceEvents"]
        self.assertEqual(event["ph"], "X")
        self.assertEqual(event["name"], "core.step[3]")
        self.assertEqual(event["cat"], "core")
        self.assertEqual((event["ts"], event["dur"]), (10, 20))
        self.assertEqual(event["args"], {"request": 7, "parent": 0, "layer": 3})


if __name__ == "__main__":
    unittest.main()
