"""Tests for the benchmark's own statistics and its correctness gate.

    python3 perfbench/test_stats.py          # all tests
    python3 perfbench/test_stats.py Stats    # statistics only, no build

The Gate tests build and run the benchmark with a corrupted reference and
expect the command to fail with the mismatch counted in fail_share.
"""

import json
import os
import statistics
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def rung(sched, start, total, ok=None):
    return {"sched": sched, "start": start, "total": total,
            "ok": ok if ok is not None else [1] * len(sched)}


class Stats(unittest.TestCase):
    def test_percentile_is_nearest_rank(self):
        v = list(range(1, 101))
        self.assertEqual(stats.percentile(v, 50), 50)
        self.assertEqual(stats.percentile(v, 99), 99)
        self.assertEqual(stats.percentile(v, 100), 100)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)

    def test_tail_picks_highest_percentile_with_ten_beyond(self):
        # 45 samples: p90 leaves 4 beyond, p75 leaves 11.
        p, value, n = stats.tail([float(i) for i in range(45)])
        self.assertEqual((p, n), (75.0, 45))
        self.assertEqual(value, 33.0)
        self.assertEqual(stats.tail(list(range(100)))[0], 90.0)    # exactly 10 beyond
        self.assertEqual(stats.tail(list(range(1000)))[0], 99.0)
        self.assertEqual(stats.tail(list(range(10000)))[0], 99.9)
        # A capped ladder keeps its top percentile however many samples come.
        self.assertEqual(stats.tail(list(range(1000)), (75.0, 50.0)), (75.0, 749, 1000))
        self.assertEqual(stats.tail(list(range(30)), (75.0, 50.0))[0], 50.0)

    def test_tail_falls_back_to_median_with_few_samples(self):
        p, value, n = stats.tail([3.0, 1.0, 2.0])
        self.assertEqual((p, value, n), (50.0, 2.0, 3))

    def test_quartile_spread(self):
        v = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        q1, _, q3 = statistics.quantiles(v, n=4)
        self.assertAlmostEqual(stats.quartile_spread(v), (q3 - q1) / 14.5)
        self.assertEqual(stats.quartile_spread([5.0] * 10), 0.0)

    def test_latency_counts_from_the_scheduled_send(self):
        # The second request's submit() started 30 ms late (the generator
        # was blocked), so its latency includes that wait.
        sched, start, total = [0.0, 0.010], [0.001, 0.040], [0.002, 0.002]
        lat = stats.scheduled_latency(sched, start, total)
        self.assertAlmostEqual(lat[0], 0.003)
        self.assertAlmostEqual(lat[1], 0.032)
        self.assertAlmostEqual(stats.lateness(sched, start)[1], 0.030)

    def test_backlog_check(self):
        sched = [i * 0.001 for i in range(1000)]                  # 1000 qps for 1 s
        keeping_up = rung(sched, sched, [0.002] * 1000)
        self.assertTrue(stats.keeps_pace(**keeping_up))
        # Served at 800/s: each completion falls further behind its send.
        done = [(i + 1) / 800.0 for i in range(1000)]
        falling_behind = rung(sched, sched, [d - s for d, s in zip(done, sched)])
        self.assertFalse(stats.keeps_pace(**falling_behind))
        failed = rung(sched, sched, [0.002] * 1000, ok=[1] * 999 + [0])
        self.assertFalse(stats.keeps_pace(**failed))
        # The last result may take up to the latency limit.
        late_last = rung(sched, sched, [0.002] * 999 + [0.080])
        self.assertFalse(stats.keeps_pace(**late_last))
        self.assertTrue(stats.keeps_pace(**late_last, slack_s=0.050))

    def test_rung_verdict(self):
        sched = [i * 0.002 for i in range(500)]
        fast = rung(sched, sched, [0.001] * 500)
        passed, p99, reasons = stats.rung_verdict(fast, 20.0)
        self.assertTrue(passed)
        self.assertAlmostEqual(p99, 1.0)
        slow = rung(sched, sched, [0.001] * 490 + [0.050] * 10)
        passed, _, reasons = stats.rung_verdict(slow, 20.0)
        self.assertFalse(passed)
        self.assertIn("p99", reasons[0])
        one_failed = rung(sched, sched, [0.001] * 500, ok=[1] * 495 + [0] * 5)
        self.assertTrue(stats.rung_verdict(one_failed, 20.0)[0] is False)

    def test_max_passing_rate_stops_at_first_confirmed_miss(self):
        self.assertEqual(stats.max_passing_rate(
            [(500, True), (550, True), (605, False), (605, False), (666, True)]), 550)
        # A miss that passes on its re-run does not stop the ladder.
        self.assertEqual(stats.max_passing_rate(
            [(500, True), (550, False), (550, True), (605, True), (666, False),
             (666, False), (733, False)]), 605)
        self.assertEqual(stats.max_passing_rate([(500, False), (500, False)]), 0.0)

    def test_fail_share(self):
        self.assertEqual(stats.fail_share(940, 0), 0.0)
        self.assertAlmostEqual(stats.fail_share(940, 1), 1 / 940)
        with self.assertRaises(ValueError):
            stats.fail_share(0, 0)

    def test_self_time_subtracts_children(self):
        spans = [["batch", 0, -1, 0.0, 1.0],
                 ["graph.prepare", 0, 0, 0.1, 0.3],
                 ["gnn.forward", 0, 0, 0.3, 0.9],
                 ["kernels.inner", 0, 2, 0.4, 0.5]]
        st = stats.self_times(spans)
        self.assertAlmostEqual(st["batch"], 0.2)
        self.assertAlmostEqual(st["graph.prepare"], 0.2)
        self.assertAlmostEqual(st["gnn.forward"], 0.5)
        self.assertAlmostEqual(st["kernels.inner"], 0.1)


class Gate(unittest.TestCase):
    """An injected logits mismatch must fail the run and count in fail_share."""

    def run_bench(self, workload):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", "0", "--seconds", "2",
             "--trace", "0", "--inject-mismatch"],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        self.assertTrue(lines, proc.stderr)
        return proc.returncode, json.loads(lines[-1])

    def check(self, workload):
        code, result = self.run_bench(workload)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreater(stats.fail_share(result["attempted"], result["failed"]), 0)

    def test_epoch_mismatch_fails(self):
        self.check("gin-proteins-stream")

    def test_serving_parity_mismatch_fails(self):
        self.check("serve-arxiv-poisson")


if __name__ == "__main__":
    unittest.main()
