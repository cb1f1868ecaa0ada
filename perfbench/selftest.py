"""Fast checks of the benchmark's own arithmetic; boots no service.

Run with ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import math
import unittest

from stats import (
    epoch_ledger,
    lateness_summary,
    open_loop_timings,
    percentile,
    quartile_spread,
    read_vm_hwm_mb,
    residual,
    tail_percentile,
)


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self) -> None:
        self.assertIsNone(tail_percentile(19))
        self.assertEqual(tail_percentile(20), 50.0)
        self.assertEqual(tail_percentile(99), 50.0)
        self.assertEqual(tail_percentile(100), 90.0)
        self.assertEqual(tail_percentile(999), 90.0)
        self.assertEqual(tail_percentile(1000), 99.0)
        self.assertEqual(tail_percentile(10_000), 99.9)

    def test_interpolates_between_order_statistics(self) -> None:
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(percentile(values, 0), 1.0)
        self.assertEqual(percentile(values, 100), 4.0)
        self.assertAlmostEqual(percentile(values, 50), 2.5)
        self.assertAlmostEqual(percentile(values, 90), 3.7)
        self.assertEqual(percentile([7.0], 90), 7.0)
        with self.assertRaises(ValueError):
            percentile([], 50)

    def test_quartile_spread_is_a_share_of_the_median(self) -> None:
        self.assertAlmostEqual(quartile_spread([10.0] * 4 + [11.0] * 4 + [12.0] * 2),
                               (11.25 - 10.0) / 11.0)
        self.assertEqual(quartile_spread([5.0, 5.0, 5.0]), 0.0)


class OpenLoopAccounting(unittest.TestCase):
    def test_latency_runs_from_the_due_time(self) -> None:
        # Request 1 was due at 0.01 but sent at 0.03 behind a stalled request 0.
        due = [0.00, 0.01, 0.02]
        sent = [0.00, 0.03, 0.0205]
        done = [0.03, 0.035, 0.025]
        timings = open_loop_timings(due, sent, done)
        for got, want in zip(timings["latency"], [0.03, 0.025, 0.005]):
            self.assertAlmostEqual(got, want)
        for got, want in zip(timings["late"], [0.0, 0.02, 0.0005]):
            self.assertAlmostEqual(got, want)

    def test_early_send_is_never_negative_lateness(self) -> None:
        self.assertEqual(open_loop_timings([1.0], [0.9], [1.2])["late"], [0.0])

    def test_lateness_summary_counts_only_beyond_threshold(self) -> None:
        summary = lateness_summary([0.0, 0.0005, 0.002, 0.010])
        self.assertEqual(summary["count"], 2)
        self.assertAlmostEqual(summary["median"], 0.00125)
        self.assertEqual(summary["max"], 0.010)
        self.assertEqual(lateness_summary([])["count"], 0)

    def test_rejects_mismatched_lengths(self) -> None:
        with self.assertRaises(ValueError):
            open_loop_timings([0.0], [0.0, 1.0], [1.0])


class LedgerArithmetic(unittest.TestCase):
    def test_residual_and_share(self) -> None:
        rest, share = residual(10.0, [6.0, 3.0])
        self.assertAlmostEqual(rest, 1.0)
        self.assertAlmostEqual(share, 0.1)
        self.assertEqual(residual(0.0, []), (0.0, 0.0))

    def test_epoch_is_slowest_worker_plus_merge(self) -> None:
        totals = epoch_ledger([
            (1.0, [0.6, 0.7], [0.5, 0.6]),
            (2.0, [1.5, 1.2], [1.4, 1.0]),
        ])
        self.assertAlmostEqual(totals["epoch"], 3.0)
        self.assertAlmostEqual(totals["slowest"], 2.2)
        self.assertAlmostEqual(totals["merge"], 0.8)
        self.assertAlmostEqual(totals["slowest"] + totals["merge"], totals["epoch"])
        self.assertAlmostEqual(totals["worker"], 4.0)
        self.assertAlmostEqual(totals["sweep"], 3.5)
        self.assertAlmostEqual(totals["worker_residual"], 0.5)
        self.assertAlmostEqual(totals["worker_residual_share"], 0.125)


class MemoryProbe(unittest.TestCase):
    def test_reads_vm_hwm_of_this_process(self) -> None:
        peak = read_vm_hwm_mb()
        self.assertTrue(math.isfinite(peak) and peak > 0)


if __name__ == "__main__":
    unittest.main()
