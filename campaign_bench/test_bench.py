#!/usr/bin/env python3
"""Self-tests of the campaign benchmark's statistics and plans.

    python3 campaign_bench/test_bench.py
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import plan as plans  # noqa: E402
import stats  # noqa: E402


def key(r):
    return (r["benchmark"], r["config"], r["scheme"], r["warmup"],
            r["insts"])


class StatsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(stats.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_spread_is_iqr_over_median(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / 12.0)

    def test_p90_needs_ten_samples_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(stats.tail_percentile(values, 90), 90)
        self.assertIsNone(stats.tail_percentile(values[:99], 90))
        self.assertEqual(stats.tail_percentile(values[:20], 50), 10)
        self.assertIsNone(stats.tail_percentile(values[:19], 50))

    def test_kips_counts_warmup_and_skips_hits(self):
        runs = [{"warmup": 1000, "insts": 9000, "cached": False},
                {"warmup": 500, "insts": 4500, "cached": False},
                {"warmup": 1000, "insts": 9000, "cached": True}]
        self.assertAlmostEqual(stats.kips(runs, 2.0), 15000 / 2.0 / 1000)


class PlanTest(unittest.TestCase):
    def test_same_seed_same_plan(self):
        for w in plans.WORKLOADS:
            self.assertEqual(plans.make_plan(w, 7, 4),
                             plans.make_plan(w, 7, 4))

    def test_other_seed_other_order_and_campaigns(self):
        for w in plans.WORKLOADS:
            a = plans.make_plan(w, 7, 4)
            b = plans.make_plan(w, 8, 4)
            self.assertNotEqual(a["passes"], b["passes"])
        a = plans.make_plan("serve-mixed", 7, 4)
        b = plans.make_plan("serve-mixed", 8, 4)
        self.assertNotEqual(a["precached"], b["precached"])

    def test_seed_keeps_the_work_of_the_kernel_workloads(self):
        for w, runs in (("fig4-cold", 156), ("suite-long", 26)):
            passes = (plans.make_plan(w, 1, 4)["passes"] +
                      plans.make_plan(w, 2, 4)["passes"])
            self.assertEqual(len({str(p) for p in passes}), len(passes))
            flat = [sorted(key(r) for c in p for r in c) for p in passes]
            self.assertEqual(len(flat[0]), runs)
            self.assertEqual(len(set(flat[0])), runs)
            for f in flat:
                self.assertEqual(f, flat[0])

    def test_serve_campaigns_have_one_fresh_run_each(self):
        p = plans.make_plan("serve-mixed", 3, 4)
        pool = {key(r) for r in p["pool"]}
        precached = {key(r) for r in p["precached"]}
        self.assertEqual(len(pool), len(plans.BENCHMARKS))
        self.assertEqual(len({r[0] for r in pool}), len(plans.BENCHMARKS))
        self.assertEqual(len(precached), len(pool) // 2)
        fresh_seen = []
        self.assertEqual(len(p["passes"]), 1)
        for c in p["passes"][0]:
            fresh = [key(r) for r in c if key(r) not in precached]
            self.assertEqual(len(fresh), 1)
            fresh_seen += fresh
        self.assertEqual(sorted(fresh_seen), sorted(pool - precached))


if __name__ == "__main__":
    unittest.main()
