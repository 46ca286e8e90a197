#!/usr/bin/env python3
"""Self-test of perfbench_ab's verdicts on synthetic runs:

    python3 tools/test_perfbench_ab.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perfbench_ab  # noqa: E402

BENCH = {"end_to_end": [
    {"name": "sites_per_s", "unit": "sites/s", "better": "higher",
     "bound": 0.25},
    {"name": "cpu_us_per_site", "unit": "us", "better": "lower",
     "bound": 0.25},
]}


def runs(side, cpu, rate, failed=0, workload="study"):
    return [{"side": side, "workload": workload, "pair": i, "correct": True,
             "attempted": 100, "failed": failed,
             "metrics": {"sites_per_s": rate, "cpu_us_per_site": value}}
            for i, value in enumerate(cpu)]


class CompareTest(unittest.TestCase):
    def verdict(self, base, head):
        problems = []
        report = perfbench_ab.compare(BENCH, base + head, problems)
        return report["study"], problems

    def test_worse_by_follows_the_better_direction(self):
        lower, higher = BENCH["end_to_end"][1], BENCH["end_to_end"][0]
        self.assertAlmostEqual(perfbench_ab.worse_by(lower, 100, 130), 0.3)
        self.assertAlmostEqual(perfbench_ab.worse_by(lower, 100, 80), -0.2)
        self.assertAlmostEqual(perfbench_ab.worse_by(higher, 100, 80), 0.2)

    def test_within_bound_passes_and_counts_wins(self):
        report, problems = self.verdict(runs("base", [100, 102, 98], 50),
                                        runs("head", [70, 71, 103], 50))
        self.assertEqual(problems, [])
        self.assertEqual(report["cpu_us_per_site"]["head_wins"], 2)
        self.assertEqual(report["cpu_us_per_site"]["median"],
                         {"base": 100, "head": 71})

    def test_median_beyond_bound_fails(self):
        _, problems = self.verdict(runs("base", [100, 100, 100], 50),
                                   runs("head", [130, 126, 90], 50))
        self.assertEqual(len(problems), 1)
        self.assertIn("cpu_us_per_site", problems[0])

    def test_higher_failed_share_fails(self):
        _, problems = self.verdict(runs("base", [100], 50),
                                   runs("head", [100], 50, failed=1))
        self.assertEqual(len(problems), 1)
        self.assertIn("fails", problems[0])


if __name__ == "__main__":
    unittest.main()
