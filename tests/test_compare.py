#!/usr/bin/env python3
"""Checks scripts/compare.py's pair statistics on canned pairs.

    python3 tests/test_compare.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "scripts"))

import compare  # noqa: E402


class SignTest(unittest.TestCase):
    def test_unanimous_pairs(self):
        # 6 of 6: 2 * 2^-6.
        self.assertAlmostEqual(compare.sign_test_p(6, 0), 0.03125)
        self.assertAlmostEqual(compare.sign_test_p(0, 6), 0.03125)

    def test_one_loss(self):
        # 9 of 10: 2 * (1 + 10) / 1024.
        self.assertAlmostEqual(compare.sign_test_p(9, 1), 22 / 1024)

    def test_even_split_and_no_pairs(self):
        self.assertEqual(compare.sign_test_p(3, 3), 1.0)
        self.assertEqual(compare.sign_test_p(0, 0), 1.0)


class Summarize(unittest.TestCase):
    def test_lower_is_better(self):
        base = [0.30, 0.26, 0.28, 0.24, 0.31, 0.27]
        change = [0.10, 0.12, 0.09, 0.11, 0.10, 0.13]
        s = compare.summarize(base, change, "lower")
        self.assertEqual((s["wins"], s["losses"], s["pairs"]), (6, 0, 6))
        self.assertAlmostEqual(s["base_median"], 0.275)
        self.assertAlmostEqual(s["change_median"], 0.105)
        ratios = sorted(c / b for b, c in zip(base, change))
        self.assertAlmostEqual(s["median_ratio"],
                               (ratios[2] + ratios[3]) / 2)
        self.assertAlmostEqual(s["ratio_min"], ratios[0])
        self.assertAlmostEqual(s["ratio_max"], ratios[-1])
        self.assertAlmostEqual(s["sign_p"], 0.03125)
        # Inclusive quartiles of the base: 0.2625 and 0.295.
        self.assertAlmostEqual(s["base_iqr"], 0.0325)
        self.assertTrue(s["resolved"])
        self.assertEqual(compare.verdict(s, "lower", 0.25), "better")

    def test_higher_is_better_with_a_tie(self):
        base = [100.0, 110.0, 90.0, 100.0]
        change = [95.0, 110.0, 80.0, 101.0]
        s = compare.summarize(base, change, "higher")
        # The tie counts for neither side.
        self.assertEqual((s["wins"], s["losses"]), (1, 2))
        self.assertAlmostEqual(s["sign_p"], 1.0)
        self.assertFalse(s["resolved"])
        self.assertEqual(compare.verdict(s, "higher", 0.25), "unresolved")

    def test_past_bound(self):
        base = [10.0, 10.5, 9.5]
        change = [14.0, 14.5, 13.5]
        s = compare.summarize(base, change, "lower")
        self.assertEqual(s["losses"], 3)
        self.assertEqual(compare.verdict(s, "lower", 0.25),
                         "worse, PAST BOUND")
        self.assertEqual(compare.verdict(s, "lower", 0.5), "worse")

    def test_rejects_unpaired_input(self):
        with self.assertRaises(ValueError):
            compare.summarize([1.0, 2.0], [1.0], "lower")
        with self.assertRaises(ValueError):
            compare.summarize([1.0], [1.0], "sideways")


if __name__ == "__main__":
    unittest.main()
