"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import pbstats  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_p90_of_100_leaves_ten_beyond(self):
        xs = list(range(1, 101))
        self.assertEqual(pbstats.tail_percentile(xs, 0.9), 90)

    def test_p90_refused_below_ten_beyond(self):
        with self.assertRaises(ValueError):
            pbstats.tail_percentile(list(range(99)), 0.9)

    def test_p99_needs_a_thousand(self):
        with self.assertRaises(ValueError):
            pbstats.tail_percentile(list(range(999)), 0.99)
        self.assertEqual(pbstats.tail_percentile(list(range(1, 1001)), 0.99),
                         990)

    def test_order_does_not_matter(self):
        xs = list(range(200))
        self.assertEqual(pbstats.tail_percentile(xs[::-1], 0.9),
                         pbstats.tail_percentile(xs, 0.9))

    def test_out_of_range(self):
        with self.assertRaises(ValueError):
            pbstats.tail_percentile(list(range(1000)), 1.0)


class Names(unittest.TestCase):
    def test_valid(self):
        for name in ["ns_per_msg", "sim.ns_per_event", "gc.minor_collections",
                     "9lives", "a" * 64]:
            self.assertTrue(pbstats.valid_name(name), name)

    def test_invalid(self):
        for name in ["", "_x", ".x", "a b", "a/b", "a" * 65, "ns-per-µs", 7]:
            self.assertFalse(pbstats.valid_name(name), name)

    def test_units(self):
        for unit in ["ns", "1/s", "%", "MiB", "count"]:
            self.assertTrue(pbstats.valid_unit(unit), unit)
        for unit in ["", "a unit", "x" * 17]:
            self.assertFalse(pbstats.valid_unit(unit), unit)

    def test_duplicates_refused(self):
        with self.assertRaises(ValueError):
            pbstats.check_names(["wall_s", "wall_s"])
        with self.assertRaises(ValueError):
            pbstats.check_names(["wall s"])
        pbstats.check_names(list(pbstats.END_TO_END) + list(pbstats.PER_LAYER))

    def test_all_defined_names_and_units_valid(self):
        for table in (pbstats.END_TO_END, pbstats.PER_LAYER):
            for name, (unit, better) in table.items():
                self.assertTrue(pbstats.valid_name(name), name)
                self.assertTrue(pbstats.valid_unit(unit), unit)
                self.assertIn(better, ("lower", "higher"))

    def test_benchmark_json_matches_definitions(self):
        path = os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]},
            pbstats.END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]},
            pbstats.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         pbstats.WORKLOADS)


class FailedFrac(unittest.TestCase):
    def test_none_failed(self):
        self.assertEqual(pbstats.count_failed([], 5), (0, 0.0))

    def test_run_failing_two_checks_counts_once(self):
        fails = [{"run": "a#1", "check": "stable_leader"},
                 {"run": "a#1", "check": "lemma8_lattice"},
                 {"run": "b#2", "check": "raised"}]
        self.assertEqual(pbstats.count_failed(fails, 4), (2, 0.5))

    def test_nothing_attempted_refused(self):
        with self.assertRaises(ValueError):
            pbstats.count_failed([], 0)

    def test_more_failed_than_attempted_refused(self):
        with self.assertRaises(ValueError):
            pbstats.count_failed([{"run": "a"}, {"run": "b"}], 1)


class EndToEnd(unittest.TestCase):
    REF = pbstats.PROBE_REF_MS

    def p(self, group, slices, other=0.5, wall=None, jobs=1, words=5000.0,
          heap=10.0, setup=(0.01, 0.05), probes=None):
        return {"group": group, "jobs": jobs, "runs": 1, "sent": 1000,
                "wall_s": sum(slices) / 1e3 + other if wall is None else wall,
                "other_s": other, "advance_s": sum(slices) / 1e3,
                "run_words": [words], "run_sent": [1000],
                "top_heap_mb": heap,
                "slices_ms": list(slices), "setup_s": list(setup),
                "probes_ms": [self.REF] * 4 if probes is None else probes}

    def raw(self):
        # Two groups of 60 slices, four repeats each. In group 0 a burst
        # hits half of each repeat's slices, a different half each time.
        a, b = [1.0, 5.0] * 30, [5.0, 1.0] * 30
        return {"passes": [
            self.p(0, a, other=0.4, words=5000.0, setup=(0.01, 0.02)),
            self.p(1, [2.0] * 60, other=0.3, words=6000.0, heap=11.0),
            self.p(0, b, other=0.2, words=5000.0, heap=12.0),
            self.p(1, [3.0] * 60, other=0.1, words=6000.0, heap=13.0),
            self.p(0, a, other=0.6, words=5000.0),
            self.p(1, [4.0] * 60, other=0.9, words=8000.0, heap=14.0),
            self.p(0, b, other=0.8, words=7000.0),
            self.p(1, [9.0] * 60, other=0.7, words=6000.0),
        ]}

    def test_values(self):
        m = pbstats.end_to_end(self.raw())
        self.assertEqual(set(m), set(pbstats.END_TO_END))
        # Each slice keeps the lower quartile of its four repeats (their
        # minimum): 60 x 1 ms in group 0, 60 x 2 ms in group 1.
        self.assertAlmostEqual(m["ns_per_msg"], 180e-3 * 1e9 / 2000)
        # Half the 180 ms lies in the 2 ms slices.
        self.assertEqual(m["slice_ms_p50"], 2.0)
        self.assertEqual(m["slice_ms_p90"], 2.0)
        # A sequential pass: its slices plus the least of its other times.
        self.assertAlmostEqual(m["wall_s"], ((0.06 + 0.2) + (0.12 + 0.1)) / 2)
        self.assertAlmostEqual(m["runs_per_s"], 2 / 0.48)
        # Set-ups: the lower quartile of all sixteen samples.
        self.assertAlmostEqual(m["setup_s"], 0.01)
        # Words per message: the lower quartile over the groups' seeds of
        # each run (5.0 and 6.0). The heap after the sixth pass.
        self.assertAlmostEqual(m["minor_words_per_msg"], 5.0)
        self.assertEqual(m["top_heap_mb"], 14.0)

    def test_probe_scales_timings(self):
        raw = self.raw()
        for p in raw["passes"]:
            p["probes_ms"] = [2 * self.REF] * 4  # the machine ran at half speed
        m = pbstats.end_to_end(raw)
        # The simulator is taken to slow by the probe's ratio to a power.
        f = 0.5 ** pbstats.PROBE_EXPONENT
        self.assertAlmostEqual(m["ns_per_msg"], 90e3 * f)
        self.assertAlmostEqual(m["wall_s"], 0.24 * f)
        self.assertAlmostEqual(m["setup_s"], 0.01 * f)
        self.assertAlmostEqual(m["slice_ms_p90"], 2.0 * f)
        self.assertAlmostEqual(m["minor_words_per_msg"], 5.0)

    def test_probe_read_at_its_lower_quartile(self):
        raw = self.raw()
        # 32 probes: a burst slowing 24 of them does not move the quartile.
        for p in raw["passes"]:
            p["probes_ms"] = [self.REF] + [3 * self.REF] * 3
        self.assertAlmostEqual(pbstats.end_to_end(raw)["ns_per_msg"], 90e3)

    def test_burst_on_one_repeat_of_a_slice_dropped(self):
        raw = self.raw()
        raw["passes"][0]["slices_ms"][58] = 500.0
        self.assertAlmostEqual(pbstats.end_to_end(raw)["ns_per_msg"], 90e3)

    def test_words_per_msg_per_run(self):
        # Two runs a pass, four groups; the second run allocates three
        # times as much on one seed, which its lower quartile drops.
        def g(w2):
            return [{"run_words": [1000.0, w2], "run_sent": [100, 200]}]
        by_group = [g(400.0), g(1200.0), g(410.0), g(420.0)]
        self.assertAlmostEqual(pbstats.words_per_msg(by_group), 1400 / 300)

    def test_parallel_pass_wall_is_its_own(self):
        raw = self.raw()
        for k, p in enumerate(raw["passes"]):
            p["jobs"] = 2
            p["wall_s"] = [1.0, 2.0][p["group"]] + k
        m = pbstats.end_to_end(raw)
        self.assertAlmostEqual(m["wall_s"], (1.0 + 3.0) / 2)
        self.assertAlmostEqual(m["runs_per_s"], 2 / 4.0)

    def test_repeats_doing_different_work_refused(self):
        raw = self.raw()
        raw["passes"][2]["sent"] = 999
        with self.assertRaises(ValueError):
            pbstats.end_to_end(raw)

    def test_too_few_slices_refused(self):
        raw = self.raw()
        for p in raw["passes"]:
            p["slices_ms"] = p["slices_ms"][:49]
        with self.assertRaises(ValueError):
            pbstats.end_to_end(raw)

    def test_time_median(self):
        self.assertEqual(pbstats.time_median([1, 1, 1, 1, 10]), 10)
        self.assertEqual(pbstats.time_median([3, 1, 2]), 2)
        self.assertEqual(pbstats.time_median([5]), 5)
        with self.assertRaises(ValueError):
            pbstats.time_median([])

    def test_low_quantile(self):
        self.assertEqual(pbstats.low_quantile([5, 1, 4, 2, 3], 0.25), 1)
        self.assertEqual(pbstats.low_quantile(list(range(1, 9)), 0.25), 2)
        self.assertEqual(pbstats.low_quantile(list(range(1, 101)), 0.1), 10)
        self.assertEqual(pbstats.low_quantile([7], 0.25), 7)
        with self.assertRaises(ValueError):
            pbstats.low_quantile([], 0.25)

    def test_spread(self):
        self.assertAlmostEqual(pbstats.spread([1, 2, 3, 4, 5]), 1.0)


if __name__ == "__main__":
    unittest.main()
