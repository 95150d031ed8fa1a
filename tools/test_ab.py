"""Tests for tools/ab.py, fed canned perfbench/run.py result lines.

    python3 tools/test_ab.py
"""

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ab  # noqa: E402

SPEC = {
    "run_seconds": 35,
    "end_to_end": [
        {"name": "sim_cycles_per_s", "unit": "cycles/s", "better": "higher", "bound": 0.25},
        {"name": "unit_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [
        {"name": "verify.validator.prf-leak.ns", "unit": "ns", "better": "lower"},
    ],
}


def result(failed=0, attempted=100, **values):
    """One run.py result line, as run.py prints it, parsed."""
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    metrics = {k.replace("__", "."): {"value": v, "unit": units[k.replace("__", ".")]}
               for k, v in values.items()}
    line = json.dumps({"attempted": attempted, "correct": attempted - failed,
                       "failed": failed, "metrics": metrics})
    return json.loads(line)


def e2e(cycles, p50, **kw):
    return result(sim_cycles_per_s=cycles, unit_p50_ms=p50, **kw)


def traced(prf_leak, **kw):
    return result(**{"verify__validator__prf-leak__ns": prf_leak}, **kw)


class Statistics(unittest.TestCase):
    def test_median_and_quartiles(self):
        self.assertEqual(ab.quartiles([5, 1, 4, 2, 3]), (2, 3, 4))
        self.assertEqual(ab.quartiles(list(range(1, 11))), (3.25, 5.5, 7.75))
        self.assertEqual(ab.quartiles([7]), (7, 7, 7))

    def test_wins_count_neither_side_of_a_tie(self):
        # Pair 1 won, pair 2 tied, pair 3 lost.
        c = ab.compare([10, 10, 10], [11, 10, 9], "higher", 0.25)
        self.assertEqual(c["wins"], 1)
        c = ab.compare([10, 10, 10], [9, 10, 11], "lower", 0.25)
        self.assertEqual(c["wins"], 1)


class Verdicts(unittest.TestCase):
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_gain(self):
        change = [x * 1.1 for x in self.parent]
        self.assertEqual(ab.compare(self.parent, change, "higher", 0.25)["verdict"], "gain")

    def test_nine_wins_gain_but_a_gap_inside_the_iqr_does_not(self):
        change = [x + 0.4 for x in self.parent]
        c = ab.compare(self.parent, change, "higher", 0.25)
        self.assertEqual((c["wins"], c["verdict"]), (10, "same"))
        change = [x * 1.1 for x in self.parent[:9]] + [90]
        c = ab.compare(self.parent, change, "higher", 0.25)
        self.assertEqual((c["wins"], c["verdict"]), (9, "gain"))

    def test_worse(self):
        change = [x * 0.7 for x in self.parent]
        self.assertEqual(ab.compare(self.parent, change, "higher", 0.25)["verdict"], "worse")
        self.assertEqual(ab.compare(self.parent, [x * 1.3 for x in self.parent], "lower",
                                    0.25)["verdict"], "worse")

    def test_a_median_worse_by_more_than_the_bound_is_worse_however_wide_the_spread(self):
        wide = [50, 150, 60, 140, 100, 100, 70, 130, 80, 120]
        c = ab.compare(self.parent, [x * 0.7 for x in wide], "higher", 0.25)
        self.assertEqual((c["wins"], c["verdict"]), (1, "worse"))
        c = ab.compare(wide, [x * 1.3 for x in wide], "lower", 0.25)
        self.assertEqual((c["wins"], c["verdict"]), (0, "worse"))
        # Inside the bound, the same spread is unresolved.
        c = ab.compare(self.parent, [x * 0.8 for x in wide], "higher", 0.25)
        self.assertEqual(c["verdict"], "unresolved")

    def test_unresolved_unless_every_change_run_beats_every_parent_run(self):
        wide = [50, 150, 60, 140, 100, 100, 70, 130, 80, 120]
        self.assertEqual(ab.compare(self.parent, wide, "higher", 0.25)["verdict"], "unresolved")
        self.assertEqual(ab.compare(wide, self.parent, "higher", 0.25)["verdict"], "unresolved")
        far = [x + 200 for x in wide]
        self.assertEqual(ab.compare(self.parent, far, "higher", 0.25)["verdict"], "gain")

    def test_same(self):
        change = list(reversed(self.parent))
        self.assertEqual(ab.compare(self.parent, change, "higher", 0.25)["verdict"], "same")

    def test_a_metric_is_a_gain_only_if_every_seed_says_so(self):
        self.assertEqual(ab.overall(["gain", "gain"]), "gain")
        self.assertEqual(ab.overall(["gain", "same"]), "same")
        self.assertEqual(ab.overall(["gain", "unresolved"]), "unresolved")
        self.assertEqual(ab.overall(["unresolved", "worse"]), "worse")

    def test_a_layer_is_flagged_only_when_its_runs_separate_and_move(self):
        self.assertEqual(ab.layer([10, 11, 12], [20, 21, 22], "lower")["flag"], "worse")
        self.assertEqual(ab.layer([10, 11, 12], [20, 21, 22], "higher")["flag"], "better")
        self.assertEqual(ab.layer([10, 11, 12], [12.5, 13, 13.5], "lower")["flag"], "")
        self.assertEqual(ab.layer([10, 30, 12], [20, 21, 22], "lower")["flag"], "")


def entry(parent_failed=0, change_failed=0, change_p50=10.0):
    groups = {
        1: ([e2e(100 + i, 10.0, failed=parent_failed) for i in range(10)],
            [e2e(100 + i, change_p50, failed=change_failed) for i in range(10)]),
        4242: ([e2e(90 + i, 10.0) for i in range(5)], [e2e(90 + i, change_p50) for i in range(5)]),
    }
    trace = ([traced(1e9) for _ in range(3)], [traced(3e9) for _ in range(3)])
    return ab.report(["a" * 40, "b" * 40], "crash", SPEC, groups, trace)


class Report(unittest.TestCase):
    def test_history_line_key_order(self):
        line = json.dumps(entry())
        e = json.loads(line)
        self.assertEqual(list(e), ["parent", "change", "workload", "seeds", "pairs",
                                   "run_seconds", "failed_share", "end_to_end", "per_layer"])
        self.assertEqual(e["seeds"], [1, 4242])
        self.assertEqual(e["pairs"], {"1": 10, "4242": 5, "trace": 3})
        self.assertEqual(list(e["end_to_end"]), ["sim_cycles_per_s", "unit_p50_ms"])
        self.assertEqual(list(e["end_to_end"]["unit_p50_ms"]), ["verdict", "1", "4242"])
        self.assertEqual(list(e["end_to_end"]["unit_p50_ms"]["1"]),
                         ["parent", "change", "wins", "pairs", "verdict"])
        self.assertEqual(list(e["end_to_end"]["unit_p50_ms"]["1"]["parent"]),
                         ["median", "q1", "q3"])
        self.assertEqual(list(e["per_layer"]["verify.validator.prf-leak.ns"]),
                         ["parent", "change", "flag"])
        self.assertEqual(e["per_layer"]["verify.validator.prf-leak.ns"]["flag"], "worse")
        self.assertIn("verify.validator.prf-leak.ns", ab.render(e))

    def test_a_rise_in_the_failed_share_fails_the_change(self):
        self.assertFalse(ab.failing(entry()))
        e = entry(change_failed=1)
        self.assertEqual(e["failed_share"], {"parent": 0.0, "change": 10 / 1800})
        self.assertTrue(ab.failing(e))
        self.assertFalse(ab.failing(entry(parent_failed=1, change_failed=1)))
        self.assertFalse(ab.failing(entry(parent_failed=2, change_failed=1)))

    def test_a_worse_metric_fails_the_change(self):
        e = entry(change_p50=20.0)
        self.assertEqual(e["end_to_end"]["unit_p50_ms"]["verdict"], "worse")
        self.assertTrue(ab.failing(e))

    def test_flags_and_non_workloads_are_usage_errors(self):
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(ab.main(["HEAD"]), 2)
            self.assertEqual(ab.main(["HEAD", "HEAD", "--runs"]), 2)
            self.assertEqual(ab.main(["HEAD", "HEAD", "verify"]), 2)


if __name__ == "__main__":
    unittest.main()
