"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        clock = FakeClock()
        tracer = layertrace.Tracer(clock=clock)

        def leaf():
            clock.advance(1.0)

        leaf_t = tracer.timed("leaf", leaf)  # aggregated: no span kept

        def middle():
            clock.advance(2.0)
            leaf_t()
            clock.advance(0.5)

        middle_t = tracer.timed("middle", middle, keep_spans=True)

        def outer():
            clock.advance(3.0)
            middle_t()
            leaf_t()
            middle_t()

        tracer.timed("outer", outer, keep_spans=True)()
        self.assertEqual(tracer.calls, {"outer": 1, "middle": 2, "leaf": 3})
        self.assertAlmostEqual(tracer.self_s["leaf"], 3.0)
        self.assertAlmostEqual(tracer.self_s["middle"], 5.0)
        self.assertAlmostEqual(tracer.self_s["outer"], 3.0)
        outer_span, first, second = tracer.spans
        self.assertEqual(outer_span[:3], (0, "outer", None))
        self.assertEqual((outer_span[3], outer_span[4]), (0.0, 11.0))
        self.assertEqual(first[:3], (1, "middle", 0))
        self.assertEqual((first[3], first[4]), (3.0, 6.5))
        self.assertEqual(second[:3], (2, "middle", 0))

    def test_raising_call_still_closes_its_span(self):
        clock = FakeClock()
        tracer = layertrace.Tracer(clock=clock)

        def boom():
            clock.advance(1.0)
            raise ValueError

        boom_t = tracer.timed("boom", boom, keep_spans=True)
        with self.assertRaises(ValueError):
            boom_t()
        self.assertEqual(tracer.spans, [(0, "boom", None, 0.0, 1.0)])
        self.assertAlmostEqual(tracer.self_s["boom"], 1.0)


class TailRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(run.tail_bp(19))
        self.assertEqual(run.tail_bp(20), 5000)
        self.assertEqual(run.tail_bp(39), 5000)
        self.assertEqual(run.tail_bp(40), 7500)
        self.assertEqual(run.tail_bp(100), 9000)
        self.assertEqual(run.tail_bp(199), 9000)
        self.assertEqual(run.tail_bp(200), 9500)
        self.assertEqual(run.tail_bp(1000), 9900)
        self.assertEqual(run.tail_bp(10000), 9990)
        self.assertEqual(run.tail_bp(100000), 9999)

    def test_rule_leaves_ten_samples_above(self):
        for n in (20, 57, 154, 1234, 16568):
            bp = run.tail_bp(n)
            self.assertGreaterEqual(n - 1 - run.nearest_rank(n, bp), 10)
            nxt = [b for b in run.TAIL_LADDER_BP if b > bp]
            if nxt:
                self.assertLess(n - 1 - run.nearest_rank(n, nxt[0]), 10)

    def test_nearest_rank(self):
        self.assertEqual(run.nearest_rank(10, 5000), 4)
        self.assertEqual(run.nearest_rank(10, 9000), 8)
        self.assertEqual(run.nearest_rank(10, 9500), 9)
        self.assertEqual(run.nearest_rank(10, 0), 0)

    def test_smoothing_averages_eleven_ranks(self):
        values = list(range(100))
        self.assertEqual(run.smoothed_percentile(values, 5000), 49)
        self.assertEqual(run.smoothed_percentile(values, 9000), 89)
        # a gap at the median: one task crossing it moves the value by 1/11
        gap = [1.0] * 50 + [2.0] * 51
        crossed = [1.0] * 49 + [2.0] * 52
        self.assertAlmostEqual(run.smoothed_percentile(gap, 5000), 17 / 11)
        self.assertAlmostEqual(run.smoothed_percentile(crossed, 5000), 18 / 11)


# small subsets of each workload's pass, chosen by task label
SMALL = {
    "catalog": lambda label: label.endswith(":0"),
    "oracle": lambda label: label in ("window:id/gf(2)", "window:companion2/gf(2)",
                                      "window:tau(flip)/gf(2)", "b2:id", "b2:inner:0"),
    "windows": lambda label: label.split(":")[1] == "2",
    "reflect": lambda label: label.startswith("aff:4:"),
}


class TracedRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.lib = run.load_library()

    def test_traced_and_untraced_digests_agree(self):
        for name, keep in SMALL.items():
            with self.subTest(workload=name):
                tasks = [t for t in workloads.WORKLOADS[name](self.lib, 3) if keep(t[0])]
                self.assertTrue(tasks)
                plain = run.Pass(tasks)
                tracer = layertrace.Tracer()
                layertrace.install(tracer, self.lib)
                try:
                    traced = run.Pass(tasks)
                finally:
                    tracer.uninstall()
                self.assertEqual(plain.failures, [])
                self.assertEqual(traced.failures, [])
                self.assertEqual(plain.digest, traced.digest)
                missed = [n for n in workloads.EXPECTED_CALLS[name] if not tracer.calls[n]]
                self.assertEqual(missed, [])

    def test_wrappers_reach_every_binding_and_come_off(self):
        lib = self.lib
        twist = lib.twisted.twist
        self.assertIs(lib.experiments.twist, twist)
        tracer = layertrace.Tracer()
        bound = layertrace.install(tracer, lib)
        try:
            self.assertEqual(bound["twisted.twist"], 2)  # twisted and experiments
            self.assertIs(lib.experiments.twist, lib.twisted.twist)
            self.assertIs(lib.twisted.twist.__wrapped__, twist)
        finally:
            tracer.uninstall()
        self.assertIs(lib.twisted.twist, twist)
        self.assertIs(lib.experiments.twist, twist)
        self.assertNotIn("__wrapped__", vars(lib.poly.Poly.__mul__))

    def test_seed_changes_inputs_and_repeats_them(self):
        def digest(seed):
            tasks = workloads.build_reflect(self.lib, seed)
            return run.Pass([t for t in tasks if SMALL["reflect"](t[0])]).digest

        self.assertEqual(digest(1), digest(1))
        self.assertNotEqual(digest(1), digest(2))

    def test_catalog_matches_the_library_catalog(self):
        import random
        ours = [name for name, _ in workloads.catalog_entries(self.lib, random.Random(0))]
        theirs = [name for name, _ in self.lib.experiments._catalog_for_verification()]
        self.assertEqual(ours, theirs)


if __name__ == "__main__":
    unittest.main()
