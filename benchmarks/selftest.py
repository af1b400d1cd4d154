"""Self-tests of the benchmark's own arithmetic and of its contract file.

Run from the repository root:  python3 benchmarks/selftest.py
"""

from __future__ import annotations

import json
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

import run
from benchlib import Tracer, count_failed, self_times, tail_percentile


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] has children [1, 4] and [5, 9]; [5, 9] has child [6, 8]
        spans = [(0, 0.0, 10.0, -1, 0), (1, 1.0, 4.0, 0, 0),
                 (1, 5.0, 9.0, 0, 0), (2, 6.0, 8.0, 2, 0)]
        self.assertEqual(self_times(spans), [3.0, 3.0, 2.0, 2.0])

    def test_self_times_of_traced_calls_add_up_to_the_root(self):
        box = SimpleNamespace()
        box.inner = lambda x: x + 1
        box.outer = lambda x: box.inner(x) + box.inner(x)
        inner, outer = box.inner, box.outer
        tracer = Tracer()
        targets = [(box, "outer", "m.outer", False), (box, "inner", "m.inner", True)]
        with tracer.installed(targets, pass_id=3):
            self.assertEqual(box.outer(1), 4)
        self.assertIs(box.inner, inner)
        self.assertIs(box.outer, outer)
        self.assertEqual([tracer.names[s[0]] for s in tracer.spans],
                         ["m.outer", "m.inner", "m.inner"])
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0, 0])
        self.assertEqual({s[4] for s in tracer.spans}, {3})
        self.assertEqual(tracer.results, {1: ((1,), 2), 2: ((1,), 2)})
        root = tracer.spans[0][2] - tracer.spans[0][1]
        self.assertAlmostEqual(sum(self_times(tracer.spans)), root, places=12)

    def test_a_raising_call_still_closes_its_span(self):
        def fail():
            raise ValueError("boom")
        box = SimpleNamespace(fail=fail)
        tracer = Tracer()
        with tracer.installed([(box, "fail", "m.fail", False)], pass_id=0):
            with self.assertRaises(ValueError):
                box.fail()
        self.assertIs(box.fail, fail)
        self.assertEqual(len(tracer.spans), 1)
        self.assertLessEqual(tracer.spans[0][1], tracer.spans[0][2])

    def test_one_function_under_two_names_gets_one_wrapper(self):
        def solve():
            return 1
        a, b = SimpleNamespace(solve=solve), SimpleNamespace(solve=solve)
        tracer = Tracer()
        targets = [(a, "solve", "m.solve", False), (b, "solve", "m.solve", False)]
        with tracer.installed(targets, pass_id=0):
            self.assertIs(a.solve, b.solve)
            a.solve()
            b.solve()
        self.assertEqual(tracer.names, ["m.solve"])
        self.assertEqual(len(tracer.spans), 2)


class TailPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertEqual(tail_percentile(list(range(1000)), 99), 989)
        self.assertIsNone(tail_percentile(list(range(999)), 99))
        self.assertEqual(tail_percentile(list(range(100)), 90), 89)
        self.assertIsNone(tail_percentile(list(range(99)), 90))
        self.assertIsNone(tail_percentile([], 50))

    def test_order_of_samples_does_not_matter(self):
        samples = [float(v) for v in range(100)]
        self.assertEqual(tail_percentile(samples[::-1], 50), 49.0)


class FailureCountTest(unittest.TestCase):
    def test_an_operation_failing_two_checks_counts_once(self):
        failures = [((0, "a"), "x"), ((0, "a"), "y"), ((1, "a"), "x"), ((0, "b"), "z")]
        self.assertEqual(count_failed(failures), 3)
        self.assertEqual(count_failed([]), 0)

    def test_simulate_counts_each_run(self):
        ctx = SimpleNamespace(config=SimpleNamespace(validate_densities=(2, 20, 500),
                                                     sim_seeds=1))
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            out = Path(tmp)
            (out / "validate.csv").write_text(
                "density,rel_deviation\n2,0.004\n20,0.03\n", encoding="utf-8")
            ops, failures, ratio = run.check_simulate(ctx, out, 0)
        self.assertEqual(len(ops), 3)
        self.assertEqual(sorted(op for op, _ in failures), [(20, 0), (500, 0)])
        self.assertAlmostEqual(ratio, 1.0 - (0.004 + 0.03) / 2)

    def test_a_failed_command_fails_every_cell(self):
        ctx = SimpleNamespace(config=SimpleNamespace(
            test_densities=(2, 6), b_pct_sweep=(0.0, 20.0), n_est=50))
        ops, failures, ratio = run.check_generalize(ctx, Path("."), 1)
        self.assertEqual(len(ops), 4)
        self.assertEqual(count_failed(failures), 4)
        self.assertEqual(ratio, 0.0)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_what_run_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
            self.assertEqual(listed, table, key)


if __name__ == "__main__":
    unittest.main()
