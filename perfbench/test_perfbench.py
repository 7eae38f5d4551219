"""Self-tests of the benchmark: tracing, correctness gates, inputs, metric names.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import queries  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class TestSelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # a [0, 10] holds b [1, 5] (which holds c [2, 4]) and b [6, 8].
        t = tracer.Tracer(clock=FakeClock([0, 1, 2, 4, 5, 6, 8, 10]))
        t.enter("a")
        t.enter("b")
        t.enter("c")
        t.exit()
        t.exit()
        t.enter("b")
        t.exit()
        t.exit()
        self.assertEqual(t.self_s, {"c": 2, "b": 4, "a": 4})
        self.assertEqual(t.total_s, {"c": 2, "b": 6, "a": 10})
        self.assertEqual(t.calls, {"c": 1, "b": 2, "a": 1})

    def test_recursion_counts_each_level_once(self):
        t = tracer.Tracer(clock=FakeClock([0, 1, 3, 7]))
        t.enter("f")
        t.enter("f")
        t.exit()
        t.exit()
        self.assertEqual(t.self_s["f"], 7)
        self.assertEqual(t.calls["f"], 2)

    def test_span_closes_when_the_call_raises(self):
        t = tracer.Tracer(clock=FakeClock([0, 1]))

        def boom():
            raise ValueError

        with self.assertRaises(ValueError):
            tracer._span(t, "boom", boom)()
        self.assertEqual((t.calls["boom"], t.stack), (1, []))


class TestCorrectnessGate(unittest.TestCase):
    CLAIMS = ["Eq1-relations", "Lem4-certificates"]

    def result(self, claim, verdict="pass", checks=None):
        checks = run.REFERENCE_CHECKS[claim] if checks is None else checks
        return {"claim": claim, "verdict": verdict, "checks": checks, "seconds": 1.0}

    def test_reference_results_pass(self):
        ops = run.check_claims(self.CLAIMS, [self.result(c) for c in self.CLAIMS])
        self.assertEqual([op.error for op in ops], [None, None])

    def test_wrong_checks_count_fails(self):
        results = [self.result("Eq1-relations"), self.result("Lem4-certificates", checks=1793)]
        errors = [op.error for op in run.check_claims(self.CLAIMS, results)]
        self.assertIsNone(errors[0])
        self.assertIn("1793 checks", errors[1])

    def test_wrong_verdict_and_missing_claim_fail(self):
        ops = run.check_claims(self.CLAIMS, [self.result("Eq1-relations", verdict="fail")])
        self.assertEqual(sum(op.error is not None for op in ops), 2)

    def test_wrong_query_answers_fail(self):
        count = queries.Query([], "count", expect_count=36)
        self.assertIsNone(queries.check(count, 0, "36\n"))
        self.assertIsNotNone(queries.check(count, 0, "35\n"))
        self.assertIsNotNone(queries.check(count, 2, "36\n"))
        listing = "1 0 0\n0 1 0\n"
        enum = queries.Query([], "enumerate", expect_count=2,
                             expect_digest=queries.lines_digest(listing))
        self.assertIsNone(queries.check(enum, 0, "0 1 0\n1 0 0\n"))
        self.assertIsNotNone(queries.check(enum, 0, "1 0 0\n0 1 1\n"))
        param = queries.Query([], "param", expect_text="field gf 3\n1 2\n")
        self.assertIsNotNone(queries.check(param, 0, "field gf 3\n1 1\n"))

    def test_failed_operations_do_not_count_towards_latency(self):
        ops = [run.Op("a", 1.0, None), run.Op("b", 5.0, "wrong")]
        unit = run.Unit(1.0, ops, ops)
        metrics = run.end_to_end_metrics([0.1], [unit])
        self.assertEqual(metrics["query_p50_s"], 1.0)


class TestTracedBindings(unittest.TestCase):
    def setUp(self):
        import plucker.cli  # noqa: F401  (loads every plucker module)

    def test_install_wraps_every_holder_and_uninstall_restores(self):
        import plucker.certificates
        import plucker.claims
        import plucker.cli
        import plucker.varieties

        before = tracer.bindings()
        original = plucker.varieties.membership
        t = tracer.Tracer()
        done = tracer.install(t)
        try:
            self.assertEqual(done.absent, [])
            self.assertIsNot(plucker.varieties.membership, original)
            self.assertIs(plucker.cli.membership, plucker.varieties.membership)
            self.assertIs(plucker.claims.verify_certificate, plucker.certificates.verify_certificate)
            self.assertTrue(hasattr(plucker.claims.verify_certificate, "__wrapped__"))
            from plucker.subsets import KSubset

            spec = plucker.varieties.w_spec(KSubset((1, 2), 4), KSubset((3, 4), 4))
            self.assertEqual(plucker.varieties.count_points(spec, 2), 4)
        finally:
            tracer.uninstall(done)
        self.assertEqual(tracer.bindings(), before)
        self.assertEqual(t.calls["varieties.count_points"], 1)
        self.assertEqual(t.calls["varieties.membership"], 35)  # every point of Gr(2,4)/GF(2)
        self.assertEqual(t.counters["varieties.enumerate_grassmannian.points"], 35)

    def test_missing_targets_are_reported_absent(self):
        before = tracer.bindings()
        targets = {"varieties": ("membership", "no_such_function"), "no_such_layer": ("f",)}
        done = tracer.install(tracer.Tracer(), targets)
        tracer.uninstall(done)
        self.assertEqual(done.absent, ["varieties.no_such_function", "no_such_layer.f"])
        self.assertEqual(tracer.bindings(), before)


class TestInputs(unittest.TestCase):
    ref = queries.load_reference()

    def test_batch_is_a_function_of_the_seed(self):
        argvs = [[q.argv for q in queries.make_batch(s, self.ref)] for s in (1, 1, 2)]
        self.assertEqual(argvs[0], argvs[1])
        self.assertNotEqual(argvs[0], argvs[2])

    def test_batch_mix_is_fixed(self):
        def shape(query):
            flags = dict(zip(query.argv[1::2], query.argv[2::2]))
            return query.kind, flags.get("--k"), flags.get("--n"), flags.get("--q")

        mixes = [sorted(map(shape, queries.make_batch(s, self.ref)), key=str) for s in range(5)]
        self.assertEqual(len(mixes[0]), 24)
        self.assertTrue(all(m == mixes[0] for m in mixes))

    def test_banded_files_round_trip_in_process(self):
        from plucker import format_matrix, parse_matrix, phi, psi
        from plucker.subsets import KSubset

        rng = random.Random(5)
        for k, n, p in queries.PARAM_CASES:
            beta, gamma, text = queries.banded_matrix(rng, k, n, p)
            b, g = KSubset(beta, n), KSubset(gamma, n)
            m = parse_matrix(text)
            self.assertEqual(format_matrix(m), text)
            self.assertEqual(format_matrix(psi(phi(m, b, g), b, g)), text)

    def test_closed_forms(self):
        self.assertEqual(queries.gaussian_binomial(6, 3, 3), 33880)
        self.assertEqual(queries.w_count((1, 2), (3, 4), 3), 36)


class TestBenchmarkJson(unittest.TestCase):
    def test_metric_names_match_what_the_benchmark_emits(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.end_to_end_names())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.per_layer_names())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_layer_metrics_cover_every_name(self):
        values = run.layer_metrics(run.Unit(1.0, [], []), 0.5)
        self.assertEqual(list(values), [name for name, _ in run.per_layer_names()])
        self.assertEqual(values["trace.overhead_s"], 0.5)


if __name__ == "__main__":
    unittest.main()
