"""Self-tests of the benchmark (generator, oracle, checks, tracing, output).

    python3 bench/tests/test_bench.py        # or: python3 -m pytest bench/tests

Standard library only; the library is imported from ``src/``.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import schubmat  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def first_ops(workload, seed, count):
    return list(itertools.islice(workloads.ops(workload, seed), count))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, env=ENV,
                          capture_output=True, text=True, timeout=170)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                ops = first_ops(workload, 5, 30)
                self.assertEqual(ops, first_ops(workload, 5, 30))
                self.assertNotEqual(ops, first_ops(workload, 6, 30))
                later = list(itertools.islice(workloads.ops(workload, 5, part=1), 30))
                self.assertNotEqual(ops, later)

    def test_products_process_repeats_earlier_folds(self):
        ops = list(workloads.ops("products", 1))
        self.assertEqual(len(ops), len(workloads.FOLD_SEQUENCE))
        for j, op in enumerate(ops):
            folds = [item["label"] for item in op["items"] if item["kind"] == "fold"]
            earlier = {item["label"] for o in ops[:j] for item in o["items"]}
            self.assertNotIn(folds[0], earlier)
            self.assertEqual(len(folds) - 1, min(j, workloads.FOLD_REPEATS))
            self.assertTrue(set(folds[1:]) <= earlier)

    def test_generated_matroids_are_what_their_labels_say(self):
        rounds = workloads.CLASSES_ROUND + workloads.CLI_ROUND
        rng = workloads.random.Random(0)
        for kind, specs in rounds:
            if kind == "product" or len(specs) > 1 or specs[0][0] not in ("Pan", "SP"):
                continue
            op = workloads.matroid_op(specs, rng)
            m = schubmat.from_bases(op["n"], op["r"], op["bases"])
            with self.subTest(specs=specs):
                if specs[0][0] == "Pan":
                    with self.assertRaises(schubmat.errors.UnsupportedMatroid):
                        schubmat.sc(m)
                else:
                    c = schubmat.classify(m)
                    k = specs[0][3]
                    self.assertEqual((c.kappa, c.is_sparse_paving, c.nonbasis_count), (1, True, k))


class OracleTest(unittest.TestCase):
    def test_hand_values(self):
        self.assertEqual(oracle.sparse_paving_degree(3, 7), 302)
        self.assertEqual(oracle.sparse_paving_degree(3, 7, 5), 252)
        self.assertEqual(oracle.sparse_paving_degree(4, 8, 6), 2296)
        self.assertEqual(oracle.sparse_paving_degree(2, 4), 4)
        self.assertEqual(oracle.minimal_degree(3, 7), 10)
        self.assertEqual(oracle.direct_sum_degree([(4, 4), (4, 4)]), 20 * 4 * 4)

    def test_degrees_agree_with_the_library(self):
        m = schubmat.direct_sum(schubmat.uniform(2, 4), schubmat.minimal(3, 6))
        cls = schubmat.sc(m).chow_class
        expected = oracle.direct_sum_degree([(4, 4), (6, oracle.minimal_degree(3, 6))])
        self.assertEqual(schubmat.sigma1_power_degree(cls, m.n - 2), expected)
        self.assertEqual(oracle.class_degree(dict(cls.terms), m.r, m.n), expected)

    def test_skew_count_matches_a_product(self):
        a, b = {(2, 1): 2, (3,): 1}, {(1, 1): 1, (2,): 3}
        amb = schubmat.Ambient(3, 7)
        prod = schubmat.product(schubmat.ChowClass(amb, a), schubmat.ChowClass(amb, b))
        self.assertEqual(oracle.class_degree(dict(prod.terms), 3, 7),
                         oracle.product_degree(a, b, 3, 7))


class CheckTest(unittest.TestCase):
    def test_wrong_expected_value_is_a_failure(self):
        for workload in ("classes", "products"):
            ops = first_ops(workload, 1, 4)
            target = ops[2]["items"][1] if workload == "products" else ops[2]
            target["expect"]["degree"] += 1
            result = worker.run(workload, 1, lib=schubmat, op_stream=iter(ops))
            with self.subTest(workload=workload):
                self.assertEqual(result["attempted"], 4)
                self.assertEqual(len(result["latencies"]), 3)  # a failed op adds no latency
                self.assertEqual(len(result["failures"]), 1, result["failures"])
                self.assertIn("op 2 ", result["failures"][0])

    def test_cli_exit_status_is_checked(self):
        op = next(o for o in first_ops("cli-cold", 1, 40) if "raises" in o["expect"])
        self.assertEqual(worker.check_cli(op, {"code": 1, "stdout": "", "stderr": "UnsupportedMatroid\n"}), [])
        self.assertTrue(worker.check_cli(op, {"code": 0, "stdout": "", "stderr": ""}))

    def test_default_seed_matches_reference(self):
        reference = json.loads(worker.REFERENCE.read_text())
        for workload in ("classes", "products"):
            result = worker.run(workload, workloads.DEFAULT_SEED, rounds=1, lib=schubmat,
                                reference=reference[workload])
            with self.subTest(workload=workload):
                self.assertEqual(result["failures"], [])

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        cases = {10: 50, 20: 50, 100: 90, 199: 90, 200: 95, 999: 95, 1000: 99}
        for count, p in cases.items():
            self.assertEqual(run.tail_percentile(count), p, count)

    def test_percentile_is_the_mean_around_the_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile([7.0], 50), 7.0)


class SpeedTest(unittest.TestCase):
    def test_latency_is_scaled_by_the_nearby_samples(self):
        probe = speed.SpeedProbe()
        probe.times = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2]
        probe.costs = [speed.NOMINAL_S] * 3 + [2 * speed.NOMINAL_S] * 3
        self.assertAlmostEqual(probe.factor(0.05, 0.15), 1.0)
        self.assertAlmostEqual(probe.factor(10.05, 10.1), 0.5)
        self.assertAlmostEqual(probe.factor(5.0, 5.0), 1.0)  # nearest three: 0.1, 0.2, 10.0
        self.assertAlmostEqual(probe.relative_speed(), 1.5)


class TracingTest(unittest.TestCase):
    def traced(self, call):
        original = schubmat.matroids.classify
        tracer = tracing.Tracer().install()
        try:
            call()
        finally:
            tracer.uninstall()
        self.assertIs(schubmat.orbit.classify, original)
        return {name: calls for name, (calls, _, _) in tracer.per_name().items()}, tracer

    def test_sc_of_a_triple_sum(self):
        m = schubmat.direct_sum(schubmat.direct_sum(schubmat.uniform(2, 5), schubmat.uniform(3, 6)),
                                schubmat.uniform(2, 4))
        calls, _ = self.traced(lambda: schubmat.sc(m))
        self.assertEqual(calls["matroids.classify"], 4)
        self.assertEqual(calls["matroids.circuits"], 19)

    def test_verify_uniform_3_7(self):
        m = schubmat.uniform(3, 7)
        calls, tracer = self.traced(lambda: schubmat.verify_volume_relation(m))
        self.assertEqual(calls["matroids.classify"], 3)
        self.assertEqual(calls["matroids.circuits"], 15)
        self.assertEqual(calls["polytope.lattice_points"], 8)
        metrics = tracer.layer_metrics(1)
        self.assertEqual(metrics["polytope.lattice_points.points"], sum(
            schubmat.lattice_points(m, t) for t in range(8)))
        self.assertGreater(metrics["polytope.self_s"], 0)


    def test_products_process_reuses_lr_arguments(self):
        tracer = tracing.Tracer().install()
        try:
            result = worker.run("products", 7, lib=schubmat, tracer=tracer, part=3)
        finally:
            tracer.uninstall()
        self.assertEqual(result["failures"], [])
        ratio = tracer.layer_metrics(result["attempted"])["chow.lr_coefficient.distinct_ratio"]
        self.assertGreater(ratio, 0.2)
        self.assertLess(ratio, 0.8)


class OutputTest(unittest.TestCase):
    def declared(self, key):
        return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]]

    def check_output(self, proc, names):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for name in names + ["failed_ratio"]:
            self.assertTrue(any(line.split()[:1] == [name] for line in lines[:-1]), name)

    def test_every_end_to_end_metric_is_printed(self):
        self.check_output(run_bench("--workload", "products", "--seconds", "2"),
                          self.declared("end_to_end"))

    def test_every_per_layer_metric_is_printed(self):
        proc = run_bench("--workload", "cli-cold", "--seconds", "2", "--trace", "1")
        self.check_output(proc, self.declared("per_layer"))
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        self.assertGreater(metrics["cli.main.s"]["value"], 0)
        self.assertGreater(metrics["cli.spawn_s"]["value"], 0)
        self.assertGreater(metrics["chow.lr_coefficient.distinct_ratio"]["value"], 0)

    def test_without_the_library_it_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, Path(bare) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "classes", "--seconds", "1", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(any(line.startswith("{") for line in proc.stdout.splitlines()))


if __name__ == "__main__":
    unittest.main()
