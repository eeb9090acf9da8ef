"""Tests of the benchmark itself: tracing changes no output, puts back every
attribute it wrapped, and nests spans per thread under the verify pool.

    python3 -m unittest discover -s perfbench/tests -v
"""

import shutil
import subprocess
import sys
import tempfile
import threading
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402


def _bindings(modules):
    """Every (holder, key) -> value the tracer may rebind."""
    out = {}
    for name, module in modules.items():
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, dict) and not attr.startswith("__"):
                for key, item in value.items():
                    out[(name, attr, key)] = item
            if isinstance(value, type):
                for key, item in vars(value).items():
                    out[(name, attr, "class", key)] = item
    return out


class TracedRunsMatchUntraced(unittest.TestCase):
    def test_outputs_are_identical(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                plain, _ = run.start_run(workload, 3, trace=False, small=True)
                traced, _ = run.start_run(workload, 3, trace=True, small=True)
                self.assertEqual(plain["failed"], 0)
                self.assertEqual(traced["failed"], 0)
                # gate: sha256 of the CLI's stdout, byte for byte
                self.assertEqual(plain["digest"], traced["digest"])
                self.assertNotIn("layers", plain)
                self.assertGreater(traced["layers"]["laurent.self_s"], 0)
                setup, _ = run.start_run(workload, 3, False, small=True, setup_only=True)
                self.assertEqual(sorted(setup), ["setup_s", "setup_scale"])
                self.assertGreater(setup["setup_s"] * setup["setup_scale"], 0)


class TracerBinding(unittest.TestCase):
    def test_every_wrapped_attribute_is_restored(self):
        modules = spans._package_modules()
        before = _bindings(modules)
        tracer = spans.Tracer()
        tracer.install()
        try:
            from cluster_friezes import cli, laurent, mutation, tropical, verify

            during = _bindings(modules)
            changed = {k for k in before if during.get(k) is not before[k]}
            self.assertIn(("laurent", "poly_gcd"), changed)
            self.assertIn(("", "poly_gcd"), changed)  # package re-export
            self.assertIn(("cli", "seed_at"), changed)  # from .mutation import
            self.assertIn(("verify", "SUITES", "periodicity"), changed)
            self.assertIn(("tropical", "_RULES", "A"), changed)
            self.assertIs(laurent.RationalFunction.__mul__, laurent.RationalFunction.__rmul__)
            self.assertIs(verify.SUITES["pairing"], verify.suite_pairing)
            self.assertIs(cli.run_all, verify.run_all)
            self.assertIs(mutation.seed_at, cli.seed_at)
            self.assertIsNot(tropical.TropPoint.coords_at, before[("tropical", "TropPoint", "class", "coords_at")])
        finally:
            tracer.uninstall()
        after = _bindings(modules)
        self.assertEqual(before.keys(), after.keys())
        self.assertEqual([k for k in before if after[k] is not before[k]], [])


class PoolSpans(unittest.TestCase):
    def test_spans_nest_within_each_pool_thread(self):
        from cluster_friezes import verify

        tracer = spans.Tracer()
        tracer.install()
        try:
            results = verify.run_all(types=("A2", "B2"), trials=4)
        finally:
            tracer.uninstall()
        self.assertTrue(all(r.passed for r in results))
        names = tracer.span_names
        main = threading.current_thread().name
        suite_threads = {}
        for th in tracer.threads:
            self.assertEqual(th.stack, [])
            for i in range(len(th.names)):
                start, end, p = th.starts[i], th.ends[i], th.parents[i]
                self.assertLessEqual(start, end)
                if p >= 0:
                    self.assertLess(p, i)
                    self.assertLessEqual(th.starts[p], start)
                    self.assertLessEqual(end, th.ends[p])
                name = names[th.names[i]]
                if name.removeprefix("verify.") in spans.SUITE_NAMES:
                    suite_threads[name] = th.thread
                    self.assertEqual(names[th.names[p]], "verify.run_suite")
        self.assertEqual(len(suite_threads), len(spans.SUITE_NAMES))
        self.assertNotIn(main, suite_threads.values())
        self.assertGreater(len(set(suite_threads.values())), 1)
        metrics = tracer.layer_metrics()
        suite_sum = sum(metrics[f"verify.{s}.span_s"] for s in spans.SUITE_NAMES)
        self.assertGreater(metrics["verify.run_all.span_s"], 0)
        self.assertLessEqual(
            max(metrics[f"verify.{s}.span_s"] for s in spans.SUITE_NAMES),
            metrics["verify.run_all.span_s"],
        )
        self.assertGreater(suite_sum, 0)


class Guards(unittest.TestCase):
    def test_refuses_when_package_already_imported(self):
        import cluster_friezes  # noqa: F401
        import worker

        self.assertEqual(worker.main(["--workload", "y-walk", "--seed", "1",
                                      "--started-at", "0"]), 3)
        self.assertEqual(run.main(["--workload", "y-walk", "--seed", "1",
                                   "--seconds", "1"]), 3)

    def test_fails_without_package_source(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / BENCH.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, f"{BENCH.name}/run.py", "--workload", "gate",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_tail_keeps_ten_samples_beyond(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, "max of 3"))
        value, label = run.tail(list(range(100)))
        self.assertEqual(value, 89)
        self.assertEqual(label, "p90.0 of 100")


if __name__ == "__main__":
    unittest.main()
