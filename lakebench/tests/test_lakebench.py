"""The benchmark's own tests, on its small-size mode (seconds per run).

    python3 lakebench/tests/test_lakebench.py

Builds lakebench through run.py, then checks that every metric
BENCHMARK.json names is emitted on every workload, that simulated
metrics repeat exactly for a seed, and that the correctness checks trip
on an injected wrong result.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402

WORKLOADS = ["analyst_queries", "pipeline_devloop", "nightly_refresh"]
BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build()


def lakebench(workload, seed=1, trace=0, extra=()):
    """Runs one small measurement; returns (exit code, report, result)."""
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
         "1", "--trace", str(trace), "--small", *extra],
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2])["lakebench_report"] if len(lines) > 1 else None
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, report, result


def names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[kind]]


class MetricsTest(unittest.TestCase):
    def test_end_to_end_metrics_on_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, report, result = lakebench(workload)
                self.assertEqual(code, 0, report)
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(set(result["metrics"]), set(names("end_to_end")))
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_per_layer_metrics_on_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, report, result = lakebench(workload, trace=1)
                self.assertEqual(code, 0, report)
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), set(names("per_layer")))
                self.assertTrue(report["sim_repeatable"])

    def test_report_records_seed_host_and_sizes(self):
        _, report, _ = lakebench("nightly_refresh", seed=5)
        self.assertEqual(report["seed"], 5)
        for key in ("nproc", "build_type", "compiler"):
            self.assertIn(key, report["host"])
        for key in ("taxi_rows", "lake_bytes", "input_bytes",
                    "artifact_bytes_per_run", "query_cache_budget_bytes",
                    "artifact_cache_budget_bytes"):
            self.assertIn(key, report["sizes"])


class DeterminismTest(unittest.TestCase):
    def test_simulated_metrics_repeat_for_a_seed(self):
        sim = [m for m in names("end_to_end")
               if "_sim_" in m or m in ("credits_per_op",
                                        "stored_bytes_per_input_byte")]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = lakebench(workload, seed=3)[2]["metrics"]
                second = lakebench(workload, seed=3)[2]["metrics"]
                for name in sim:
                    self.assertEqual(first[name], second[name], name)

    def test_another_seed_gives_other_inputs_and_the_same_metrics(self):
        a = lakebench("analyst_queries", seed=1)
        b = lakebench("analyst_queries", seed=2)
        self.assertEqual(list(a[2]["metrics"]), list(b[2]["metrics"]))
        self.assertNotEqual(a[2]["metrics"]["op_sim_p50_ms"],
                            b[2]["metrics"]["op_sim_p50_ms"])


class CorrectnessTest(unittest.TestCase):
    def test_injected_wrong_result_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, report, result = lakebench(
                    workload, extra=["--inject-wrong-result"])
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertTrue(report["failures"])

    def test_usage_errors_exit_2_without_a_result(self):
        for args in (["--workload", "nope"],
                     ["--workload", "analyst_queries", "--trace", "2"],
                     ["--workload", "analyst_queries", "--bogus"]):
            proc = subprocess.run([BINARY, *args], capture_output=True,
                                  text=True, timeout=60)
            self.assertEqual(proc.returncode, 2, args)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
