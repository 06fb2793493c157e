#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny inputs.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench/tests -v

The first run builds the benchmark (see perfbench/run.py).
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
# proto-commit is runnable but not gated (see perfbench/src/workloads.h).
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + ["proto-commit"]
BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build()
    if BINARY is None:
        raise RuntimeError("benchmark build failed")


def bench(workload, seed=1, trace=0, extra=()):
    """Runs the benchmark on tiny inputs; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--tiny", *extra]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=170)
    return r.returncode, r.stdout.splitlines()


def result(lines):
    return json.loads(lines[-1])


class OutputContract(unittest.TestCase):
    def check_run(self, workload, trace, listed):
        code, lines = bench(workload, trace=trace)
        self.assertEqual(code, 0, "\n".join(lines))
        res = result(lines)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        for name, m in res["metrics"].items():
            self.assertRegex(name, NAME_RE)
            self.assertEqual(set(m), {"value", "unit"})
            self.assertIsInstance(m["value"], (int, float))
        self.assertEqual(set(res["metrics"]), {m["name"] for m in listed})
        for m in listed:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
        printed = [l.split()[1] for l in lines[:-1]
                   if l.startswith(("metric ", "info "))]
        for name in printed:
            self.assertRegex(name, NAME_RE)
        return res, lines

    def test_untraced_prints_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res, lines = self.check_run(w, 0, BENCH["end_to_end"])
                for m in BENCH["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0)
                self.assertTrue(any(l.startswith("info failed_frac ")
                                    for l in lines))

    def test_traced_prints_every_per_layer_metric(self):
        # The traced run also checks that the wrapped engine reproduces
        # run_volume's counters exactly and that the standalone adapter
        # matches the policy's; a mismatch makes it exit non-zero.
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 1, BENCH["per_layer"])

    def test_proto_commit_prints_commit_metrics(self):
        _, lines = bench("proto-commit")
        for name in ("commit_kops", "commit_p50_us", "commit_p99_us"):
            self.assertTrue(any(l.startswith(f"info {name} ") for l in lines),
                            name)

    def test_output_is_stamped(self):
        _, lines = bench("cloud-adapt")
        stamp = dict(l[2:].split("=", 1) for l in lines
                     if l.startswith("# ") and "=" in l and " " not in
                     l[2:].split("=", 1)[0])
        for key in ("seed", "nproc", "cpu_model", "compiler", "NDEBUG",
                    "__OPTIMIZE__", "ADAPT_TRACING_COMPILED"):
            self.assertIn(key, stamp)

    def test_metric_map_covers_per_layer_metrics(self):
        with open(os.path.join(ROOT, "perfbench", "metric_map.json")) as f:
            mp = json.load(f)
        self.assertEqual(set(mp["per_layer_moves"]),
                         {m["name"] for m in BENCH["per_layer"]})
        self.assertIsInstance(mp["held_out_seed"], int)


class Determinism(unittest.TestCase):
    @staticmethod
    def counters_hash(lines):
        for l in lines:
            if l.startswith("# simulated_counters_hash="):
                return l.split("=", 1)[1]
        raise AssertionError("no simulated_counters_hash line")

    def test_same_seed_gives_identical_simulated_counters(self):
        for w in ("cloud-adapt", "ycsb-sepgc"):
            with self.subTest(workload=w):
                a = self.counters_hash(bench(w, seed=7)[1])
                b = self.counters_hash(bench(w, seed=7)[1])
                c = self.counters_hash(bench(w, seed=8)[1])
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)


class Failures(unittest.TestCase):
    def test_unknown_workload_fails(self):
        code, lines = bench("no-such-workload")
        self.assertNotEqual(code, 0)
        self.assertFalse(lines and lines[-1].startswith("{"))

    def test_fails_without_program_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "cloud-adapt", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=d, env=env, capture_output=True, text=True,
                timeout=170)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"metrics"', r.stdout)


if __name__ == "__main__":
    unittest.main()
