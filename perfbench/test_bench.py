#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny inputs (about a minute after the
first build). Run from the root of the checkout:

    python3 perfbench/test_bench.py

They check that every metric BENCHMARK.json names is printed with its unit,
that the correctness gates fire on corrupted results (and make the run exit
non-zero), that the traced solve reproduces the untraced b bit for bit, and
that the traced run's counts repeat exactly.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace=0, seed=7, corrupt=None, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return p.returncode, result, lines


def note(lines, prefix):
    for line in lines:
        if line.startswith("# " + prefix):
            return line[len("# " + prefix):].split()[0]
    return None


class MetricsNamedWithUnits(unittest.TestCase):
    def check(self, workload, trace, spec):
        code, result, _ = run(workload, trace=trace)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[spec]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        return result

    def test_end_to_end(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result = self.check(w["name"], 0, "end_to_end")
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 1, "per_layer")


class GatesFire(unittest.TestCase):
    def assert_refused(self, workload, corrupt):
        code, result, lines = run(workload, corrupt=corrupt)
        self.assertNotEqual(code, 0)
        self.assertGreater(float(note(lines, "error_rate")), 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)  # error_rate > 0

    def test_corrupted_b(self):
        self.assert_refused("coreness-threads", "b")
        self.assert_refused("coreness-ranks", "b")

    def test_wrong_service_coreness(self):
        self.assert_refused("service-churn", "service")


class TracedRun(unittest.TestCase):
    def test_traced_b_matches_untraced(self):
        for w in ("coreness-threads", "coreness-ranks"):
            with self.subTest(workload=w):
                code, _, lines = run(w, trace=1)
                self.assertEqual(code, 0)
                self.assertIsNotNone(note(lines, "b digest"))
                self.assertEqual(note(lines, "traced b digest"),
                                 note(lines, "b digest"))

    def test_threads_never_call_exchange(self):
        _, result, _ = run("coreness-threads", trace=1)
        m = result["metrics"]
        self.assertEqual(m["transport.exchange_calls"]["value"], 0)
        self.assertGreater(m["engine.node_rounds"]["value"], 0)

    def test_counts_repeat(self):
        counts = {"coreness-ranks": ["engine.node_rounds", "engine.messages",
                                     "transport.bcast_bytes"],
                  "service-churn": ["dynamic.recomputations_per_update",
                                    "dynamic.changed_per_update"]}
        for w, names in counts.items():
            with self.subTest(workload=w):
                a = run(w, trace=1)[1]["metrics"]
                b = run(w, trace=1)[1]["metrics"]
                for name in names:
                    self.assertGreater(a[name]["value"], 0, name)
                    self.assertEqual(a[name]["value"], b[name]["value"], name)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_repository(self):
        build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
        os.makedirs(build, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result, _ = run("coreness-threads", cwd=d)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main(verbosity=2)
