#!/usr/bin/env python3
"""Tests of the benchmark command itself. Run from the repository root:

    python3 perfbench/tests/test_run.py

They build the benchmark if needed, run its C++ unit tests (when GoogleTest
is installed), and check the command's exit status and output contract.
Scratch files go under .bench_out/, which the repository ignores.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"


def run(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False, timeout=600)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class RunTest(unittest.TestCase):

    def test_unit_tests(self):
        configured = run("--workload", "hashtable", "--seed", "1",
                         "--seconds", "0.2")
        self.assertEqual(configured.returncode, 0, configured.stderr)
        subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                        "perfbench_test", "-j", "4"], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        tests = subprocess.run([str(BUILD_DIR / "perfbench_test")], cwd=ROOT,
                               stdout=subprocess.PIPE, text=True, check=False)
        self.assertEqual(tests.returncode, 0, tests.stdout[-4000:])

    def test_result_line_contract(self):
        result = run("--workload", "pagefault", "--seed", "5", "--seconds", "0.3")
        self.assertEqual(result.returncode, 0, result.stderr)
        line = last_json(result.stdout)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"])
        self.assertEqual(line["failed"], 0)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(line["metrics"]),
                         {m["name"] for m in spec["end_to_end"]})
        self.assertIn("error_rate", result.stdout)
        self.assertIn("provenance:", result.stdout)

    def test_forced_check_failure_fails_the_run(self):
        result = run("--workload", "hashtable", "--seed", "2", "--seconds", "0.3",
                     "--force-check-failure")
        self.assertNotEqual(result.returncode, 0)
        line = last_json(result.stdout)
        self.assertFalse(line["correct"])
        self.assertGreater(line["failed"], 0)
        error_rate = next(l for l in result.stdout.splitlines()
                          if l.strip().startswith("error_rate"))
        self.assertGreater(float(error_rate.split()[1]), 0)

    def test_refuses_to_run_without_the_library(self):
        bare = ROOT / ".bench_out" / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            result = run("--workload", "hashtable", "--seed", "1", "--seconds", "1",
                         cwd=bare, script=bare / "perfbench" / "run.py")
            self.assertNotEqual(result.returncode, 0)
            self.assertFalse(result.stdout.strip(), result.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
