#!/usr/bin/env python3
"""End-to-end tests of the benchmark command.

    python3 perfbench/tests/test_run.py          # from the repository root

Builds and runs the helper unit tests (perfbench_tests), then runs every
workload once untraced and once traced on a seed the benchmark was not tuned
on, with a short --seconds, and requires every correctness check to pass and
the result line to match BENCHMARK.json. Takes a few minutes: libgen_cold
trains a library in each mode.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402

SECOND_SEED = 4242


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SECOND_SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, proc.stdout.rstrip("\n").split("\n")


class HelperUnitTests(unittest.TestCase):
    def test_helpers(self):
        binary = run.build("perfbench_tests")
        self.assertEqual(subprocess.run([str(binary)]).returncode, 0)


class SecondSeed(unittest.TestCase):
    """Each workload on a second seed passes every correctness check."""

    def check(self, workload, trace):
        code, lines = bench(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines[-20:]))
        result = json.loads(lines[-1])
        spec = run.load_spec()
        want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        self.assertEqual({k: m["unit"] for k, m in result["metrics"].items()}, want)
        self.assertTrue(result["correct"], lines[-2])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def test_workloads(self):
        for workload in [w["name"] for w in run.load_spec()["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = self.check(workload, trace)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)


class Contract(unittest.TestCase):
    def test_rejects_unknown_workload(self):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "nope",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_units_come_from_the_spec(self):
        spec = run.load_spec()
        values = {m["name"]: 1.0 for m in spec["end_to_end"]}
        line = {"correct": True, "attempted": 1, "failed": 0, "metrics": values}
        result = run.contract_result(json.dumps(line), spec, False)
        for m in spec["end_to_end"]:
            self.assertEqual(result["metrics"][m["name"]], {"value": 1.0, "unit": m["unit"]})
        values.pop(spec["end_to_end"][0]["name"])
        with self.assertRaises(ValueError):
            run.contract_result(json.dumps(line), spec, False)
        values["not_in_spec"] = 2.0
        with self.assertRaises(ValueError):
            run.contract_result(json.dumps(line), spec, True)

    def test_traced_run_fills_uncalled_layers_with_zero(self):
        spec = run.load_spec()
        first = spec["per_layer"][0]["name"]
        line = {"correct": True, "attempted": 1, "failed": 0, "metrics": {first: 3.5}}
        metrics = run.contract_result(json.dumps(line), spec, True)["metrics"]
        self.assertEqual(len(metrics), len(spec["per_layer"]))
        self.assertEqual(metrics[first]["value"], 3.5)
        self.assertEqual(metrics[spec["per_layer"][1]["name"]]["value"], 0.0)

if __name__ == "__main__":
    unittest.main()
