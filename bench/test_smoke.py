"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m unittest bench/test_smoke.py

Checks that every workload runs clean, that the metric names and units
the harness prints are the ones BENCHMARK.json declares, and that the
exact counts repeat for the same seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[section]}


def printed(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


class SmokeTest(unittest.TestCase):
    def test_declared_workloads_exist(self):
        self.assertEqual([w["name"] for w in DECLARED["workloads"]], list(workloads.BUILDERS))

    def test_untraced_run_prints_end_to_end_metrics(self):
        for name in workloads.BUILDERS:
            with self.subTest(workload=name):
                result = run.run_workload(name, seed=3, seconds=0, trace=False, tiny=True)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(printed(result), declared("end_to_end"))
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_run_prints_per_layer_metrics_and_counts_repeat(self):
        for name in workloads.BUILDERS:
            with self.subTest(workload=name):
                first = run.run_workload(name, seed=5, seconds=0, trace=True, tiny=True)
                again = run.run_workload(name, seed=5, seconds=0, trace=True, tiny=True)
                self.assertTrue(first["correct"] and again["correct"])
                self.assertEqual(printed(first), declared("per_layer"))
                counts = {k for k in first["metrics"] if not k.endswith("_s")}
                for key in counts:
                    self.assertEqual(first["metrics"][key], again["metrics"][key], key)

    def test_same_seed_same_inputs(self):
        for name in workloads.BUILDERS:
            with self.subTest(workload=name), \
                    tempfile.TemporaryDirectory(prefix=".bench-", dir=run.ROOT) as a, \
                    tempfile.TemporaryDirectory(prefix=".bench-", dir=run.ROOT) as b:
                wa = workloads.build(name, 7, Path(a), tiny=True)
                wb = workloads.build(name, 7, Path(b), tiny=True)
                self.assertEqual(wa.inputs, wb.inputs)
                files_a, files_b = sorted(Path(a).iterdir()), sorted(Path(b).iterdir())
                self.assertEqual([f.name for f in files_a], [f.name for f in files_b])
                for fa, fb in zip(files_a, files_b):
                    self.assertEqual(fa.read_bytes(), fb.read_bytes(), fa.name)

    def test_main_prints_json_last(self):
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "audit-sweep",
             "--seconds", "0", "--seed", "1"],
            capture_output=True, text=True, check=True, timeout=180,
        ).stdout.strip().splitlines()
        result = json.loads(out[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(any("seed=1" in line for line in out[:-1]))


if __name__ == "__main__":
    unittest.main()
