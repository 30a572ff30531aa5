"""Tests of the benchmark itself.

    python3 perfbench/test_counts.py            # about 4 minutes

The exact counters of a traced run (graphs enumerated, admissible ratio,
calls per layer, compose calls, group elements) must repeat exactly for the
same seed, so a later change can rest a claim on them.  Each run is a fresh
process.  Also checks that BENCHMARK.json lists exactly the metrics the
benchmark prints.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

import layers
import run
from workloads import WORKLOADS

COUNT_UNITS = ("count", "ratio")


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in COUNT_UNITS}


class CountsRepeat(unittest.TestCase):
    def test_counts_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = traced_counts(workload, seed=7)
                self.assertEqual(first, traced_counts(workload, seed=7))
                self.assertGreater(first["signedperm.compose.calls"], 0)
                self.assertGreater(first["group.elements"], 0)


class BenchmarkJson(unittest.TestCase):
    def test_metric_lists_match(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(layers.metric_specs()))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
