"""A traced benchmark run of each workload ends in a well-formed result.

The traced runs wrap the package's bindings; a run that breaks on one still
exits 0 and reports its metrics as "missing", so the result is read here.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.splitlines()
    assert json.loads(record_line)["record"]["missing"] == []
    result = json.loads(result_line)
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert len(metrics) == 36
    for name, metric in metrics.items():
        value = metric["value"]
        assert type(value) in (int, float) and math.isfinite(value), (name, value)
