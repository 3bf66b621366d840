"""Smoke test of the benchmark harness: one iteration of every workload,
untraced and traced, with every output check on and no timing assertion."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_smoke_mode_reports_every_declared_metric(workload, trace):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                          "--trace", str(trace), "--seconds", "0"],
                         capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"], out.stderr
    assert result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify-full",
                          "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
