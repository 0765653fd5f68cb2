"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is printed with its unit, that
no span has negative self time, and that the top-level spans plus
``cli.overhead_s`` add up to the traced wall time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "0",
                             "--trace", str(trace), "--smoke"]
    return subprocess.run([sys.executable] + cmd[1:], cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_named_with_units(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_add_up(workload):
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    reports = [json.loads(line[len("# spans "):]) for line in proc.stdout.splitlines()
               if line.startswith("# spans ")]
    assert reports
    for rep in reports:
        spans = rep["spans"].values()
        assert all(s["self_s"] >= -1e-9 for s in spans)
        assert rep["cli_overhead_s"] >= 0
        top = sum(s["top_s"] for s in spans)
        assert top + rep["cli_overhead_s"] == pytest.approx(rep["wall_s"], rel=1e-9, abs=1e-9)


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
