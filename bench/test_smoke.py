"""Smoke test of the benchmark at minimum size (about a minute).

    python3 -m pytest bench/test_smoke.py

Runs every workload with --seconds 1, untraced once and traced twice, and
checks that the result line names every metric BENCHMARK.json lists, with its
unit, that the traced count metrics repeat exactly, and that the benchmark
refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("count", "bytes", "flop", "calls/pencil")


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def _result(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and 0 <= line["failed"] <= line["attempted"]
    return line


def _units(line):
    return {name: m["unit"] for name, m in line["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(workload):
    line = _result(workload, 0)
    assert _units(line) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed_and_counts_repeat(workload):
    first, second = _result(workload, 1), _result(workload, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert _units(first) == expected
    counts = [name for name, unit in expected.items() if unit in COUNT_UNITS]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
