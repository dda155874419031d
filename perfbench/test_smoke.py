"""Smoke self-test of the benchmark: every workload briefly, both modes.

Run from the root of a checkout::

    python -m pytest -q perfbench/test_smoke.py

Untraced runs must be correct and print every end-to-end metric of
``BENCHMARK.json`` with its unit; traced runs must be correct too and
print every per-layer metric. A third run per workload corrupts one
expected output, which the checks must count as failed, and only the
ops on that output.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, *extra: str):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "2", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def assert_metrics(result: dict, expected: list) -> None:
    printed = result["metrics"]
    assert set(printed) == {m["name"] for m in expected}
    for metric in expected:
        value = printed[metric["name"]]
        assert value["unit"] == metric["unit"], metric["name"]
        assert isinstance(value["value"], (int, float)), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_is_correct_and_complete(workload):
    result, _ = bench(workload, "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert_metrics(result, SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0, metric


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_correct_and_complete(workload):
    result, _ = bench(workload, "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert_metrics(result, SPEC["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_output_is_counted_as_failed(workload):
    result, lines = bench(workload, "--trace", "0", "--perturb")
    assert not result["correct"]
    # The ops on the other outputs still pass.
    assert 1 <= result["failed"] < result["attempted"]
    error_rate = next(
        float(line.split(":")[1]) for line in lines
        if line.startswith("# error_rate:")
    )
    assert error_rate == result["failed"] / result["attempted"]
    success = result["metrics"]["success_rate"]["value"]
    assert success == pytest.approx(1 - error_rate)


def test_refuses_to_run_without_program_sources(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench_dir / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload",
         WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
