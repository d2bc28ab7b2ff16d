"""Tests for ``benchmarks/make_trajectory.py`` and its ``--baseline`` gate."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "make_trajectory.py"


@pytest.fixture(scope="module")
def make_trajectory():
    spec = importlib.util.spec_from_file_location("make_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pytest_benchmark_doc(cpu: str, mins: dict[str, float]) -> dict:
    """A minimal pytest-benchmark JSON document."""
    return {
        "machine_info": {"python_version": "3.11.7", "cpu": {"brand_raw": cpu}},
        "benchmarks": [
            {
                "name": name,
                "fullname": f"benchmarks/test_bench_x.py::{name}",
                "stats": {"min": value, "mean": value, "stddev": 0.0, "rounds": 3},
            }
            for name, value in mins.items()
        ],
    }


def run_script(tmp_path: Path, raw: dict, baseline: dict) -> subprocess.CompletedProcess:
    raw_path, base_path = tmp_path / "raw.json", tmp_path / "BENCH_1.json"
    raw_path.write_text(json.dumps(raw))
    base_path.write_text(json.dumps(baseline))
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--baseline", str(base_path), str(raw_path),
         str(tmp_path / "BENCH_2.json")],
        capture_output=True,
        text=True,
    )


def test_compare_flags_only_same_cpu_regressions(make_trajectory):
    baseline = make_trajectory.compact(
        [pytest_benchmark_doc("cpu-a", {"fast": 1.0, "slow": 1.0, "gone": 1.0})]
    )
    current = make_trajectory.compact(
        [pytest_benchmark_doc("cpu-a", {"fast": 1.15, "slow": 1.16, "added": 1.0})]
    )
    lines, regressed = make_trajectory.compare(current, baseline)
    assert regressed == ["slow"]  # 15% exactly is tolerated, 16% is not
    assert any("fast" in line and "1.150x" in line for line in lines)
    assert any("added" in line and "new" in line for line in lines)
    other_host = dict(current, cpu="cpu-b")
    lines, regressed = make_trajectory.compare(other_host, baseline)
    assert regressed == []
    assert "not gated" in lines[0]


def test_baseline_flag_exit_codes(tmp_path, make_trajectory):
    baseline = make_trajectory.compact([pytest_benchmark_doc("cpu-a", {"sim": 1.0})])
    slower = run_script(tmp_path, pytest_benchmark_doc("cpu-a", {"sim": 1.5}), baseline)
    assert slower.returncode == 1
    assert "REGRESSION" in slower.stdout and "sim" in slower.stderr
    # The trajectory is written even when the gate fails.
    assert json.loads((tmp_path / "BENCH_2.json").read_text())["benchmarks"][0]["min_s"] == 1.5
    faster = run_script(tmp_path, pytest_benchmark_doc("cpu-a", {"sim": 0.8}), baseline)
    assert faster.returncode == 0 and "0.800x" in faster.stdout
    elsewhere = run_script(tmp_path, pytest_benchmark_doc("cpu-b", {"sim": 1.5}), baseline)
    assert elsewhere.returncode == 0 and "not gated" in elsewhere.stdout


def test_without_baseline_only_writes(tmp_path):
    raw_path = tmp_path / "raw.json"
    raw_path.write_text(json.dumps(pytest_benchmark_doc("cpu-a", {"sim": 1.0})))
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(raw_path), str(tmp_path / "out.json")],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0
    assert "wrote" in done.stdout and "x min_s" not in done.stdout
    assert json.loads((tmp_path / "out.json").read_text())["cpu"] == "cpu-a"
