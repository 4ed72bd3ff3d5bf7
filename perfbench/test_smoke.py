"""Smoke self-test of the benchmark, one instance per stratum.

    python3 -m pytest perfbench/test_smoke.py      # or: python3 perfbench/test_smoke.py

Runs every workload of BENCHMARK.json untraced and traced, and checks that
each declared metric is printed with its unit, that no certificate failed,
and that the allocation bytes repeat across the two runs.  It also checks
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(command, capture_output=True, text=True, timeout=300, cwd=root)


def check_run(workload: str, trace: int) -> str:
    """Checks one smoke run; returns the sha256 of its allocation bytes."""
    done = run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stdout
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    report = {line.split()[1]: line.split()[3] for line in lines if line.startswith("# ") and len(line.split()) > 3}
    for metric in declared:
        assert report.get(metric["name"]) == metric["unit"], f"{metric['name']} not printed with its unit"
    if not trace:
        assert any(line.startswith("# fail_frac 0.0 ratio") for line in lines)
    meta = json.loads(next(line for line in lines if line.startswith("# meta "))[len("# meta "):])
    assert meta["backend"] and meta["python"] and meta["nproc"] and meta["seed"] == 7
    return meta["allocations_sha256"]


def test_every_workload_prints_every_metric():
    for workload in (w["name"] for w in SPEC["workloads"]):
        assert check_run(workload, 0) == check_run(workload, 1), f"{workload}: allocation bytes differ between runs"


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "traces"))
        done = run(bare, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert done.stdout == ""


if __name__ == "__main__":
    test_every_workload_prints_every_metric()
    test_refuses_to_run_without_sources()
    print("smoke self-test passed")
