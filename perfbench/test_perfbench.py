"""Smoke test of the benchmark at its tiny size and default seed.

Run from the repository root:  python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_reported_and_nothing_fails(workload, trace):
    done = _run(ROOT, "--workload", workload, "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] > 0
    assert result["failed"] == 0, done.stdout
    assert result["correct"] is True
    if trace and workload == "analyze-corpus":
        assert result["metrics"]["urns.model_meta.calls_per_model"]["value"] == 3
        assert result["metrics"]["stability.classify_all.calls_per_model"]["value"] == 2


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"])
    assert done.returncode != 0
    assert not done.stdout.strip()
