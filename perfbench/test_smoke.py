"""Smoke run of the benchmark, so that the harness cannot rot.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload for one second, untraced and traced (``cli_session``
always runs its minimum of seven cycles), and checks that no op failed and
that exactly the metrics named in BENCHMARK.json are reported, with their
units. Also checks that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_reports_its_metrics(trace):
    proc = _run(ROOT, "--workload", "all", "--seed", "3", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    expected = {f"{w['name']}.{m['name']}": m["unit"]
                for w in SPEC["workloads"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        for workload in SPEC["workloads"]:
            assert result["metrics"][f"{workload['name']}.trace.coverage"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "library_batch", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
