"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Each workload runs once traced and once untraced with a one-second
budget (one or two passes).  Every metric named in BENCHMARK.json must
be printed with its unit and no job may fail.  A corrupted golden must
be counted as one failed job while the rest of the pass still runs.
The whole file takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_command(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    _, *script = SPEC["command"]
    return subprocess.run(
        [sys.executable, *script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_and_no_job_fails(workload, trace, section):
    done = run_command(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupt_golden_is_counted_and_the_pass_goes_on(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run
    import workloads

    goldens = json.loads((BENCH / "goldens.json").read_text(encoding="utf-8"))
    goldens["cli_trace9.csv"] = "0" * 64
    result = run.run("recursion", 3, 1, False, goldens)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == len(workloads.jobs("recursion"))
    assert "job cli.trace failed: sha256 of cli_trace9.csv" in capsys.readouterr().err


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_command(tmp_path, "worstcase", 0)
    assert done.returncode != 0
    assert done.stdout == ""
