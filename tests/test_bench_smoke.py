"""Every benchmark workload runs for a second, checks its results and
writes nothing under bench/: a library change that would end a benchmark
run in a failed or incorrect operation fails here first."""

import json
import os
import subprocess
import sys

import pytest

from test_golden import ROOT

BENCH = ROOT / "bench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _files(directory):
    return sorted(p.relative_to(directory) for p in directory.rglob("*"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correctly(workload, tmp_path):
    before = _files(BENCH)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, run.stdout
    assert result["attempted"] > 0
    assert _files(BENCH) == before
