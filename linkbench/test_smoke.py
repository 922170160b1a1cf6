"""Smoke tests for the benchmark's output format, at the tiny scale.

    python3 -m pytest linkbench/test_smoke.py

Each workload, untraced and traced, must print one parseable JSON
result as its last line, with the attempted and failed counts and every
metric BENCHMARK.json declares, under its declared unit, and must leave
no process it started running behind it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int):
    """Run the benchmark in a session of its own.

    Returns the finished run and the ``/proc`` stat lines of every
    process of that session still present right after it exited.
    """
    proc = subprocess.Popen(
        [
            sys.executable, str(cwd / "linkbench" / "run.py"),
            "--workload", workload, "--seed", "5", "--seconds", "1",
            "--trace", str(trace), "--scale", "tiny",
        ],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    # The run leads its session, so the session id is its pid.
    left = session_members(proc.pid)
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err), left


def session_members(sid: int) -> list:
    """``/proc/<pid>/stat`` lines of the processes, zombies too, in session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = (Path("/proc") / entry / "stat").read_text(errors="replace")
        except OSError:
            continue
        # After the command name: state, ppid, pgrp, session.
        if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
            members.append(stat.strip())
    return members


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_every_declared_metric(workload, trace, kind):
    proc, left = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert left == [], "processes outlived the run"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert result["failed"] == 0 and result["correct"] is True, lines
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
        if kind == "end_to_end":
            assert metric["value"] > 0
    provenance = json.loads(next(l for l in lines if l.startswith("provenance "))[11:])
    for key in ("git_sha", "nproc", "python", "numpy", "scipy", "seed", "vertices", "edges", "k1", "k2"):
        assert key in provenance


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result, exit != 0."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
