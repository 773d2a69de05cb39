"""CLI-path smoke tests: the commands the README advertises must run.

These exercise ``python -m repro.harness`` as a real subprocess (the
exact invocation a user types) plus one in-process parallel replication,
so regressions anywhere along the CLI path -- argument parsing, module
import order, the process fan-out -- are caught by the plain test suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness import experiments
from repro.harness.replicate import replicate

REPO = Path(__file__).resolve().parents[2]


def _cli(*args: str) -> subprocess.CompletedProcess:
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.harness", *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_cli_fig4_smoke():
    proc = _cli("fig4")
    assert proc.returncode == 0, proc.stderr
    assert "JVM Result Code" in proc.stdout
    assert "wall clock" in proc.stdout


def test_cli_parallel_jobs_smoke():
    proc = _cli("fig4", "time_scope", "--jobs", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.index("FIG4") < proc.stdout.index("EXP-SCOPE-TIME")


def _fig1_row(seed: int) -> dict[str, float]:
    with pytest.MonkeyPatch.context() as patch:  # here, so a worker process patches too
        patch.setattr(experiments, "FIG1_JOBS", 4)
        patch.setattr(experiments, "FIG1_MACHINES", 2)
        result = experiments.run_fig1_kernel(seed=seed)
    return {"completed": float(result.completed), "makespan": result.makespan}


def test_parallel_replication_smoke():
    rep = replicate(_fig1_row, seeds=[0, 1, 2, 3], workers=2)
    assert rep.always(lambda row: row["completed"] == 4.0)
    assert len(rep.seed_seconds) == 4
