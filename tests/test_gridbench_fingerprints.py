"""Every gridbench workload is byte-neutral on this interpreter.

One untraced round of each workload at both reference seeds, in a fresh
process as the benchmark runs it, must fail no operation and print the
fingerprint ``benchmarks/gridbench/baseline/reference.json`` holds.  A
fingerprint is a digest of what the round simulated, so it moves with any
change to which kernel entries run in which order, or to any ClassAd
verdict -- whatever the clock says.  ``fn(*args)`` dispatch and the typed
ClassAd closures are interpreter-sensitive, so CI runs this on every Python
it tests.  ``reference.json`` is only read here.

    PYTHONPATH=src python -m pytest -m slow tests/test_gridbench_fingerprints.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "benchmarks" / "gridbench" / "baseline" / "reference.json"
WORKLOADS = ("harness_report", "negotiate_scale", "pool_backlog", "fuzz_campaign",
             "service_roundtrip")
SEEDS = (7, 11)


def _reference(seed: int) -> dict:
    (run,) = (run for run in json.loads(REFERENCE.read_text())["runs"] if run["seed"] == seed)
    return run["workloads"]


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_round_prints_the_reference_fingerprint(workload, seed):
    # Absolute: harness_report runs ``python -m repro.harness`` in a temporary directory.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.gridbench.worker", workload, "--seed", str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    got = json.loads(done.stdout)
    assert (got["workload"], got["failed"]) == (workload, 0), got
    assert got["fingerprint"] == _reference(seed)[workload]["fingerprint"], workload
