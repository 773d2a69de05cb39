"""``harness all --seed 7`` writes the committed files, byte for byte.

One serial run with all four outputs -- the report, the streamed trace,
the metrics and the profile -- in a fresh process, as a user runs it.
Each file's sha256 must equal the one ``golden/observed_all_seed7.sha256``
holds; the profile is compared after ``strip_wall``, since its wall keys
are the only bytes a clock writes.  A moved digest names the file.

    PYTHONPATH=src python -m pytest -m slow tests/harness/test_observed_all.py
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.canonical import canonical_json, strip_wall

ROOT = Path(__file__).resolve().parents[2]
PINS = Path(__file__).resolve().parent / "golden" / "observed_all_seed7.sha256"


def _pinned() -> dict[str, str]:
    lines = PINS.read_text().splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


@pytest.mark.slow
def test_observed_run_writes_the_pinned_files(tmp_path):
    outputs = {"--json": "report.json", "--trace": "trace.jsonl",
               "--metrics": "metrics.json", "--profile": "profile.json"}
    argv = [sys.executable, "-m", "repro.harness", "all", "--seed", "7", "--jobs", "1"]
    for flag, name in outputs.items():
        argv += [flag, str(tmp_path / name)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, timeout=600, check=True)
    profile = json.loads((tmp_path / "profile.json").read_text())
    written = {
        "report.json": (tmp_path / "report.json").read_bytes(),
        "trace.jsonl": (tmp_path / "trace.jsonl").read_bytes(),
        "metrics.json": (tmp_path / "metrics.json").read_bytes(),
        "profile.stripped.json": canonical_json(strip_wall(profile)).encode(),
    }
    assert {name: hashlib.sha256(data).hexdigest() for name, data in written.items()} == _pinned()
    assert not list(tmp_path.glob("*.tmp"))
