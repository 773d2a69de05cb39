"""Every experiment's telemetry at seed 7, held to digests.

``golden/observed_digests_seed7.json`` holds, per registered name, the
sha256 of four things an observed run of that one experiment produces:
its trace block (event lines, then span lines), its ``metrics.json``
text, its profile with the wall key stripped, and its ``trace_summary()``.
The digests were written before the session's observers were folded into
one, so a moved digest names the experiment whose telemetry moved.

The run goes the way ``python -m repro.harness <name> --trace ...`` does
(``run_experiments`` under a session: a fold, then a merge), and the same
digests must come out of a session the experiment runs in directly (the
service executor's way).  Regenerate, only for a change meant to move
telemetry, with ``PYTHONPATH=src python tests/obs/test_observed_digests.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.harness.experiments import EXPERIMENTS, run_experiment_record, run_experiments
from repro.obs.canonical import canonical_json, strip_wall
from repro.obs.export import ObservationSession, render_metrics

GOLDEN_PATH = Path(__file__).parent / "golden" / "observed_digests_seed7.json"
PARTS = ("trace", "metrics", "profile", "trace_summary")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def observed_digests(name: str, folded: bool = True) -> dict[str, str]:
    """The four digests of *name* at seed 7, folded (the CLI) or not."""
    with ObservationSession() as session:
        if folded:
            run_experiments([name], seed=7, jobs=1)
        else:
            run_experiment_record(name, seed=7)
    texts = (
        session.trace_text(),
        render_metrics(session.registry),
        canonical_json(strip_wall(session.profile_report())),
        canonical_json(session.trace_summary()),
    )
    return {part: _sha(text) for part, text in zip(PARTS, texts)}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_the_telemetry_of_each_experiment_matches_its_digests(name):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[name]
    for folded in (True, False):
        got = observed_digests(name, folded)
        moved = [part for part in PARTS if got[part] != golden[part]]
        assert not moved, f"{name} ({'folded' if folded else 'direct'}): {moved} moved"


def test_the_digests_cover_the_registry():
    assert sorted(json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))) == sorted(EXPERIMENTS)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: observed_digests(name) for name in sorted(EXPERIMENTS)}, indent=2)
        + "\n",
        encoding="utf-8",
    )
