"""The one fold of the event stream (``repro.obs.summary``).

"Policy evaluation identity": the same number whichever code path
computes it.  The live fold, the at-export fold behind ``--trace`` and
the replay of the written trace must agree field for field; the console
built on the fold must render what the console that counted for itself
rendered (``golden/console_churn.golden`` was written by that console,
at the commit before the fold, on ``churn`` at seed 0; its "where time
went" panel was rewritten when the profiler began to count each of the
three pools' timelines instead of skipping back to the first one's end).
"""

import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.__main__ import run_experiment_record
from repro.obs.console import SCOPE_LADDER, GridConsole
from repro.obs.export import ObservationSession
from repro.obs.store import ingest_artifacts
from repro.obs.store.ingest import extract, parse_text
from repro.obs.summary import RunSummary
from repro.obs.web import ResultsWeb

from tests.obs.test_canonical import SRC, _files_matching

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module", params=["fig3", "churn"])
def observed(request):
    """One experiment run with a live fold and a console on its bus."""
    session = ObservationSession()
    live = RunSummary()
    session.bus.subscribe(live.on_event)
    console = GridConsole(session.bus)
    with session:
        run_experiment_record(request.param, seed=0)
    console.detach()
    return request.param, session, live, console


class TestFoldEquivalence:
    def test_live_fold_equals_replay_of_its_own_trace(self, observed):
        _, session, live, _ = observed
        text = session.trace_text()
        replay = RunSummary()
        for line in text.splitlines():
            replay.on_record(json.loads(line))
        assert live.counts == replay.counts and live.counts
        assert live.error_hops == replay.error_hops and live.error_hops
        assert live.makespans == replay.makespans and live.makespans
        assert live.last_time == replay.last_time
        live.spans = replay.spans  # spans are the session's to count
        assert live.payload() == replay.payload()

    def test_session_summary_is_what_the_store_reduces_the_file_to(self, observed):
        _, session, _, _ = observed
        text = session.trace_text()
        summary = session.trace_summary()
        assert summary == extract(parse_text(text, "trace.jsonl"), "trace.jsonl").payload
        assert summary["events"] == session.bus.dispatched
        assert summary["spans"] == len(session.spans.spans) > 0
        assert sum(summary["error_hops"].values()) == text.count('"topic":"error"')

    def test_console_is_a_view_of_the_fold(self, observed):
        name, _, live, console = observed
        assert console.summary.counts == live.counts
        assert console.summary.makespan_footer() == live.makespan_footer()
        if name == "churn":
            golden = (GOLDEN / "console_churn.golden").read_text(encoding="utf-8")
            assert console.render() + "\n" == golden
        # Hops read up the scope ladder (fig3 crosses four rungs).
        panel = console.render().split("error hops\n", 1)[1].split("\n\n", 1)[0]
        shown = [line.split()[0] for line in panel.splitlines()[2:]]
        assert shown == [scope for scope in SCOPE_LADDER if scope in live.error_hops]


class TestTraceLinesAreOutsideInput:
    def test_unhashable_job_and_bad_time_are_value_errors(self):
        for record in (
            {"kind": "event", "topic": "job", "name": "submit", "t": 1.0,
             "attrs": {"job": ["not", "hashable"]}},
            {"kind": "event", "topic": "job", "name": "submit", "t": "soon"},
            {"kind": "neither"},
        ):
            with pytest.raises(ValueError):
                RunSummary().on_record(record)

    def test_an_event_without_attrs_still_counts(self):
        summary = RunSummary()
        summary.on_record({"kind": "event", "topic": "error", "name": "hop", "t": 2})
        assert summary.payload()["error_hops"] == {"?": 1}
        assert summary.payload()["last_time"] == 2.0


class TestOneObservationSpine:
    """Structural gate: each derivation lives in one file under ``src/``."""

    def test_the_makespan_pairing_is_observed_in_one_file(self):
        assert _files_matching(r"\.histogram\(\s*\"job_makespan_seconds\"") == [
            "repro/obs/summary.py"
        ]
        assert _files_matching(r"class MakespanRecorder") == []

    def test_error_hops_are_counted_and_projected_once(self):
        assert _files_matching(r"error_hops\[") == ["repro/obs/summary.py"]
        ingest = (SRC / "repro/obs/store/ingest.py").read_text(encoding="utf-8")
        assert ingest.count("out.error_hops =") == 1

    def test_producers_hand_the_store_objects_not_paths(self):
        assert "paths" not in inspect.signature(ingest_artifacts).parameters
        text = (SRC / "repro/harness/__main__.py").read_text(encoding="utf-8")
        assert "ingest_path" not in text and "open(" not in text

    def test_the_harness_envelope_is_built_by_one_function(self):
        assert _files_matching(r'"seed":[^{}]{0,80}"experiments":') == [
            "repro/harness/experiments.py"
        ]

    def test_one_principle_checker(self):
        """The live and the post-hoc feed are one class; only it calls the checks."""
        for call in (r"check_outcome\(", r"check_crossing\(", r"check_hop\("):
            assert _files_matching(call) == ["repro/core/principles.py"]
        assert _files_matching(r"PrincipleSanitizer|repro\.analysis|obs\.sanitize") == []
        assert not (SRC / "repro/analysis").exists()
        assert not (SRC / "repro/obs/sanitize.py").exists()

    def test_one_journey_builder(self):
        """Only the span module groups spans by parent or spells the job
        lifecycle; the exporter only writes ``parent_id`` out."""
        assert _files_matching(r"\.parent_id\b") == ["repro/obs/export.py", "repro/obs/span.py"]
        export = (SRC / "repro/obs/export.py").read_text(encoding="utf-8")
        assert export.count("parent_id") == 1 and '"parent": span.parent_id' in export
        assert _files_matching(r'"match":\s*"claim"') == ["repro/obs/span.py"]
        assert _files_matching(r"TERMINAL_JOB_EVENTS = ") == ["repro/core/principles.py"]
        assert _files_matching(r'"result",\s*"hold"|"hold",\s*"result"') == []

    def test_one_operator_view(self):
        """A panel both views show is built by one console function, which
        the live dashboard and the ``/console`` page both call; the page
        is rendered server-side, with no script."""
        assert _files_matching(r"SCOPE_LADDER = ") == ["repro/obs/console.py"]
        for title, builder in (("error hops", "hops_table"), ("where time went", "time_table")):
            assert _files_matching(f'title="{title}"') == ["repro/obs/console.py"]
            assert _files_matching(rf"def {builder}\(") == ["repro/obs/console.py"]
            for feed in (GridConsole.render, ResultsWeb._panels):
                assert f"{builder}(" in inspect.getsource(feed), (builder, feed)
        assert _files_matching(r"<script") == []

    def test_the_core_imports_without_numpy(self):
        code = (
            "import sys; import repro.harness.__main__, repro.service, repro.campaign; "
            "sys.exit('numpy' in sys.modules)"
        )
        done = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(SRC)})
        assert done.returncode == 0
        importers = [
            str(path.relative_to(SRC.parent))
            for tree in ("src", "tests", "benchmarks")
            for path in (SRC.parent / tree).rglob("*.py")
            if re.search(r"(?m)^\s*(import|from) numpy", path.read_text(encoding="utf-8"))
        ]
        assert importers == []
