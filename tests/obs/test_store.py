"""The longitudinal results store: ingest, query, trend, diff, gc.

Covers the contract DESIGN.md §3.6f states: every artifact schema the
reproduction emits round-trips through ``ingest``; deterministic
payloads are stored wall-stripped so ``query --strip-wall`` output is
byte-identical whether the source run was serial or fanned out over
``--jobs``; the store reopens and appends; malformed artifacts are
rejected with structured errors, never half-ingested.
"""

import copy
import json
import sqlite3
from pathlib import Path

import pytest

import repro.obs.sqlite_store as sqlite_store
from repro.campaign.engine import run_campaign
from repro.campaign.spec import CampaignConfig
from repro.obs.store import (
    IngestError,
    ResultsStore,
    StoreDurabilityError,
    StoreOpenError,
    StoreSchemaError,
    canonical_json,
    config_hash,
)
from repro.obs.store.__main__ import main as store_main
from repro.obs.store.ingest import extract, parse_text
from repro.obs.store.query import diff_commits, wall_regressed

REFERENCE = Path(__file__).resolve().parents[2] / "benchmarks/gridbench/baseline/reference.json"


def _workload(fingerprint, run_s, events):
    return {
        "rounds": 5, "attempted": 4, "failed": 0, "checks": {"done": True},
        "fingerprint": fingerprint,
        "end_to_end": {
            "setup_s": {"value": 0.3, "q1": 0.29, "q3": 0.31, "n": 5, "unit": "s"},
            "run_s": {"value": run_s, "q1": run_s, "q3": run_s, "n": 5, "unit": "s"},
            "peak_rss_mb": {"value": 40.0, "q1": 40.0, "q3": 40.0, "n": 5, "unit": "MB"},
        },
        "per_layer": {
            "sim.events": {"value": events, "unit": "count"},
            "sim.events_per_host_s": {"value": events / run_s, "unit": "1/s"},
            "host.nproc": {"value": 2, "unit": "count"},
        },
    }


GRIDBENCH_DOC = {
    "schema": "repro-gridbench/1",
    "runs": [{
        "seed": 7, "smoke": False, "host": {"nproc": 2, "commit": "abc"},
        "workloads": {
            "alpha": _workload("a" * 64, run_s=0.25, events=10),
            "beta": _workload("b" * 64, run_s=1.5, events=20),
        },
    }],
}

FUZZ_REPORT = {
    "format": "repro-campaign-fuzz/1",
    "campaign": {"mode": "scoped", "seed": 3},
    "fuzz": {"budget_cells": 4, "batch_size": 2, "order_max": 3},
    "cells": [
        {
            "cell": "scoped/3/x", "mode": "scoped", "seed": 3, "injections": [],
            "jobs": {"total": 4, "completed": 3, "held": 1, "unfinished": 0},
            "makespan": 41.5, "violations": [
                {"principle": 1, "subject": "job-2", "description": "lost"},
            ],
            "live_violations": [], "live_matches_posthoc": False,
            "profile": None, "error": None,
        },
    ],
    "totals": {
        "cells": 1, "cells_with_violations": 1, "violations": 1,
        "by_principle": {"P1": 1, "P2": 0, "P3": 0, "P4": 0},
        "live_mismatches": 1, "errors": 0, "features": 7, "corpus": 3,
        "distinct_violations": 1, "batches": 2, "max_minimal_order": 1,
    },
    "violations": {"signatures": {}, "first_violation_at": 1,
                   "all_principles_at": None},
    "reproducers": [],
}

HARNESS_PAYLOAD = {
    "seed": 5,
    "experiments": {
        "fig_x": {"completed": 9, "held": 1, "label": "x"},
    },
}

TRACE_JSONL = "\n".join([
    json.dumps({"kind": "event", "topic": "job", "name": "submit",
                "time": 1.0, "attrs": {"job": "j1"}}),
    json.dumps({"kind": "event", "topic": "error", "name": "hop",
                "time": 2.0, "attrs": {"scope": "JOB"}}),
    json.dumps({"kind": "span", "name": "match", "start": 1.0, "end": 2.0}),
])


def campaign_report(jobs=1):
    config = CampaignConfig(mode="scoped", seed=1, kinds=("MachineCrash",))
    return run_campaign(config, jobs=jobs, shrink=False)


class TestIngestRoundTrip:
    """Every artifact schema in, the same deterministic payload out."""

    def test_gridbench_round_trip(self, tmp_path):
        store = ResultsStore(tmp_path / "r.db")
        run_id = store.ingest_obj(GRIDBENCH_DOC, source="gridbench.json", commit="aaa")
        row = store.runs()[0]
        assert (row["kind"], row["schema"], row["seed"]) == ("gridbench", "repro-gridbench/1", 7)
        # Stored: the sim side alone, per workload.
        assert store.payload(run_id) == {"seed": 7, "smoke": False, "workloads": {
            name: {"fingerprint": w["fingerprint"], "attempted": 4, "failed": 0,
                   "checks": {"done": True}}
            for name, w in GRIDBENCH_DOC["runs"][0]["workloads"].items()
        }}
        # Measurement lands in wall-flagged rows, counts in exact ones; a rate
        # (better when larger) and the host's own numbers are not projected.
        assert store.run_metrics(run_id, "alpha", wall=True) == {
            "setup_s": 0.3, "run_s": 0.25, "peak_rss_mb": 40.0}
        assert store.run_metrics(run_id, "beta", wall=False) == {"sim.events": 20.0}
        store.close()

    def test_campaign_round_trip(self, tmp_path):
        report = campaign_report()
        store = ResultsStore(tmp_path / "r.db")
        run_id = store.ingest_obj(report, source="campaign.json", commit="aaa")
        row = store.runs(kind="campaign")[0]
        assert row["schema"] == "repro-campaign/1"
        assert row["seed"] == report["campaign"]["seed"]
        assert store.payload(run_id) == report  # campaign reports carry no wall
        matrix = store.matrix()
        assert len(matrix["cells"]) == len(report["cells"])
        store.close()

    def test_fuzz_round_trip_with_violations(self, tmp_path):
        store = ResultsStore(tmp_path / "r.db")
        store.ingest_obj(FUZZ_REPORT, source="fuzz.json", commit="bbb")
        row = store.runs(kind="fuzz")[0]
        assert row["schema"] == "repro-campaign-fuzz/1"
        assert store.violation_count() == 1
        cells = store.matrix()["cells"]
        assert cells[0]["violations"] == 1
        store.close()

    def test_fuzz_cell_that_raised_is_stored_as_text(self, tmp_path):
        """A fuzz campaign records a raising cell as a structured
        ``CellError``; the ``cells.error`` column is text."""
        crashed = {**FUZZ_REPORT["cells"][0], "cell": "scoped/3/crash", "violations": [],
                   "error": {"stage": "setup", "type": "KeyError", "message": "'nowhere'"}}
        report = {**FUZZ_REPORT, "cells": [*FUZZ_REPORT["cells"], crashed]}
        store = ResultsStore(tmp_path / "r.db")
        store.ingest_obj(report, source="fuzz.json", commit="bbb")
        errors = {c["cell"]: c["error"] for c in store.matrix()["cells"]}
        assert errors == {"scoped/3/x": None, "scoped/3/crash": "setup:KeyError: 'nowhere'"}
        store.close()

    def test_harness_round_trip(self, tmp_path):
        store = ResultsStore(tmp_path / "r.db")
        run_id = store.ingest_obj(HARNESS_PAYLOAD, source="harness:fig_x",
                                  commit="ccc")
        row = store.runs(kind="harness")[0]
        assert row["seed"] == 5
        assert store.payload(run_id) == HARNESS_PAYLOAD
        # Scalar numeric experiment fields become queryable metrics.
        trend = store.trend("completed")
        assert trend["series"]["fig_x"] == [9]
        store.close()

    def test_trace_metrics_profile_kinds(self, tmp_path):
        store = ResultsStore(tmp_path / "r.db")
        store.ingest_text(TRACE_JSONL, source="t.jsonl", commit="ddd")
        row = store.runs(kind="trace")[0]
        assert row["schema"] == "repro-trace/1"
        assert store.error_hops()["JOB"] == 1
        store.close()

    def test_a_one_record_trace_is_a_trace_not_a_document(self):
        line = TRACE_JSONL.splitlines()[1]
        extracted = extract(parse_text(line, "one.jsonl"), "one.jsonl")
        assert extracted.kind == "trace"
        assert extracted.payload["events"] == 1 and extracted.error_hops == [("JOB", 1)]


def table_rows(db_path) -> dict[str, list]:
    """Every row of every table, value types included, minus ``ingested_at``."""
    db = sqlite3.connect(db_path)
    try:
        rows = {}
        for (table,) in db.execute("SELECT name FROM sqlite_master WHERE type='table'"):
            columns = [c[1] for c in db.execute(f"PRAGMA table_info({table})")]
            kept = ", ".join(c for c in columns if c != "ingested_at")
            rows[table] = [
                [(type(value).__name__, value) for value in row]
                for row in db.execute(f"SELECT {kept} FROM {table} ORDER BY rowid")
            ]
        return rows
    finally:
        db.close()


class TestProducersAndFilesAgree:
    """A producer hands the store the objects behind the files it wrote;
    ``store ingest`` parses those files.  Same rows either way."""

    def test_harness_results_db_equals_ingest_of_its_files(self, tmp_path, capsys):
        from repro.harness.__main__ import main as harness_main

        files = [str(tmp_path / name)
                 for name in ("report.json", "trace.jsonl", "metrics.json", "profile.json")]
        flags = [arg for pair in zip(("--json", "--trace", "--metrics", "--profile"), files)
                 for arg in pair]
        produced, ingested = str(tmp_path / "produced.db"), str(tmp_path / "ingested.db")
        assert harness_main(["fig3", "--seed", "7", *flags, "--results-db", produced]) == 0
        assert store_main(["ingest", *files, "--db", ingested]) == 0
        a, b = table_rows(produced), table_rows(ingested)
        # The one difference: the payload row is named for the run, its file for
        # itself (runs columns: run_id, kind, source, ...).
        assert a["runs"][0][2] == ("str", "harness:fig3")
        assert b["runs"][0][2] == ("str", "report.json")
        a["runs"][0][2] = b["runs"][0][2]
        assert a == b
        assert len(a["runs"]) == 4 and a["error_hops"] and a["profile_sections"]


class TestOneOwnerPerProjection:
    """One run's hops are stored once: by its trace, not again by its metrics."""

    @pytest.fixture(scope="class")
    def fig3(self):
        from repro.harness.experiments import run_fig3_scopes
        from repro.obs.export import ObservationSession

        with ObservationSession() as session:
            run_fig3_scopes(seed=0)
        return session.trace_text(), session.registry.snapshot()

    def test_trace_plus_metrics_of_one_run_count_each_hop_once(self, fig3):
        trace, metrics = fig3
        with ResultsStore(":memory:") as store:
            store.ingest_text(trace, source="trace.jsonl")
            store.ingest_obj(metrics, source="metrics.json")
            hops = sum(store.error_hops().values())
        assert hops == trace.count('"topic":"error"') > 0

    def test_a_store_written_before_the_rule_is_read_by_the_rule(self, fig3, tmp_path):
        trace, metrics = fig3
        db = str(tmp_path / "old.db")
        with ResultsStore(db) as store:
            store.ingest_text(trace, source="trace.jsonl")
            metrics_run = store.ingest_obj(metrics, source="metrics.json")
            once = store.error_hops()
        conn = sqlite3.connect(db)  # what the metrics extractor used to project
        conn.execute("INSERT INTO error_hops VALUES (?, 'JOB', 99)", (metrics_run,))
        conn.commit()
        conn.close()
        with ResultsStore(db) as store:
            assert store.error_hops() == once

    def test_metrics_alone_keep_the_numbers_as_metric_rows(self, fig3):
        _, metrics = fig3
        with ResultsStore(":memory:") as store:
            store.ingest_obj(metrics, source="metrics.json")
            assert store.error_hops() == {}
            series = store.trend("error_hops_total")["series"]
        hop_counters = {k: v for k, v in metrics["counters"].items() if k.startswith("error_hops")}
        assert sum(v for (v,) in series.values()) == sum(hop_counters.values()) > 0


class TestStripWallByteIdentity:
    """The determinism contract: serial and --jobs 4 source runs store
    byte-identical deterministic payloads, and the CLI's --strip-wall
    query output is byte-identical too."""

    @pytest.fixture(scope="class")
    def reports(self):
        return campaign_report(jobs=1), campaign_report(jobs=4)

    def test_payloads_byte_identical(self, tmp_path, reports):
        serial, fanned = reports
        a = ResultsStore(tmp_path / "serial.db")
        b = ResultsStore(tmp_path / "jobs4.db")
        ra = a.ingest_obj(serial, source="campaign.json", commit="s")
        rb = b.ingest_obj(fanned, source="campaign.json", commit="j")
        assert canonical_json(a.payload(ra)) == canonical_json(b.payload(rb))
        a.close()
        b.close()

    def test_query_strip_wall_output_identical(self, tmp_path, reports, capsys):
        serial, fanned = reports
        outputs = []
        for name, report in (("serial", serial), ("jobs4", fanned)):
            db = str(tmp_path / f"{name}.db")
            store = ResultsStore(db, now=lambda: 1000.0 if name == "serial" else 2000.0)
            store.ingest_obj(report, source="campaign.json", commit=name)
            store.close()
            assert store_main(["query", "--db", db, "--strip-wall"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_without_strip_wall_outputs_differ(self, tmp_path, reports, capsys):
        serial, fanned = reports
        outputs = []
        for name, report in (("serial", serial), ("jobs4", fanned)):
            db = str(tmp_path / f"{name}.db")
            store = ResultsStore(db, now=lambda: 1000.0 if name == "serial" else 2000.0)
            store.ingest_obj(report, source="campaign.json", commit=name)
            store.close()
            assert store_main(["query", "--db", db]) == 0
            outputs.append(capsys.readouterr().out)
        # Sanity check on the contract: the wall-side columns DO differ.
        assert outputs[0] != outputs[1]


class TestPersistence:
    def test_reopen_and_append(self, tmp_path):
        db = tmp_path / "r.db"
        store = ResultsStore(db)
        store.ingest_obj(GRIDBENCH_DOC, source="gridbench.json", commit="aaa")
        store.close()
        store = ResultsStore(db)
        assert len(store.runs()) == 1
        store.ingest_obj(HARNESS_PAYLOAD, source="harness:fig_x", commit="bbb")
        assert [r["commit"] for r in store.runs()] == ["aaa", "bbb"]
        assert store.commits() == ["aaa", "bbb"]
        store.close()

    def test_foreign_schema_file_is_refused(self, tmp_path):
        db = tmp_path / "r.db"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
        conn.execute("INSERT INTO meta VALUES ('schema', 'other/9')")
        conn.commit()
        conn.close()
        with pytest.raises(StoreSchemaError):
            ResultsStore(db)

    def test_a_path_no_store_can_open_at_fails_typed(self, tmp_path):
        """Not ``sqlite3.OperationalError`` / ``DatabaseError``: a missing
        directory, a directory, a file that is no database."""
        (tmp_path / "notes.db").write_text("not a database, a note " * 40)
        for path, reason in (
            (tmp_path / "missing" / "r.db", "cannot be opened"),
            (tmp_path, "cannot be opened"),
            (tmp_path / "notes.db", "is not a database"),
        ):
            with pytest.raises(StoreOpenError, match=reason):
                ResultsStore(str(path))

    def test_pre_wal_results_db_upgrades_in_place_and_keeps_its_rows(self, tmp_path):
        db = str(tmp_path / "old.db")
        with ResultsStore(db) as store:
            store.ingest_obj(GRIDBENCH_DOC, source="gridbench.json", commit="aaa")
        conn = sqlite3.connect(db)  # what every build before the shared base left behind
        assert conn.execute("PRAGMA journal_mode=DELETE").fetchone() == ("delete",)
        conn.close()

        with ResultsStore(db) as reopened:
            assert reopened._db.execute("PRAGMA journal_mode").fetchone() == ("wal",)
            assert reopened._db.execute("PRAGMA synchronous").fetchone() == (2,)
            assert [r["commit"] for r in reopened.runs()] == ["aaa"]
            reopened.ingest_obj(HARNESS_PAYLOAD, source="harness:fig_x", commit="bbb")
            assert (tmp_path / "old.db-wal").exists()  # a live store has sidecars
        assert not (tmp_path / "old.db-wal").exists()  # a clean close checkpoints them away
        assert sqlite3.connect(db).execute("PRAGMA journal_mode").fetchone() == ("wal",)

    @pytest.mark.parametrize("uri, reason", [
        # The dot-file locking VFS has no shared memory: SQLite answers the
        # WAL request with the mode it stays in.
        ("file:{path}?vfs=unix-dotfile", "journal_mode='delete'"),
        # Read-only media: the WAL request itself is refused.
        ("file:{path}?mode=ro", "readonly"),
    ])
    def test_results_db_that_cannot_enter_wal_fails_typed(
        self, tmp_path, monkeypatch, uri, reason
    ):
        path = str(tmp_path / "r.db")
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE t (a)")
        conn.commit()
        conn.close()
        real_connect = sqlite3.connect
        monkeypatch.setattr(
            sqlite_store.sqlite3, "connect",
            lambda path: real_connect(uri.format(path=path), uri=True),
        )
        with pytest.raises(StoreDurabilityError, match=reason):
            ResultsStore(path)

    def test_gc_keeps_newest_per_kind_and_config(self, tmp_path):
        store = ResultsStore(tmp_path / "r.db")
        for commit in ("a", "b", "c"):
            store.ingest_obj(GRIDBENCH_DOC, source="gridbench.json", commit=commit)
        dry = store.gc(keep=1, dry_run=True)
        assert len(dry["deleted"]) == 2 and len(store.runs()) == 3
        result = store.gc(keep=1)
        assert len(result["deleted"]) == 2
        rows = store.runs()
        assert len(rows) == 1 and rows[0]["commit"] == "c"
        # Child rows went with their runs.
        assert store.run_metrics(1, "alpha", wall=True) == {}
        store.close()


class TestRejection:
    """Malformed artifacts come back as structured errors, never rows."""

    def test_not_json(self, tmp_path):
        store = ResultsStore(tmp_path / "r.db")
        with pytest.raises(IngestError) as err:
            store.ingest_text("not json {", source="junk.txt")
        assert err.value.code == "NOT_JSON"
        assert err.value.source == "junk.txt"
        assert store.runs() == []
        store.close()

    def test_unrecognized_schema(self, tmp_path):
        store = ResultsStore(tmp_path / "r.db")
        with pytest.raises(IngestError) as err:
            store.ingest_obj({"hello": "world"}, source="mystery.json")
        assert err.value.code == "UNRECOGNIZED"
        assert store.runs() == []
        store.close()

    def test_malformed_known_schema(self, tmp_path):
        store = ResultsStore(tmp_path / "r.db")
        with pytest.raises(IngestError) as err:
            store.ingest_obj({"schema": "repro-gridbench/1", "runs": "nope"},
                             source="gridbench-bad.json")
        assert err.value.code == "MALFORMED"
        assert "gridbench-bad.json" in str(err.value)
        assert err.value.code == "MALFORMED"
        assert store.runs() == []
        store.close()

    @pytest.mark.parametrize("edit", [
        lambda cell: cell.update(cell=None),           # NOT NULL column
        lambda cell: cell.update(makespan={"s": 1}),   # a value SQLite cannot bind
    ])
    def test_failed_ingest_leaves_no_rows_and_is_typed(self, tmp_path, edit):
        # The row SQLite refuses comes *after* the runs/metrics rows of the
        # same artifact: they must not ride along with the next good commit.
        bad = {k: copy.deepcopy(FUZZ_REPORT[k]) for k in ("campaign", "cells", "totals")}
        edit(bad["cells"][0])
        store = ResultsStore(tmp_path / "r.db")
        with pytest.raises(IngestError) as err:
            store.ingest_obj(bad, source="bad-campaign.json", commit="aaa")
        assert (err.value.code, err.value.source) == ("MALFORMED", "bad-campaign.json")
        good = store.ingest_obj(HARNESS_PAYLOAD, source="harness:fig_x", commit="bbb")
        assert [(r["run_id"], r["source"]) for r in store.runs()] == [(good, "harness:fig_x")]
        assert store.metric_names() == [("completed", 1), ("held", 1)]
        assert store.violation_count() == 0
        store.close()

    @pytest.mark.parametrize("edit", [
        lambda summary: summary.update(error_hops={"JOB": "many"}),
        lambda summary: summary.update(by_topic=None),
        lambda summary: summary.pop("spans"),
        lambda summary: summary.update(events=-1),
    ])
    def test_malformed_trace_summary_is_typed(self, edit):
        summary = extract(parse_text(TRACE_JSONL, "t.jsonl"), "t.jsonl").payload
        edit(summary)
        with pytest.raises(IngestError) as err:
            extract(summary, "summary.json")
        assert (err.value.code, err.value.source) == ("MALFORMED", "summary.json")

    def test_unfoldable_trace_line_is_typed(self):
        with pytest.raises(IngestError) as err:
            text = TRACE_JSONL + '\n{"kind": "event", "t": "soon"}'
            extract(parse_text(text, "t.jsonl"), "t.jsonl")
        assert err.value.code == "MALFORMED" and "line 4" in err.value.message

    def test_cli_rejects_an_empty_file_typed(self, tmp_path, capsys):
        empty = tmp_path / "t.jsonl"
        empty.write_text("", encoding="utf-8")
        assert store_main(["ingest", str(empty), "--db", str(tmp_path / "r.db")]) == 1
        assert "[NOT_JSON] file is empty" in capsys.readouterr().err

    def test_cli_ingest_continues_past_rejects(self, tmp_path, capsys):
        good = tmp_path / "gridbench.json"
        good.write_text(json.dumps(GRIDBENCH_DOC), encoding="utf-8")
        bad = tmp_path / "junk.json"
        bad.write_text("{", encoding="utf-8")
        db = str(tmp_path / "r.db")
        code = store_main(["ingest", str(good), str(bad), "--db", db,
                           "--commit", "abc"])
        assert code == 1
        captured = capsys.readouterr()
        assert "REJECTED" in captured.err
        store = ResultsStore(db)
        assert len(store.runs()) == 1  # the good file still landed
        store.close()

    @pytest.mark.parametrize("doc", [
        {"seed": 2**63, "experiments": {}},
        {**GRIDBENCH_DOC, "runs": [{**GRIDBENCH_DOC["runs"][0], "seed": -2**63 - 1}]},
    ], ids=["harness", "gridbench"])
    def test_a_seed_sqlite_cannot_hold_is_rejected_naming_seed(self, tmp_path, capsys, doc):
        """It used to raise ``OverflowError`` out of ``_insert``, a traceback."""
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        db = str(tmp_path / "r.db")
        assert store_main(["ingest", str(path), "--db", db]) == 1
        assert "[MALFORMED] 'seed'" in capsys.readouterr().err
        with ResultsStore(db) as store:
            assert store.runs() == []


class TestTrendAndDiff:
    def _doc_at(self, run_s):
        doc = copy.deepcopy(GRIDBENCH_DOC)
        doc["runs"][0]["workloads"]["alpha"]["end_to_end"]["run_s"]["value"] = run_s
        return doc

    def test_trend_axis_is_commit_order(self, tmp_path):
        store = ResultsStore(tmp_path / "r.db")
        for commit, wall in (("a", 0.2), ("b", 0.3)):
            store.ingest_obj(self._doc_at(wall), source="gridbench.json", commit=commit)
        trend = store.trend("run_s")
        assert trend["commits"] == ["a", "b"]
        assert trend["series"]["alpha"] == [0.2, 0.3]
        assert trend["wall"]["alpha"] is True
        assert store.trend("sim.events")["wall"]["alpha"] is False
        store.close()

    def test_trend_cli_flags_wall_regression(self, tmp_path, capsys):
        db = str(tmp_path / "r.db")
        store = ResultsStore(db)
        for commit, wall in (("a", 0.2), ("b", 0.9)):
            store.ingest_obj(self._doc_at(wall), source="gridbench.json", commit=commit)
        store.close()
        assert store_main(["trend", "--metric", "run_s", "--db", db]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_trend_unknown_metric_exits_2(self, tmp_path, capsys):
        db = str(tmp_path / "r.db")
        ResultsStore(db).close()
        assert store_main(["trend", "--metric", "nope", "--db", db]) == 2
        assert "no data" in capsys.readouterr().err

    def test_diff_flags_sim_change_exactly(self, tmp_path):
        store = ResultsStore(tmp_path / "r.db")
        store.ingest_obj(GRIDBENCH_DOC, source="gridbench.json", commit="a")
        changed = copy.deepcopy(GRIDBENCH_DOC)
        changed["runs"][0]["workloads"]["alpha"]["fingerprint"] = "c" * 64  # sim-side drift
        store.ingest_obj(changed, source="gridbench.json", commit="b")
        diff = diff_commits(store, "a", "b")
        assert [p for p in diff["problems"] if "fingerprint" in p and "alpha" in p]
        store.close()

    def test_diff_missing_commit_exits_2(self, tmp_path, capsys):
        db = str(tmp_path / "r.db")
        store = ResultsStore(db)
        store.ingest_obj(GRIDBENCH_DOC, source="gridbench.json", commit="a")
        store.close()
        assert store_main(["diff", "a", "ghost", "--db", db]) == 2
        assert "error: commit(s) ghost not in the results store" in capsys.readouterr().err

    @pytest.mark.parametrize("before, after, regressed", [
        (0.2, 0.39, False),    # noise alone passes
        (0.2, 0.41, True),     # past the threshold
        (0.01, 0.04, False),   # both under the floor: too small to judge
        (0.01, 0.06, True),    # ... one side over it is judged
        (0.4, 0.1, False),     # faster is never a regression
    ])
    def test_the_one_wall_rule(self, before, after, regressed):
        assert wall_regressed(before, after, 1.0, 0.05) is regressed

    def test_a_workload_only_one_commit_ran_is_a_problem(self, tmp_path):
        fewer = copy.deepcopy(GRIDBENCH_DOC)
        del fewer["runs"][0]["workloads"]["beta"]
        other_seed = copy.deepcopy(GRIDBENCH_DOC)
        other_seed["runs"][0]["seed"] = 11
        with ResultsStore(tmp_path / "r.db") as store:
            store.ingest_obj(GRIDBENCH_DOC, source="gridbench.json", commit="a")
            store.ingest_obj(fewer, source="gridbench.json", commit="b")
            store.ingest_obj(other_seed, source="gridbench.json", commit="c")
            assert diff_commits(store, "a", "b")["problems"] == ["beta: present at a only"]
            assert diff_commits(store, "a", "c")["problems"] == [
                "alpha: no seed was run at both a and c", "beta: no seed was run at both a and c"]


class TestBenchmarkOfRecord:
    """The ledger reads ``repro-gridbench/1``: the committed reference (read
    only) ingests, trends and diffs, and a moved fingerprint says what moved."""

    @pytest.fixture(scope="class")
    def reference(self):
        return json.loads(REFERENCE.read_text(encoding="utf-8"))

    def _two_commits(self, tmp_path, old, new):
        db = str(tmp_path / "r.db")
        with ResultsStore(db) as store:
            store.ingest_obj(old, source="reference.json", commit="old")
            store.ingest_obj(new, source="gridbench.json", commit="new")
        return db

    def _diff(self, db, capsys, *flags):
        code = store_main(["diff", "old", "new", "--db", db, *flags])
        return code, capsys.readouterr().out

    def test_reference_is_one_run_per_seed_and_trends_by_workload(self, tmp_path, capsys):
        db = str(tmp_path / "r.db")
        assert store_main(["ingest", str(REFERENCE), "--commit", "reference", "--db", db]) == 0
        with ResultsStore(db) as store:
            assert [(r["kind"], r["seed"]) for r in store.runs()] == [
                ("gridbench", 7), ("gridbench", 11)]
            assert sorted(store.trend("run_s")["series"]) == [
                "fuzz_campaign", "harness_report", "negotiate_scale", "pool_backlog",
                "service_roundtrip"]
        capsys.readouterr()
        assert store_main(["trend", "--metric", "run_s", "--db", db]) == 0
        assert "harness_report" in capsys.readouterr().out

    def test_the_same_document_at_two_commits_diffs_ok(self, tmp_path, capsys, reference):
        code, out = self._diff(self._two_commits(tmp_path, reference, reference), capsys)
        assert code == 0 and out.endswith("OK\n") and "5 workload(s)" in out

    def test_moved_fingerprint_names_workload_and_counters(self, tmp_path, capsys, reference):
        moved = copy.deepcopy(reference)
        workload = moved["runs"][0]["workloads"]["fuzz_campaign"]
        workload["fingerprint"] = "0" * 64
        workload["per_layer"]["sim.events"]["value"] = 46012
        code, out = self._diff(self._two_commits(tmp_path, reference, moved), capsys)
        assert code == 1
        problems = [line for line in out.splitlines() if line.startswith("REGRESSION")]
        assert problems == [
            "REGRESSION: fuzz_campaign: fingerprint moved at seed 7: 238b81077884 -> 000000000000",
            "REGRESSION: fuzz_campaign: sim.events 89315 -> 46012",
        ]

    def test_a_doubled_run_s_trips_the_wall_rule_once(self, tmp_path, capsys, reference):
        slower = copy.deepcopy(reference)
        run_s = slower["runs"][1]["workloads"]["pool_backlog"]["end_to_end"]["run_s"]
        run_s["value"] *= 2.1
        db = self._two_commits(tmp_path, reference, slower)
        code, out = self._diff(db, capsys)
        assert code == 1 and out.count("REGRESSION") == 1
        assert "pool_backlog: run_s wall regression at seed 11" in out
        assert self._diff(db, capsys, "--wall-threshold", "4.0")[0] == 0

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(runs={"seed": 7}),
        lambda doc: doc["runs"][1]["workloads"]["pool_backlog"].pop("fingerprint"),
        lambda doc: doc["runs"][1]["workloads"]["pool_backlog"]["per_layer"]["sim.events"].update(
            value="many"),
    ])
    def test_a_malformed_document_is_typed_and_leaves_no_row(self, tmp_path, reference, edit):
        bad = copy.deepcopy(reference)
        edit(bad)
        with ResultsStore(tmp_path / "r.db") as store:
            with pytest.raises(IngestError) as err:
                store.ingest_obj(bad, source="gridbench.json", commit="aaa")
            assert (err.value.code, err.value.source) == ("MALFORMED", "gridbench.json")
            # The first run of the document was good: it must not land alone.
            assert store.runs() == [] and store.metric_names() == []


class TestCliErrorsAreTyped:
    """P4 at the store CLI: its own typed errors end in one line, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["trend"], ["query"], ["diff", "a", "b"], ["gc"], ["ingest", str(REFERENCE)],
    ])
    def test_a_store_that_cannot_be_opened_is_exit_2_and_one_line(self, tmp_path, capsys, argv):
        assert store_main([*argv, "--db", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: store at ") and captured.err.count("\n") == 1

    def test_a_foreign_schema_is_exit_2_and_one_line(self, tmp_path, capsys):
        db = tmp_path / "r.db"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
        conn.execute("INSERT INTO meta VALUES ('schema', 'other/9')")
        conn.commit()
        conn.close()
        assert store_main(["query", "--db", str(db)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_a_file_that_was_never_read_is_unreadable_not_not_json(self, tmp_path, capsys):
        db = str(tmp_path / "r.db")
        assert store_main(["ingest", str(tmp_path / "nope.json"), str(tmp_path), "--db", db]) == 1
        err = capsys.readouterr().err
        assert err.count("[UNREADABLE] cannot read file") == 2 and "NOT_JSON" not in err


class TestConfigHash:
    def test_stable_across_key_order(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_differs_across_configs(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})
