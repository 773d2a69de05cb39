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
from repro.obs.store.ingest import extract, extract_text

BENCH_RECORD = {
    "schema": "repro-bench/1",
    "bench": "toy",
    "rounds_override": None,
    "cases": {
        "case_a": {
            "ok": True,
            "deterministic": True,
            "iterations": 2,
            "rounds": 1,
            "error": None,
            "wall_seconds": {"min": 0.25, "max": 0.25, "mean": 0.25,
                             "per_round": [0.25]},
            "sim": {"events": 10, "sim_time": 5.0, "triples": [], "top": [
                {"daemon": "schedd", "phase": "match", "scope": "-",
                 "events": 10, "sim_time": 5.0},
            ]},
            "histograms": {},
            "critical_path": [],
            "folded": ["schedd;match 5.0"],
        }
    },
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

    def test_bench_round_trip(self, tmp_path):
        store = ResultsStore(tmp_path / "r.db")
        run_id = store.ingest_obj(BENCH_RECORD, source="BENCH_toy.json",
                                  commit="aaa")
        row = store.runs()[0]
        assert (row["kind"], row["schema"]) == ("bench", "repro-bench/1")
        payload = store.payload(run_id)
        # Stored wall-stripped: sim side intact, wall keys gone.
        assert payload["cases"]["case_a"]["sim"]["events"] == 10
        assert "wall_seconds" not in payload["cases"]["case_a"]
        # ... but the wall time still lands in a wall-flagged metric row.
        assert ("wall_seconds", "toy:case_a") in store.wall_metrics("aaa")
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
        extracted = extract_text(line, "one.jsonl")
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

    def test_bench_results_db_equals_ingest_of_its_files(self, tmp_path, capsys):
        from repro.bench.__main__ import main as bench_main
        from tests.bench.test_runner import _write_tiny

        _write_tiny(tmp_path)
        out = tmp_path / "out"
        produced, ingested = str(tmp_path / "produced.db"), str(tmp_path / "ingested.db")
        assert bench_main(["--bench-dir", str(tmp_path), "--out", str(out), "--rounds", "1",
                           "--results-db", produced]) == 0
        assert store_main(["ingest", str(out / "BENCH_tiny.json"), "--db", ingested]) == 0
        rows = table_rows(produced)
        assert rows == table_rows(ingested)
        assert len(rows["bench_cases"]) == 5 and rows["profile_sections"]


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
        store.ingest_obj(BENCH_RECORD, source="BENCH_toy.json", commit="aaa")
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
            store.ingest_obj(BENCH_RECORD, source="BENCH_toy.json", commit="aaa")
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
            store.ingest_obj(BENCH_RECORD, source="BENCH_toy.json", commit=commit)
        dry = store.gc(keep=1, dry_run=True)
        assert len(dry["deleted"]) == 2 and len(store.runs()) == 3
        result = store.gc(keep=1)
        assert len(result["deleted"]) == 2
        rows = store.runs()
        assert len(rows) == 1 and rows[0]["commit"] == "c"
        # Child rows went with their runs.
        assert store.wall_metrics("a") == {}
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
            store.ingest_obj({"schema": "repro-bench/1", "cases": "nope"},
                             source="BENCH_bad.json")
        assert err.value.code == "MALFORMED"
        assert "BENCH_bad.json" in str(err.value)
        assert err.value.to_dict()["code"] == "MALFORMED"
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
        summary = extract_text(TRACE_JSONL, "t.jsonl").payload
        edit(summary)
        with pytest.raises(IngestError) as err:
            extract(summary, "summary.json")
        assert (err.value.code, err.value.source) == ("MALFORMED", "summary.json")

    def test_unfoldable_trace_line_is_typed(self):
        with pytest.raises(IngestError) as err:
            extract_text(TRACE_JSONL + '\n{"kind": "event", "t": "soon"}', "t.jsonl")
        assert err.value.code == "MALFORMED" and "line 4" in err.value.message

    def test_cli_rejects_an_empty_file_typed(self, tmp_path, capsys):
        empty = tmp_path / "t.jsonl"
        empty.write_text("", encoding="utf-8")
        assert store_main(["ingest", str(empty), "--db", str(tmp_path / "r.db")]) == 1
        assert "[NOT_JSON] file is empty" in capsys.readouterr().err

    def test_cli_ingest_continues_past_rejects(self, tmp_path, capsys):
        good = tmp_path / "BENCH_toy.json"
        good.write_text(json.dumps(BENCH_RECORD), encoding="utf-8")
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


class TestTrendAndDiff:
    def _bench_at(self, wall):
        record = json.loads(json.dumps(BENCH_RECORD))
        record["cases"]["case_a"]["wall_seconds"] = {
            "min": wall, "max": wall, "mean": wall, "per_round": [wall],
        }
        return record

    def test_trend_axis_is_commit_order(self, tmp_path):
        store = ResultsStore(tmp_path / "r.db")
        for commit, wall in (("a", 0.2), ("b", 0.3)):
            store.ingest_obj(self._bench_at(wall), source="BENCH_toy.json",
                             commit=commit)
        trend = store.trend("wall_seconds")
        assert trend["commits"] == ["a", "b"]
        assert trend["series"]["toy:case_a"] == [0.2, 0.3]
        assert trend["wall"]["toy:case_a"] is True
        store.close()

    def test_trend_cli_flags_wall_regression(self, tmp_path, capsys):
        db = str(tmp_path / "r.db")
        store = ResultsStore(db)
        for commit, wall in (("a", 0.2), ("b", 0.9)):
            store.ingest_obj(self._bench_at(wall), source="BENCH_toy.json",
                             commit=commit)
        store.close()
        assert store_main(["trend", "--metric", "wall_seconds", "--db", db]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_trend_unknown_metric_exits_2(self, tmp_path, capsys):
        db = str(tmp_path / "r.db")
        ResultsStore(db).close()
        assert store_main(["trend", "--metric", "nope", "--db", db]) == 2
        assert "no data" in capsys.readouterr().err

    def test_diff_flags_sim_change_exactly(self, tmp_path):
        from repro.obs.store.query import diff_commits

        store = ResultsStore(tmp_path / "r.db")
        store.ingest_obj(BENCH_RECORD, source="BENCH_toy.json", commit="a")
        changed = json.loads(json.dumps(BENCH_RECORD))
        changed["cases"]["case_a"]["sim"]["events"] = 11  # sim-side drift
        store.ingest_obj(changed, source="BENCH_toy.json", commit="b")
        diff = diff_commits(store, "a", "b")
        assert any("sim" in p or "events" in p for p in diff["problems"])
        store.close()

    def test_diff_missing_commit_exits_2(self, tmp_path, capsys):
        db = str(tmp_path / "r.db")
        store = ResultsStore(db)
        store.ingest_obj(BENCH_RECORD, source="BENCH_toy.json", commit="a")
        store.close()
        assert store_main(["diff", "a", "ghost", "--db", db]) == 2
        assert "MISSING COMMIT" in capsys.readouterr().err


class TestConfigHash:
    def test_stable_across_key_order(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_differs_across_configs(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})
