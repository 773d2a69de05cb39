"""Run store: schema, append-only journal, artifacts, persistence."""

import sqlite3

import pytest

from repro.service.errors import NotFound
from repro.service.store import STORE_SCHEMA, RunStore, StoreSchemaError
from tests.service import event_journal


@pytest.fixture
def store():
    s = RunStore(":memory:")
    yield s
    s.close()


class TestSchema:
    def test_fresh_store_stamps_schema(self, tmp_path):
        path = str(tmp_path / "runs.db")
        RunStore(path).close()
        row = sqlite3.connect(path).execute(
            "SELECT value FROM meta WHERE key='schema'"
        ).fetchone()
        assert row == (STORE_SCHEMA,)

    def test_schema_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "runs.db")
        RunStore(path).close()
        db = sqlite3.connect(path)
        db.execute("UPDATE meta SET value='repro-service/999' WHERE key='schema'")
        db.commit()
        db.close()
        with pytest.raises(StoreSchemaError):
            RunStore(path)


class TestLifecycle:
    def test_submit_assigns_sequential_ids(self, store):
        assert store.submit_run("job", "alice", {"work": 1.0}) == 1
        assert store.submit_run("job", "bob", {"work": 2.0}) == 2

    def test_journal_is_append_only(self, store):
        run_id = store.submit_run("job", "alice", {"work": 1.0})
        store.record_state(run_id, "running")
        store.record_state(run_id, "done", detail="COMPLETED")
        assert event_journal(store, run_id) == [
            ("submitted", ""), ("running", ""), ("done", "COMPLETED"),
        ]
        assert store.run_status(run_id)["state"] == "done"

    def test_unknown_state_rejected(self, store):
        run_id = store.submit_run("job", "alice", {"work": 1.0})
        with pytest.raises(ValueError):
            store.record_state(run_id, "exploded")

    def test_unknown_run_rejected(self, store):
        with pytest.raises(NotFound):
            store.record_state(99, "running")
        with pytest.raises(NotFound):
            store.run_status(99)

    def test_pending_runs_in_submission_order(self, store):
        ids = [store.submit_run("job", "alice", {"work": float(i)}) for i in range(3)]
        store.record_state(ids[1], "running")
        assert [row["run_id"] for row in store.pending_runs()] == [ids[0], ids[2]]

    def test_queue_stats_and_active_count(self, store):
        a = store.submit_run("job", "alice", {"work": 1.0})
        store.submit_run("experiment", "bob", {"experiment": "fig1", "seed": 0})
        store.record_state(a, "running")
        stats = store.queue_stats()
        assert stats["total"] == 2
        assert stats["active"] == 2 == store.active_count()
        assert stats["by_state"]["running"] == 1
        assert stats["by_tenant"] == {"alice": 1, "bob": 1}
        store.record_state(a, "failed", detail="boom")
        assert store.active_count() == 1


class TestArtifacts:
    def test_round_trip_and_listing(self, store):
        run_id = store.submit_run("job", "alice", {"work": 1.0})
        store.put_artifact(run_id, "result", b'{"ok": true}')
        store.put_artifact(run_id, "trace", b"line1\nline2\n")
        assert store.get_artifact(run_id, "result") == b'{"ok": true}'
        assert store.artifact_names(run_id) == ["result", "trace"]

    def test_missing_artifact_is_typed(self, store):
        run_id = store.submit_run("job", "alice", {"work": 1.0})
        with pytest.raises(NotFound):
            store.get_artifact(run_id, "trace")


class TestPersistence:
    def test_state_cache_rebuilt_on_reopen(self, tmp_path):
        path = str(tmp_path / "runs.db")
        store = RunStore(path)
        a = store.submit_run("job", "alice", {"work": 1.0})
        b = store.submit_run("job", "bob", {"work": 2.0})
        store.record_state(a, "running")
        store.record_state(a, "done")
        store.put_artifact(a, "result", b"{}")
        store.close()

        reopened = RunStore(path)
        assert reopened.run_status(a)["state"] == "done"
        assert reopened.run_status(b)["state"] == "submitted"
        assert [row["run_id"] for row in reopened.pending_runs()] == [b]
        assert reopened.get_artifact(a, "result") == b"{}"
        reopened.close()
