"""The store's write contract: one transaction per unit of work, WAL, recovery."""

import os
import signal
import sqlite3
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.sqlite_store as store_module
from repro.service.__main__ import main as service_main
from repro.service.executor import ServiceExecutor
from repro.service.store import RUN_STATES, RunStore, StoreDurabilityError
from tests.service import drain_once, event_journal

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture
def file_store(tmp_path):
    s = RunStore(str(tmp_path / "runs.db"))
    yield s
    s.close()


def make_executor(store):
    return ServiceExecutor(store, workers=1, batch_machines=2)


def submit_jobs(store, n, work=3.0):
    return [store.submit_run("job", "alice", {"work": work}) for _ in range(n)]


def cache_view(store):
    """Everything the in-memory state cache answers, as plain data."""
    stats = store.queue_stats()
    return {
        "by_state": stats["by_state"],
        "total": stats["total"],
        "active": store.active_count(),
        "pending": [row["run_id"] for row in store.pending_runs()],
    }


def journal_view(store):
    """The same view rebuilt from the journal by a fresh open of the file."""
    fresh = RunStore(store.path)
    try:
        return cache_view(fresh)
    finally:
        fresh.close()


def count_commits(store, fn):
    """COMMIT statements the store's connection issues while *fn* runs."""
    statements = []
    store._db.set_trace_callback(statements.append)
    try:
        fn()
    finally:
        store._db.set_trace_callback(None)
    return sum(1 for sql in statements if sql.strip().upper().startswith("COMMIT"))


class TestTransaction:
    def test_nested_blocks_commit_once(self, file_store):
        def work():
            with file_store.transaction():
                run_id = file_store.submit_run("job", "alice", {"work": 1.0})
                with file_store.transaction():
                    file_store.record_state(run_id, "running")
                    file_store.put_artifact(run_id, "result", b"{}")

        assert count_commits(file_store, work) == 1
        assert cache_view(file_store) == journal_view(file_store)
        assert cache_view(file_store)["by_state"]["running"] == 1

    def test_exception_rolls_back_journal_and_cache(self, file_store):
        kept = file_store.submit_run("job", "alice", {"work": 1.0})
        before = cache_view(file_store)
        with pytest.raises(RuntimeError, match="boom"):
            with file_store.transaction():
                file_store.record_state(kept, "running")
                lost = file_store.submit_run("job", "bob", {"work": 2.0})
                file_store.put_artifact(lost, "result", b"{}")
                raise RuntimeError("boom")
        assert cache_view(file_store) == before == journal_view(file_store)
        assert event_journal(file_store, kept) == [("submitted", "")]
        assert file_store.run_row(lost) is None
        # The store is usable afterwards, and the rolled-back id is free again.
        assert file_store.submit_run("job", "bob", {"work": 2.0}) == lost
        assert file_store.artifact_names(lost) == []

    def test_one_submit_is_one_commit(self, file_store):
        assert count_commits(file_store, lambda: submit_jobs(file_store, 1)) == 1

    def test_forty_job_drain_is_two_commits(self, file_store):
        submit_jobs(file_store, 40)
        executor = make_executor(file_store)
        finished = []
        assert count_commits(file_store, lambda: finished.append(drain_once(executor))) == 2
        assert finished == [40]
        assert cache_view(file_store) == journal_view(file_store)

    def test_each_non_batch_item_is_its_own_transaction(self, file_store):
        for seed in (0, 1):
            file_store.submit_run("experiment", "alice", {"experiment": "time_scope", "seed": seed})
        executor = make_executor(file_store)
        assert count_commits(file_store, lambda: drain_once(executor)) == 3  # 1 claim + 2 items


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["submit", "requeue", *RUN_STATES]),
        st.integers(min_value=0, max_value=7),
        st.booleans(),
    ),
    max_size=40,
)


class TestCacheEqualsJournal:
    @settings(max_examples=60, deadline=None)
    @given(_OPS)
    def test_under_random_commits_and_rollbacks(self, ops):
        store = RunStore(":memory:")
        for op, pick, fail in ops:
            try:
                with store.transaction():
                    if op == "submit" or not store.queue_stats()["total"]:
                        store.submit_run("job", "alice", {"work": 1.0})
                    elif op == "requeue":
                        store.requeue_running()
                    else:
                        store.record_state(1 + pick % store.queue_stats()["total"], op)
                    if fail:
                        raise KeyboardInterrupt  # even a BaseException rolls back
            except KeyboardInterrupt:
                pass
            latest = dict(store._db.execute("SELECT run_id, state FROM run_events ORDER BY seq"))
            states = list(latest.values())
            assert cache_view(store) == {
                "by_state": {state: states.count(state) for state in RUN_STATES},
                "total": len(latest),
                "active": states.count("submitted") + states.count("running"),
                "pending": sorted(r for r, state in latest.items() if state == "submitted"),
            }
        store.close()


class TestRecordIsAtomic:
    def test_fault_midway_through_record_batch_leaves_nothing(self, file_store, monkeypatch):
        run_ids = submit_jobs(file_store, 6)
        executor = make_executor(file_store)
        items = executor.collect_items()
        results = executor.execute_items(items)
        claimed = cache_view(file_store)

        real_put, calls = file_store.put_artifact, []

        def failing_put(run_id, name, content):
            calls.append(run_id)
            if len(calls) == 7:  # three runs fully written, the fourth half-way
                raise sqlite3.OperationalError("disk I/O error")
            real_put(run_id, name, content)

        monkeypatch.setattr(file_store, "put_artifact", failing_put)
        with pytest.raises(sqlite3.OperationalError):
            executor.record_results(items, results)

        assert cache_view(file_store) == claimed == journal_view(file_store)
        for run_id in run_ids:
            assert file_store.artifact_names(run_id) == []
            assert [state for state, _ in event_journal(file_store, run_id)] == [
                "submitted", "running",
            ]

        monkeypatch.setattr(file_store, "put_artifact", real_put)
        assert executor.record_results(items, results) == 6
        for run_id in run_ids:
            assert file_store.run_status(run_id)["state"] == "done"
            assert file_store.artifact_names(run_id) == ["batch", "result"]
        assert cache_view(file_store) == journal_view(file_store)
        assert file_store.active_count() == 0


class TestDurabilityPolicy:
    def test_file_store_runs_wal_with_full_sync(self, file_store):
        assert file_store._db.execute("PRAGMA journal_mode").fetchone() == ("wal",)
        assert file_store._db.execute("PRAGMA synchronous").fetchone() == (2,)

    def test_memory_store_is_unaffected(self):
        store = RunStore(":memory:")
        run_id = store.submit_run("job", "alice", {"work": 1.0})
        assert store._db.execute("PRAGMA journal_mode").fetchone() == ("memory",)
        assert store.run_status(run_id)["state"] == "submitted"
        store.close()

    def test_clean_close_checkpoints_the_sidecars_away(self, tmp_path):
        path = str(tmp_path / "runs.db")
        store = RunStore(path)
        submit_jobs(store, 3)
        assert os.path.exists(path + "-wal")
        store.close()
        assert not os.path.exists(path + "-wal") and not os.path.exists(path + "-shm")

    def test_rollback_journal_db_converts_in_place(self, tmp_path):
        path = str(tmp_path / "old.db")
        store = RunStore(path)
        run_id = store.submit_run("job", "alice", {"work": 1.0})
        store.close()
        db = sqlite3.connect(path)
        assert db.execute("PRAGMA journal_mode=DELETE").fetchone() == ("delete",)
        db.close()

        reopened = RunStore(path)
        assert reopened._db.execute("PRAGMA journal_mode").fetchone() == ("wal",)
        assert reopened.run_status(run_id)["state"] == "submitted"
        reopened.close()

    def test_store_that_cannot_enter_wal_refuses_to_open(self, tmp_path, monkeypatch):
        # The dot-file locking VFS has no shared memory, so SQLite answers
        # the WAL request with the mode it stays in.
        real_connect = sqlite3.connect

        def connect_without_shm(path):
            return real_connect(f"file:{path}?vfs=unix-dotfile", uri=True)

        monkeypatch.setattr(store_module.sqlite3, "connect", connect_without_shm)
        with pytest.raises(StoreDurabilityError, match="journal_mode='delete'"):
            RunStore(str(tmp_path / "runs.db"))

    def test_acknowledged_submits_survive_an_unclean_exit(self, tmp_path):
        path = str(tmp_path / "runs.db")
        script = (
            "import os, sys\n"
            "from repro.service.store import RunStore\n"
            "store = RunStore(sys.argv[1])\n"
            "for i in range(5):\n"
            "    print(store.submit_run('job', 'alice', {'work': float(i)}), flush=True)\n"
            "os._exit(0)\n"  # no close(), no checkpoint, no atexit
        )
        done = subprocess.run(
            [sys.executable, "-c", script, path], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC}, timeout=60, check=True,
        )
        acknowledged = [int(line) for line in done.stdout.split()]
        assert acknowledged == [1, 2, 3, 4, 5]
        assert os.path.getsize(path + "-wal") > 0  # the commits live in the log

        store = RunStore(path)
        assert [row["run_id"] for row in store.pending_runs()] == acknowledged
        assert store.run_row(5)["spec"] == {"work": 4.0}
        store.close()


class TestReadersDoNotWaitForTheWriter:
    def test_second_connection_reads_a_finished_run_mid_transaction(self, file_store):
        (done,) = submit_jobs(file_store, 1)
        drain_once(make_executor(file_store))
        reader = RunStore(file_store.path)
        try:
            with file_store.transaction():
                (later,) = submit_jobs(file_store, 1)
                file_store.record_state(later, "running")
                assert reader.run_status(done)["state"] == "done"
                assert reader.get_artifact(done, "result") == file_store.get_artifact(
                    done, "result"
                )
                assert reader.run_row(later) is None  # uncommitted work stays private
            assert reader.run_status(later)["state"] == "running"
        finally:
            reader.close()


class TestRestartRecovery:
    def drained(self, path, interrupt):
        """Submit six jobs and drain them, optionally dying after the claim."""
        store = dead = RunStore(path)
        run_ids = submit_jobs(store, 4) + submit_jobs(store, 2, work=5.0)
        if interrupt:
            assert make_executor(store).collect_items()
            # The process "dies" here: claimed, nothing recorded, no close().
            # A restart is a fresh open of the same file.
            store = RunStore(path)
            assert store.pending_runs() == [] and store.active_count() == 6
            assert store.requeue_running() == 6
            assert store.requeue_running() == 0
        assert drain_once(make_executor(store)) == 6
        artifacts = {
            (run_id, name): store.get_artifact(run_id, name)
            for run_id in run_ids for name in ("result", "batch")
        }
        journals = [event_journal(store, run_id) for run_id in run_ids]
        assert store.active_count() == 0
        assert cache_view(store) == journal_view(store)
        store.close()
        dead.close()
        return run_ids, artifacts, journals

    def test_requeued_drain_matches_an_uninterrupted_run(self, tmp_path):
        clean = self.drained(str(tmp_path / "clean.db"), interrupt=False)
        killed = self.drained(str(tmp_path / "killed.db"), interrupt=True)
        assert killed[:2] == clean[:2]  # same run ids, byte-identical artifacts
        assert set(map(tuple, clean[2])) == {
            (("submitted", ""), ("running", ""), ("done", "COMPLETED")),
        }
        assert set(map(tuple, killed[2])) == {(
            ("submitted", ""), ("running", ""), ("submitted", "recovered"),
            ("running", ""), ("done", "COMPLETED"),
        )}

    def test_replay_never_requeues(self, tmp_path, capsys):
        path = str(tmp_path / "runs.db")
        store = RunStore(path)
        (done,) = submit_jobs(store, 1)
        drain_once(make_executor(store))
        (busy,) = submit_jobs(store, 1)
        store.record_state(busy, "running")
        assert service_main(["replay", "--db", path, str(done)]) == 0
        assert "byte-identical" in capsys.readouterr().out
        assert event_journal(store, busy) == [("submitted", ""), ("running", "")]
        store.close()

    def test_serve_requeues_once_and_finishes_the_orphan(self, tmp_path):
        path = str(tmp_path / "runs.db")
        store = RunStore(path)
        (orphan,) = submit_jobs(store, 1)
        store.record_state(orphan, "running")
        store.close()

        log_path = tmp_path / "serve.log"
        with open(log_path, "w") as log:
            server = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "serve", "--port", "0", "--db", path,
                 "--secret", "s3cret", "--results-db", "none"],
                stdout=log, stderr=subprocess.STDOUT,
                env={**os.environ, "PYTHONPATH": SRC},
            )
        try:
            reader, deadline = RunStore(path), time.monotonic() + 60
            while reader.run_status(orphan)["state"] != "done":
                assert server.poll() is None, log_path.read_text()
                assert time.monotonic() < deadline, log_path.read_text()
                time.sleep(0.05)
            journal = event_journal(reader, orphan)
            reader.close()
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=30) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)
        assert journal == [
            ("submitted", ""), ("running", ""), ("submitted", "recovered"),
            ("running", ""), ("done", "COMPLETED"),
        ]
        text = log_path.read_text()
        assert "recovered=1" in text and "stopped cleanly" in text
