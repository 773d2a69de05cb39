"""The persistent run store: SQLite, schema ``repro-service/1``.

Three tables, two of them append-only:

- ``runs`` -- one row per accepted submission, *inserted once and never
  updated*: the kind, the authenticated tenant, and the canonical-JSON
  spec.  The spec is the replay contract: re-executing it through the
  deterministic core reproduces the run's artifacts byte-for-byte.
- ``run_events`` -- the append-only lifecycle journal: ``submitted``,
  ``running``, ``done`` / ``failed`` rows keyed by a global sequence.
  A run's current state is the latest event, never an overwrite, so the
  full history of every run survives.
- ``artifacts`` -- named result blobs (``result``, ``trace``,
  ``metrics``, ``table``, ``batch``) written exactly once when a run
  finishes.

All access happens on one thread (the service event loop); the executor
bridge runs pure functions in workers and hands results back to the
loop for recording.  Current-state lookups are served from an in-memory
cache rebuilt from the journal on open, so admission control
(``active_count``) costs no query.

Every write goes through :meth:`RunStore.transaction`: one commit per
unit of work (a submit, a claimed drain, a recorded batch), and a
failure inside one rolls back journal *and* cache together.  Connection,
WAL durability policy and schema check are the shared
:class:`~repro.obs.sqlite_store.SqliteStore` base's.
"""

from __future__ import annotations

import json
from functools import partial

from repro.obs.canonical import canonical_json
from repro.obs.sqlite_store import (
    SqliteStore,
    StoreDurabilityError,
    StoreOpenError,
    StoreSchemaError,
)
from repro.service.errors import NotFound

__all__ = [
    "RUN_STATES",
    "STORE_SCHEMA",
    "RunStore",
    "StoreDurabilityError",
    "StoreOpenError",
    "StoreSchemaError",
]

STORE_SCHEMA = "repro-service/1"

#: Lifecycle states, in order.  ``submitted`` and ``running`` count as
#: *active* for admission control; ``done`` and ``failed`` are terminal.
RUN_STATES = ("submitted", "running", "done", "failed")

_TABLES = """
CREATE TABLE IF NOT EXISTS runs (
    run_id INTEGER PRIMARY KEY,
    kind   TEXT NOT NULL,
    tenant TEXT NOT NULL,
    spec   TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS run_events (
    seq    INTEGER PRIMARY KEY,
    run_id INTEGER NOT NULL REFERENCES runs(run_id),
    state  TEXT NOT NULL,
    detail TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS run_events_by_run ON run_events(run_id, seq);
CREATE TABLE IF NOT EXISTS artifacts (
    run_id  INTEGER NOT NULL REFERENCES runs(run_id),
    name    TEXT NOT NULL,
    content BLOB NOT NULL,
    PRIMARY KEY (run_id, name)
);
"""


class RunStore(SqliteStore):
    """Open (or create) the run store at *path* (``:memory:`` for tests).

    Specs are stored and compared as canonical JSON, so "same spec" is a
    byte question, not a parse question.
    """

    SCHEMA = STORE_SCHEMA
    TABLES = _TABLES

    def __init__(self, path: str = ":memory:"):
        super().__init__(path)
        #: run_id -> current state and its inverse, state -> run ids; both
        #: rebuilt from the journal on open, written only by ``_set_state``.
        self._states: dict[int, str] = {}
        self._by_state: dict[str, set[int]] = {state: set() for state in RUN_STATES}
        for run_id, state in self._db.execute(
            "SELECT run_id, state FROM run_events ORDER BY seq"
        ):
            self._set_state(run_id, state)

    def _set_state(self, run_id: int, state: str | None) -> None:
        """The one place a run's cached state changes (``None`` forgets it)."""
        previous = self._states.pop(run_id, None)
        if self._undo is not None:  # a rollback restores the cache too
            self._undo.append(partial(self._set_state, run_id, previous))
        if previous is not None:
            self._by_state[previous].discard(run_id)
        if state is not None:
            self._states[run_id] = state
            self._by_state[state].add(run_id)

    # -- submission ------------------------------------------------------
    def submit_run(self, kind: str, tenant: str, spec: dict) -> int:
        """Record an accepted submission; return its run id.

        The runs row and the ``submitted`` journal entry commit together:
        a run either exists with its full replayable spec or not at all.
        """
        with self.transaction():
            run_id = self._db.execute(
                "INSERT INTO runs(kind, tenant, spec) VALUES (?, ?, ?)",
                (kind, tenant, canonical_json(spec)),
            ).lastrowid
            self._db.execute(
                "INSERT INTO run_events(run_id, state) VALUES (?, 'submitted')", (run_id,)
            )
            self._set_state(run_id, "submitted")
        return run_id

    # -- lifecycle -------------------------------------------------------
    def record_state(self, run_id: int, state: str, detail: str = "") -> None:
        """Append a lifecycle event (the journal never updates in place)."""
        if state not in RUN_STATES:
            raise ValueError(f"unknown run state {state!r}; want one of {RUN_STATES}")
        if run_id not in self._states:
            raise NotFound(f"no run {run_id}")
        with self.transaction():
            self._db.execute(
                "INSERT INTO run_events(run_id, state, detail) VALUES (?, ?, ?)",
                (run_id, state, detail),
            )
            self._set_state(run_id, state)

    def requeue_running(self) -> int:
        """Re-queue every run a dead process left ``running``; return how many.

        Only for the process that owns the drain, before it drains: to any
        other open a ``running`` run is one being executed.  Safe because
        execution is pure and a ``running`` run has no artifacts.
        """
        orphans = sorted(self._by_state["running"])
        with self.transaction():
            for run_id in orphans:
                self.record_state(run_id, "submitted", detail="recovered")
        return len(orphans)

    # -- queries ---------------------------------------------------------
    def run_row(self, run_id: int) -> dict | None:
        row = self._db.execute(
            "SELECT run_id, kind, tenant, spec FROM runs WHERE run_id=?", (run_id,)
        ).fetchone()
        if row is None:
            return None
        return {
            "run_id": row[0],
            "kind": row[1],
            "tenant": row[2],
            "spec": json.loads(row[3]),
        }

    def run_status(self, run_id: int) -> dict:
        """The run's current view: row + state + latest detail."""
        row = self.run_row(run_id)
        if row is None:
            raise NotFound(f"no run {run_id}")
        state, detail = self._db.execute(
            "SELECT state, detail FROM run_events WHERE run_id=? ORDER BY seq DESC LIMIT 1",
            (run_id,),
        ).fetchone()
        row["state"] = state
        row["detail"] = detail
        row["artifacts"] = self.artifact_names(run_id)
        return row

    def pending_runs(self) -> list[dict]:
        """Runs still in ``submitted`` state, in submission (run id) order."""
        return [
            row
            for run_id in sorted(self._by_state["submitted"])
            if (row := self.run_row(run_id)) is not None
        ]

    def active_count(self) -> int:
        """Submitted + running runs: the admission-control gauge."""
        return len(self._by_state["submitted"]) + len(self._by_state["running"])

    def queue_stats(self) -> dict:
        """Aggregate queue view: totals by state and by tenant."""
        by_tenant: dict[str, int] = {}
        for tenant, count in self._db.execute(
            "SELECT tenant, COUNT(*) FROM runs GROUP BY tenant ORDER BY tenant"
        ):
            by_tenant[tenant] = count
        return {
            "total": len(self._states),
            "active": self.active_count(),
            "by_state": {state: len(ids) for state, ids in self._by_state.items()},
            "by_tenant": by_tenant,
        }

    # -- artifacts -------------------------------------------------------
    def put_artifact(self, run_id: int, name: str, content: bytes) -> None:
        if run_id not in self._states:
            raise NotFound(f"no run {run_id}")
        with self.transaction():
            self._db.execute(
                "INSERT OR REPLACE INTO artifacts(run_id, name, content) VALUES (?, ?, ?)",
                (run_id, name, content),
            )

    def get_artifact(self, run_id: int, name: str) -> bytes:
        row = self._db.execute(
            "SELECT content FROM artifacts WHERE run_id=? AND name=?", (run_id, name)
        ).fetchone()
        if row is None:
            raise NotFound(f"run {run_id} has no artifact {name!r}")
        return bytes(row[0])

    def artifact_names(self, run_id: int) -> list[str]:
        return [
            name
            for (name,) in self._db.execute(
                "SELECT name FROM artifacts WHERE run_id=? ORDER BY name", (run_id,)
            )
        ]

    def event_journal(self, run_id: int) -> list[tuple[str, str]]:
        """The full (state, detail) history -- the append-only evidence."""
        return list(
            self._db.execute(
                "SELECT state, detail FROM run_events WHERE run_id=? ORDER BY seq",
                (run_id,),
            )
        )
