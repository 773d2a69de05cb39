"""The longitudinal results store: SQLite, schema ``repro-results/1``.

One append-only database remembers what every one-shot artifact forgot:
``runs`` rows keyed by commit, config hash, and seed, each carrying the
artifact's **wall-stripped canonical payload** (the deterministic part,
byte-identical across serial and ``--jobs N`` source runs), plus
relational projections -- ``metrics``, ``cells``, ``violations``,
``profile_sections``, ``error_hops`` -- that the query
CLI (:mod:`repro.obs.store.__main__`) and the GridConsole web view
(:mod:`repro.obs.web`) read directly.

The determinism contract (DESIGN.md §3.6f): everything wall-side --
the commit sha, the ingestion timestamp, and ``wall``-flagged metric
rows -- lives in its own columns, never inside the payload, so
``query --strip-wall`` output over two stores fed the same artifacts is
byte-identical no matter when or on what host they were ingested.

Connection, WAL durability policy, schema check and ``transaction()``
are the shared :class:`~repro.obs.sqlite_store.SqliteStore` base's: an
ingest is one transaction, so a rejected artifact leaves no row behind,
and a live file store has ``-wal``/``-shm`` sidecars until it closes.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import subprocess
import time
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import Any

from repro.obs.canonical import canonical_json, to_jsonable
from repro.obs.sqlite_store import (
    SqliteStore,
    StoreDurabilityError,
    StoreOpenError,
    StoreSchemaError,
)
from repro.obs.store.ingest import Extracted, IngestError, extract_all, parse_text

__all__ = [
    "IngestError",
    "RESULTS_SCHEMA",
    "ResultsStore",
    "StoreDurabilityError",
    "StoreOpenError",
    "StoreSchemaError",
    "canonical_json",
    "config_hash",
    "default_commit",
    "ingest_artifacts",
]

RESULTS_SCHEMA = "repro-results/1"

_TABLES = """
CREATE TABLE IF NOT EXISTS runs (
    run_id      INTEGER PRIMARY KEY,
    kind        TEXT NOT NULL,
    source      TEXT NOT NULL,
    schema      TEXT NOT NULL,
    config_hash TEXT NOT NULL,
    seed        INTEGER,
    payload     TEXT NOT NULL,
    -- wall-side metadata: never part of the deterministic payload
    commit_sha  TEXT NOT NULL,
    ingested_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS runs_by_commit ON runs(commit_sha, run_id);
CREATE INDEX IF NOT EXISTS runs_by_kind ON runs(kind, run_id);
CREATE TABLE IF NOT EXISTS metrics (
    run_id INTEGER NOT NULL REFERENCES runs(run_id),
    name   TEXT NOT NULL,
    label  TEXT NOT NULL DEFAULT '',
    value  REAL NOT NULL,
    wall   INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS metrics_by_name ON metrics(name, label, run_id);
CREATE TABLE IF NOT EXISTS cells (
    run_id      INTEGER NOT NULL REFERENCES runs(run_id),
    cell        TEXT NOT NULL,
    fault_order INTEGER NOT NULL,
    completed   INTEGER NOT NULL,
    held        INTEGER NOT NULL,
    unfinished  INTEGER NOT NULL,
    violations  INTEGER NOT NULL,
    makespan    REAL,
    error       TEXT
);
CREATE TABLE IF NOT EXISTS violations (
    run_id      INTEGER NOT NULL REFERENCES runs(run_id),
    cell        TEXT NOT NULL,
    principle   INTEGER NOT NULL,
    subject     TEXT NOT NULL,
    description TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS profile_sections (
    run_id   INTEGER NOT NULL REFERENCES runs(run_id),
    daemon   TEXT NOT NULL,
    phase    TEXT NOT NULL,
    scope    TEXT NOT NULL,
    events   INTEGER NOT NULL,
    sim_time REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS error_hops (
    run_id INTEGER NOT NULL REFERENCES runs(run_id),
    scope  TEXT NOT NULL,
    hops   INTEGER NOT NULL
);
"""

#: child table -> its columns after ``run_id``, in the order the matching
#: :class:`Extracted` field lists them; swept alongside their runs row by gc.
_CHILD_COLUMNS = {
    "metrics": "name, label, value, wall",
    "cells": "cell, fault_order, completed, held, unfinished, violations, makespan, error",
    "violations": "cell, principle, subject, description",
    "profile_sections": "daemon, phase, scope, events, sim_time",
    "error_hops": "scope, hops",
}

#: what SQLite raises for a row the schema or the driver refuses -- the
#: artifact's fault (a null id, an unbindable value), not the database's.
_ROW_ERRORS = (sqlite3.IntegrityError, sqlite3.ProgrammingError)


def config_hash(config: dict) -> str:
    """Stable short hash identifying a run configuration across commits."""
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:12]


def default_commit(cwd: str | Path | None = None) -> str:
    """The current commit's short sha, or ``unknown`` outside a checkout.

    Wall-side metadata only -- the sha labels a trajectory point and
    never enters a deterministic payload.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=cwd,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


class ResultsStore(SqliteStore):
    """Open (or create) the results store at *path* (``:memory:`` for tests)."""

    SCHEMA = RESULTS_SCHEMA
    TABLES = _TABLES
    MISSING = "NO_RESULTS_DB"

    def __init__(self, path: str = "repro-results.db", now: Callable[[], float] = time.time):
        super().__init__(path)
        self.now = now

    # -- ingestion -------------------------------------------------------
    def ingest_obj(self, obj: Any, source: str, commit: str = "unknown") -> int:
        """Ingest one parsed artifact; returns the new run id (the last of
        them for a gridbench document, which is one run per seed -- all of
        them land, or none)."""
        with self.transaction():
            for record in extract_all(obj, source):
                run_id = self._insert(record, source, commit)
        return run_id

    def ingest_text(self, text: str, source: str, commit: str = "unknown") -> int:
        """Ingest one artifact from raw text (JSON document or JSONL trace)."""
        return self.ingest_obj(parse_text(text, source), source, commit)

    def ingest_path(self, path: str | Path, commit: str = "unknown") -> int:
        """Ingest one artifact file; the source name is its basename."""
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise IngestError("UNREADABLE", path.name, f"cannot read file: {exc}") from None
        return self.ingest_text(text, source=path.name, commit=commit)

    def _insert(self, ex: Extracted, source: str, commit: str) -> int:
        """All of one artifact's rows, or none: a row SQLite refuses
        rejects the whole artifact as ``MALFORMED``."""
        try:
            with self.transaction():
                cursor = self._db.execute(
                    "INSERT INTO runs(kind, source, schema, config_hash, seed, payload,"
                    " commit_sha, ingested_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        ex.kind,
                        source,
                        ex.artifact_schema,
                        config_hash(ex.config),
                        ex.seed,
                        canonical_json(ex.payload),
                        commit,
                        self.now(),
                    ),
                )
                run_id = cursor.lastrowid
                for table, columns in _CHILD_COLUMNS.items():
                    marks = ", ".join("?" * (columns.count(",") + 2))
                    self._db.executemany(
                        f"INSERT INTO {table}(run_id, {columns}) VALUES ({marks})",  # noqa: S608
                        [(run_id, *row) for row in getattr(ex, table)],
                    )
                return run_id
        except _ROW_ERRORS as exc:
            raise IngestError(
                "MALFORMED", source, f"{ex.kind} row rejected by the results schema: {exc}"
            ) from None

    # -- queries ---------------------------------------------------------
    def runs(
        self,
        kind: str | None = None,
        commit: str | None = None,
        limit: int | None = None,
    ) -> list[dict]:
        """Run rows (payload digest, not body), newest last by run id."""
        sql = (
            "SELECT run_id, kind, source, schema, config_hash, seed, payload,"
            " commit_sha, ingested_at FROM runs"
        )
        clauses, params = [], []
        if kind is not None:
            clauses.append("kind=?")
            params.append(kind)
        if commit is not None:
            clauses.append("commit_sha=?")
            params.append(commit)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY run_id"
        rows = self._db.execute(sql, params).fetchall()
        if limit is not None:
            rows = rows[-limit:]
        return [
            {
                "run_id": r[0],
                "kind": r[1],
                "source": r[2],
                "schema": r[3],
                "config_hash": r[4],
                "seed": r[5],
                "payload_sha": hashlib.sha256(r[6].encode()).hexdigest()[:12],
                "payload_bytes": len(r[6]),
                "commit": r[7],
                "ingested_at": r[8],
            }
            for r in rows
        ]

    def payload(self, run_id: int) -> Any:
        """The deterministic payload of one run, parsed."""
        row = self._db.execute(
            "SELECT payload FROM runs WHERE run_id=?", (run_id,)
        ).fetchone()
        if row is None:
            raise LookupError(f"no run {run_id} in results store {self.path!r}")
        return json.loads(row[0])

    def latest_run(self, kind: str, commit: str | None = None) -> dict | None:
        """The newest run row of *kind* (optionally at one commit)."""
        rows = self.runs(kind=kind, commit=commit)
        return rows[-1] if rows else None

    def commits(self) -> list[str]:
        """Distinct commits in first-ingestion order -- the trajectory axis."""
        seen: list[str] = []
        for (sha,) in self._db.execute("SELECT commit_sha FROM runs ORDER BY run_id"):
            if sha not in seen:
                seen.append(sha)
        return seen

    def metric_names(self) -> list[tuple[str, int]]:
        """Every metric name with its row count (for ``trend`` discovery)."""
        return list(
            self._db.execute(
                "SELECT name, COUNT(*) FROM metrics GROUP BY name ORDER BY name"
            )
        )

    def trend(self, metric: str, label: str | None = None) -> dict:
        """Per-commit trajectory of one metric: the latest value each
        (commit, label) pair has, commits in first-ingestion order."""
        sql = (
            "SELECT r.commit_sha, m.label, m.value, m.wall, m.run_id FROM metrics m"
            " JOIN runs r ON r.run_id = m.run_id WHERE m.name=?"
        )
        params: list = [metric]
        if label is not None:
            sql += " AND m.label LIKE ?"
            params.append(f"%{label}%")
        sql += " ORDER BY m.run_id"
        commits = self.commits()
        order = {sha: i for i, sha in enumerate(commits)}
        series: dict[str, list] = {}
        wall_flags: dict[str, bool] = {}
        for sha, lbl, value, wall, _run in self._db.execute(sql, params):
            if sha not in order:  # pragma: no cover - defensive
                continue
            column = series.setdefault(lbl, [None] * len(commits))
            column[order[sha]] = value  # later runs overwrite: latest wins
            wall_flags[lbl] = wall_flags.get(lbl, False) or bool(wall)
        return {
            "metric": metric,
            "commits": commits,
            "series": {lbl: series[lbl] for lbl in sorted(series)},
            "wall": {lbl: wall_flags[lbl] for lbl in sorted(wall_flags)},
        }

    def _latest_runs(
        self, commit: str | None = None, kinds: tuple[str, ...] | None = None
    ) -> dict[tuple[str, str], int]:
        """(kind, source) -> its newest run id (optionally at one commit,
        of some kinds), in first-seen order."""
        latest: dict[tuple[str, str], int] = {}
        for run_id, kind, source, sha in self._db.execute(
            "SELECT run_id, kind, source, commit_sha FROM runs ORDER BY run_id"
        ):
            if (commit is None or sha == commit) and (kinds is None or kind in kinds):
                latest[(kind, source)] = run_id
        return latest

    def error_hops(self, commit: str | None = None) -> dict[str, int]:
        """Aggregate error hops by scope over the latest trace of each
        source (optionally at one commit): traces alone own these rows."""
        hops: dict[str, int] = {}
        for run_id in self._latest_runs(commit, kinds=("trace",)).values():
            for scope, n in self._db.execute(
                "SELECT scope, hops FROM error_hops WHERE run_id=?", (run_id,)
            ):
                hops[scope] = hops.get(scope, 0) + n
        return dict(sorted(hops.items()))

    def violation_count(self) -> int:
        """Total principle violations recorded across all stored runs."""
        (count,) = self._db.execute("SELECT COUNT(*) FROM violations").fetchone()
        return int(count)

    def sections(self, commit: str | None = None, top: int = 12) -> list[dict]:
        """Aggregate "where time went" triples over the latest run of each
        source, heaviest simulated time first."""
        totals: dict[tuple[str, str, str], list[float]] = {}
        for run_id in self._latest_runs(commit).values():
            for daemon, phase, scope, events, sim_time in self._db.execute(
                "SELECT daemon, phase, scope, events, sim_time"
                " FROM profile_sections WHERE run_id=?", (run_id,)
            ):
                entry = totals.setdefault((daemon, phase, scope), [0, 0.0])
                entry[0] += events
                entry[1] += sim_time
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1][1], kv[0]))
        return [
            {
                "daemon": daemon, "phase": phase, "scope": scope,
                "events": int(events), "sim_time": sim_time,
            }
            for (daemon, phase, scope), (events, sim_time) in ranked[:top]
        ]

    def folded(self, commit: str | None = None) -> tuple[list[str], list[dict]]:
        """Flamegraph folded stacks, merged over the latest profile-carrying
        run of each source.

        Returns ``(stacks, run_rows)`` -- empty when nothing stores stacks.
        """
        latest = self._latest_runs(commit, kinds=("profile", "harness"))
        stacks: list[str] = []
        rows: list[dict] = []
        for (kind, source), run_id in sorted(latest.items(), key=lambda kv: kv[1]):
            found = self.payload(run_id).get("folded") or []
            if found:
                stacks.extend(found)
                rows.append({"run_id": run_id, "kind": kind, "source": source})
        return stacks, rows

    def matrix(self, commit: str | None = None) -> dict | None:
        """The newest campaign/fuzz run's cell grid (for the console)."""
        candidates = [
            row
            for kind in ("campaign", "fuzz")
            if (row := self.latest_run(kind, commit=commit)) is not None
        ]
        if not candidates:
            return None
        row = max(candidates, key=lambda r: r["run_id"])
        columns = _CHILD_COLUMNS["cells"]
        keys = columns.replace("fault_order", "order").split(", ")
        cells = [
            dict(zip(keys, values))
            for values in self._db.execute(
                f"SELECT {columns} FROM cells WHERE run_id=? ORDER BY rowid",  # noqa: S608
                (row["run_id"],),
            )
        ]
        return {"run": row, "cells": cells}

    def gridbench_fingerprints(self, commit: str) -> dict[str, dict[tuple, tuple[int, str]]]:
        """workload -> {(seed, smoke): (run id, fingerprint)} over the
        gridbench runs at *commit*, a later run of the same seed winning
        (for ``diff``)."""
        out: dict[str, dict[tuple, tuple[int, str]]] = {}
        for row in self.runs(kind="gridbench", commit=commit):
            payload = self.payload(row["run_id"])
            for name, sim_side in payload["workloads"].items():
                out.setdefault(name, {})[(payload["seed"], payload["smoke"])] = (
                    row["run_id"], sim_side["fingerprint"],
                )
        return out

    def run_metrics(self, run_id: int, label: str, wall: bool) -> dict[str, float]:
        """name -> value of one run's rows under *label*: the wall-flagged
        ones, or the exact ones."""
        return dict(
            self._db.execute(
                "SELECT name, value FROM metrics WHERE run_id=? AND label=? AND wall=?",
                (run_id, label, int(wall)),
            )
        )

    # -- retention -------------------------------------------------------
    def gc(self, keep: int, dry_run: bool = False) -> dict:
        """Keep the newest *keep* runs per (kind, config_hash); drop the rest.

        Returns ``{"deleted": [run ids], "kept": N}``.  The payloads are
        the bulky part; the child rows go with them.
        """
        if keep < 1:
            raise ValueError(f"gc keep must be >= 1, got {keep}")
        by_config: dict[tuple[str, str], list[int]] = {}
        for run_id, kind, cfg in self._db.execute(
            "SELECT run_id, kind, config_hash FROM runs ORDER BY run_id"
        ):
            by_config.setdefault((kind, cfg), []).append(run_id)
        doomed = sorted(
            run_id
            for run_ids in by_config.values()
            for run_id in run_ids[:-keep]
        )
        kept = sum(len(v) for v in by_config.values()) - len(doomed)
        if doomed and not dry_run:
            marks = ",".join("?" * len(doomed))
            with self.transaction():
                for table in (*_CHILD_COLUMNS, "runs"):
                    self._db.execute(
                        f"DELETE FROM {table} WHERE run_id IN ({marks})", doomed  # noqa: S608
                    )
        return {"deleted": doomed, "kept": kept}


def ingest_artifacts(db_path: str, artifacts: Iterable[tuple[str, Any]]) -> None:
    """What every producer CLI's ``--results-db`` does: open the store at
    *db_path*, ingest ``(source, artifact)`` pairs at the current commit,
    print one line per run, close.  Each artifact is the object behind a
    file the producer wrote and takes the writer's ``to_jsonable`` pass,
    so the store sees what parsing that file back would yield."""
    with ResultsStore(db_path) as store:
        commit = default_commit()
        for source, obj in artifacts:
            run_id = store.ingest_obj(to_jsonable(obj), source=source, commit=commit)
            print(f"ingested {source} -> run {run_id} ({db_path} @ {commit})")
