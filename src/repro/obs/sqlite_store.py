"""The one SQLite base under the run store and the results store.

- **Durability**: file stores run WAL with ``synchronous=FULL`` -- a
  commit is one fsynced append to ``<db>-wal``, readers in other
  processes never wait for the writer, and a clean :meth:`close`
  checkpoints ``-wal``/``-shm`` away.  Decided from the mode SQLite
  reports (``wal``, or ``memory`` for ``:memory:``): a file that cannot
  enter WAL fails to open with :class:`StoreDurabilityError`; an older
  rollback-journal file converts in place.
- **Schema**: a file whose ``meta`` row names another version than the
  subclass's ``SCHEMA`` fails to open with :class:`StoreSchemaError`.
- **Open**: a path SQLite cannot open or create, or a file that is not a
  database, fails with :class:`StoreOpenError`, never a bare ``sqlite3``
  exception.
- **Writes**: :meth:`SqliteStore.transaction` is the only place a
  commit or rollback happens -- one per unit of work.
"""

from __future__ import annotations

import contextlib
import sqlite3
from collections.abc import Callable, Iterator
from typing import Self

__all__ = ["SqliteStore", "StoreDurabilityError", "StoreOpenError", "StoreSchemaError"]

_META = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


class StoreSchemaError(RuntimeError):
    """The database on disk speaks a different schema version."""


class StoreDurabilityError(RuntimeError):
    """The database file cannot run under the store's WAL durability policy."""


class StoreOpenError(RuntimeError):
    """There is no database at the path and none can be created there."""


class SqliteStore:
    """Open (or create) the database at *path* (``:memory:`` for tests).

    A context manager: leaving the block closes the store.
    """

    #: the schema version this build speaks, e.g. ``repro-service/1``.
    SCHEMA: str
    #: ``CREATE TABLE IF NOT EXISTS`` script for the subclass's tables.
    TABLES: str

    def __init__(self, path: str = ":memory:"):
        self.path = path
        try:
            self._db = sqlite3.connect(path)
        except sqlite3.OperationalError as exc:  # no such directory, a directory, no permission
            raise StoreOpenError(f"store at {path!r} cannot be opened ({exc})") from exc
        #: undo callbacks of the open transaction (None outside one): how
        #: a subclass keeps an in-memory cache equal to the database.
        self._undo: list[Callable[[], None]] | None = None
        try:
            self._open()
        except BaseException:
            self._db.close()
            raise

    def _open(self) -> None:
        try:
            mode = self._db.execute("PRAGMA journal_mode=WAL").fetchone()[0]
        except sqlite3.OperationalError as exc:  # read-only media
            raise StoreDurabilityError(
                f"store at {self.path!r} cannot enter WAL mode ({exc})"
            ) from exc
        except sqlite3.DatabaseError as exc:  # the first statement reads the header
            raise StoreOpenError(f"store at {self.path!r} is not a database ({exc})") from exc
        if mode not in ("wal", "memory"):  # an in-memory database has no journal file
            raise StoreDurabilityError(
                f"store at {self.path!r} cannot enter WAL mode (journal_mode={mode!r})"
            )
        self._db.execute("PRAGMA synchronous=FULL")
        self._db.executescript(_META)
        row = self._db.execute("SELECT value FROM meta WHERE key='schema'").fetchone()
        # Checked before the subclass's tables: another schema's same-named
        # table would otherwise fail their indexes with a bare sqlite3 error.
        if row is not None and row[0] != self.SCHEMA:
            raise StoreSchemaError(
                f"store at {self.path!r} has schema {row[0]!r}, "
                f"this build speaks {self.SCHEMA!r}"
            )
        self._db.executescript(self.TABLES)
        if row is None:
            with self.transaction():
                self._db.execute(
                    "INSERT INTO meta(key, value) VALUES ('schema', ?)", (self.SCHEMA,)
                )

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> Self:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @contextlib.contextmanager
    def transaction(self) -> Iterator[None]:
        """One atomic unit of work; re-entrant, the outermost block commits.

        Any exception rolls the database back and runs the block's undo
        callbacks newest first, so nothing half-written survives -- on
        disk or in a subclass's cache.  Never ``await`` inside one:
        other tasks share the connection.
        """
        if self._undo is not None:
            yield
            return
        self._undo = undo = []
        try:
            yield
            self._db.commit()
        except BaseException:
            self._undo = None
            for undo_write in reversed(undo):
                undo_write()
            self._db.rollback()
            raise
        finally:
            self._undo = None
