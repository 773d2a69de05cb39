"""The repo's own error interface: one finite vocabulary at every process boundary.

P3/P4 applied to the reproduction itself: every error that may leave a
``main()`` or an HTTP route is a :class:`BoundaryError` defined here, and
its class alone decides how each boundary shows it.  A ``main()`` under
:func:`cli` prints one ``error: <message>`` line and exits ``exit_status``
(2: bad input or usage, an unusable store, something asked for that is
not there; 1: work that failed).  The service answers ``http_status`` with
``{"error": {"code": ..., "message": ...}}``.  DESIGN §6's boundary table
lists every class.  Stdlib only and importing nothing from ``repro``, so
every layer can raise these.
"""

from __future__ import annotations

import functools
import sys
from collections.abc import Callable, Iterable, Sequence
from typing import Any

__all__ = [
    "AuthError", "BadRequest", "BoundaryError", "ConfigError", "IngestError", "MethodNotAllowed",
    "NotFound", "PayloadTooLarge", "QueueFull", "StoreDurabilityError", "StoreOpenError",
    "StoreSchemaError", "UnknownExperiment", "WorkerFailure", "WrongTenant", "cli",
]


class BoundaryError(Exception):
    """Base of every typed error a process boundary renders."""

    #: Stable machine-readable code; a raise may narrow it (``code=``),
    #: e.g. ``TOKEN_EXPIRED`` under 401.
    code = "INTERNAL"
    http_status = 500
    exit_status = 2

    def __init__(self, *args: Any, code: str | None = None):
        super().__init__(*args)
        if code is not None:
            self.code = code

    @property
    def message(self) -> str:
        return str(self)

    def to_json(self) -> dict:
        """The HTTP envelope for this error."""
        return {"error": {"code": self.code, "message": self.message}}


def cli(main: Callable[[list[str] | None], int]) -> Callable[[list[str] | None], int]:
    """Run *main* as a process boundary: a :class:`BoundaryError` it raises
    becomes one ``error: <message>`` line on stderr and its ``exit_status``.
    Argparse's own usage errors stay argparse's."""

    @functools.wraps(main)
    def run(argv: list[str] | None = None) -> int:
        try:
            return main(argv)
        except BoundaryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_status

    return run


class BadRequest(BoundaryError, ValueError):
    """The input is malformed: bad JSON, a bad spec, parameter or file."""

    code, http_status = "BAD_REQUEST", 400


class AuthError(BoundaryError):
    """The caller is not authenticated; ``code`` narrows the reason:
    ``UNAUTHENTICATED`` (no credentials), ``TOKEN_INVALID`` (garbled, wrong
    signature or service secret), ``TOKEN_EXPIRED`` (lifetime over)."""

    code, http_status = "UNAUTHENTICATED", 401


class WrongTenant(BoundaryError):
    """Authenticated, but the resource belongs to another tenant."""

    code, http_status = "WRONG_TENANT", 403


class NotFound(BoundaryError):
    """No such route, run, artifact, store, commit or metric."""

    code, http_status = "NOT_FOUND", 404


class MethodNotAllowed(BoundaryError):
    """The route exists, the method does not (the edge serves GET/POST)."""

    code, http_status = "METHOD_NOT_ALLOWED", 405


class PayloadTooLarge(BoundaryError):
    """The request body exceeds the service's byte budget."""

    code, http_status = "PAYLOAD_TOO_LARGE", 413


class QueueFull(BoundaryError):
    """Graceful rejection under load: the admission queue is at capacity --
    the service-scope handler for overload, before any state is created."""

    code, http_status = "QUEUE_FULL", 429


class ConfigError(BadRequest):
    """One field of a campaign's shape is wrong; ``field`` names it."""

    def __init__(self, field: str, problem: str):
        super().__init__(field, problem)
        self.field, self.problem = field, problem

    def __str__(self) -> str:
        return f"field {self.field!r}: {self.problem}"


class UnknownExperiment(BadRequest, LookupError):
    """No experiment is registered under the name; *known* are those that are."""

    def __init__(self, name: object, known: Iterable[str]):
        super().__init__(f"unknown experiment {name!r}; try one of: {', '.join(sorted(known))}")


class IngestError(BadRequest):
    """A source that cannot become a results-store row; ``code`` is
    ``UNREADABLE``, ``NOT_JSON``, ``UNRECOGNIZED`` or ``MALFORMED``."""

    code, exit_status = "MALFORMED", 1

    def __init__(self, code: str, source: str, message: str):
        super().__init__(f"{source}: [{code}] {message}", code=code)
        self.source = source


class StoreOpenError(BoundaryError, RuntimeError):
    """The SQLite store at a path cannot be used: there is none and none can
    be created there, or the file is not a database."""

    code, http_status = "RESULTS_STORE_UNAVAILABLE", 503

    @property
    def message(self) -> str:
        return f"{type(self).__name__}: {self}"


class StoreSchemaError(StoreOpenError):
    """The database on disk speaks a different schema version."""


class StoreDurabilityError(StoreOpenError):
    """The database file cannot run under the store's WAL durability policy."""


class WorkerFailure(BoundaryError, RuntimeError):
    """A worker crashed, hung, or raised: explicit, never silent (P1/P2).
    ``items`` names exactly the work it was responsible for (the seeds, for
    seed replication), never a silently shorter result."""

    code, exit_status = "WORKER_FAILED", 1

    def __init__(self, message: str, items: Sequence[Any] = (), cause: str = ""):
        super().__init__(message)
        self.items = tuple(items)
        self.cause = cause

    @property
    def seeds(self) -> tuple:
        """Alias for ``items`` when the work units are seeds."""
        return self.items

    def __reduce__(self):
        # Exceptions pickle by re-calling __init__ with .args; carry the
        # extra attributes across the process boundary explicitly.
        return (type(self), (self.args[0] if self.args else "", self.items, self.cause))
