"""The repo's own error interface: one finite vocabulary at every process boundary.

P3/P4 applied to the reproduction itself: every error that may leave a
``main()`` or an HTTP route is a :class:`BoundaryError` defined here, and
its class alone decides how each boundary shows it.  A ``main()`` under
:func:`cli` prints one ``error: <message>`` line and exits ``exit_status``
(2: bad input or usage, an unusable store, something asked for that is
not there; 1: work that failed).  The service answers ``http_status`` with
``{"error": {"code": ..., "message": ...}}``.  DESIGN §6's boundary table
lists every class; :func:`read_fields` reads every stored or submitted
spec.  Stdlib only and importing nothing from ``repro``, so every layer
can raise these.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from collections.abc import Callable, Iterable, Sequence
from typing import Any, ClassVar

__all__ = [
    "BOOL", "FLOAT", "INT", "STR", "AuthError", "BadRequest", "BoundaryError", "ConfigError",
    "IngestError", "MethodNotAllowed", "NotFound", "PayloadTooLarge", "QueueFull",
    "Spec", "StoreDurabilityError", "StoreOpenError", "StoreSchemaError", "UnknownExperiment",
    "WorkerFailure", "WrongTenant", "cli", "list_of", "optional", "positive_int", "read_fields",
    "seed_int",
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


def positive_int(text: str) -> int:
    """Argparse type for every count a command line takes (``--jobs``,
    ``--workers``, ``--limit``, ``--ttl``, ...): an integer >= 1.  Zero,
    a negative or a non-integer is a usage error at parse time, never a
    count that silently means something else later."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid count {text!r}: must be an integer >= 1"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"invalid count {value}: must be >= 1")
    return value


#: The integers a SQLite ``INTEGER`` holds, so the seeds a results store keys runs by.
SQLITE_INTS = range(-2**63, 2**63)


def seed_int(text: str) -> int:
    """Argparse type for every ``--seed``: an integer in :data:`SQLITE_INTS`
    (negative seeds derive their own streams), so ``--results-db`` can store it."""
    try:
        if int(text) in SQLITE_INTS:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid seed {text!r}: must be an integer "
                                     "from -2**63 to 2**63 - 1")


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
    """One field of a stored or submitted spec is wrong; ``field`` names it."""

    def __init__(self, field: str, problem: str):
        super().__init__(field, problem)
        self.field, self.problem = field, problem

    def __str__(self) -> str:
        if self.problem == "missing":
            return f"missing field {self.field!r}"
        return f"field {self.field!r}: {self.problem}"


class UnknownExperiment(ConfigError, LookupError):
    """No experiment is registered under the name; *known* are those that are."""

    def __init__(self, name: object, known: Iterable[str]):
        super().__init__("experiment",
                         f"unknown experiment {name!r}; try one of: {', '.join(sorted(known))}")

    def __str__(self) -> str:
        return self.problem


def read_fields(data: Any, readers: dict[str, Callable], required: Iterable[str] = ()) -> dict:
    """*data*, a JSON object, each value read through ``readers[key]``: a key
    with no reader, a value its reader rejects or a *required* key left out
    is a :class:`ConfigError` naming that field (a nested codec's names its own)."""
    values = {}
    for key, value in _OBJECT(data).items():
        if key not in readers:
            raise ConfigError(key, f"unknown; fields: {', '.join(readers)}")
        try:
            values[key] = readers[key](value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(key, str(exc)) from None
    for key in required:
        if key not in values:
            raise ConfigError(key, "missing")
    return values


def _exact(expected: str, *types: type, cast: Callable = lambda value: value) -> Callable:
    """A reader of exactly *types*: ``true`` is no integer and ``1`` no bool."""

    def read(value):
        if type(value) not in types:
            raise BadRequest(f"expected {expected}, got {value!r:.40}")
        return cast(value)

    return read


#: The readers of JSON values; ``FLOAT`` widens an integer to a float.
INT, FLOAT = _exact("an integer", int), _exact("a number", int, float, cast=float)
BOOL, STR = _exact("true or false", bool), _exact("a string", str)
_OBJECT, _LIST = _exact("an object", dict), _exact("a list", list, tuple)


def optional(read: Callable) -> Callable:
    """*read*, or ``null`` as None."""
    return lambda value: None if value is None else read(value)


def list_of(read: Callable) -> Callable:
    """A JSON list, each item read through *read*, as a tuple."""
    return lambda value: tuple(map(read, _LIST(value)))


class Spec:
    """Base of a frozen-dataclass spec whose dict form is its fields:
    ``READERS`` maps each to its reader, and one without a default is required."""

    READERS: ClassVar[dict[str, Callable]]

    @classmethod
    def from_dict(cls, data: Any):
        required = [field.name for field in dataclasses.fields(cls)
                    if field.default is field.default_factory is dataclasses.MISSING]
        return cls(**read_fields(data, cls.READERS, required))

    def as_dict(self) -> dict:
        return {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}


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

    def __reduce__(self):
        # Exceptions pickle by re-calling __init__ with .args; carry the
        # extra attributes across the process boundary explicitly.
        return (type(self), (self.args[0] if self.args else "", self.items, self.cause))
