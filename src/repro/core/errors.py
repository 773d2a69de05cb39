"""Error objects: the implicit / explicit / escaping taxonomy (paper §3.1).

- An **implicit** error is "a result that a routine presents as valid, but
  is otherwise determined to be false."  By nature it travels as ordinary
  data; we represent one *after detection* (or as ground truth for the
  auditor) with ``kind=IMPLICIT``.
- An **explicit** error is "a result that describes an inability to carry
  out the requested action" -- a value conforming to the interface.
  Explicit errors here are :class:`GridError` *values*, passed and
  returned like any result.
- An **escaping** error is "a result accompanied by a change in control
  flow."  We implement it as the Python exception :class:`EscapingError`
  wrapping a :class:`GridError`, because a Python exception *is* a change
  of control flow -- the theory maps onto the mechanism exactly.

Every :class:`GridError` records provenance: where it was discovered, the
chain of causes, and the scope assigned to it.  The auditor compares this
record against ground truth from the fault injector.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace

from repro.core.scope import ErrorScope

__all__ = [
    "ErrorKind",
    "EscapingError",
    "GridError",
    "escaping",
    "explicit",
    "format_error",
    "implicit",
]

_ids = itertools.count(1)


def format_error(name: str, scope: str, kind: str, detail: str = "") -> str:
    """The canonical one-line rendering of an error.

    Shared by :meth:`GridError.__str__` and the auditor's live feed (which
    reconstructs the same text from telemetry attributes), so live and
    post-hoc violation reports are textually identical.
    """
    extra = f": {detail}" if detail else ""
    return f"{name}[{scope}/{kind}]{extra}"


class ErrorKind(enum.Enum):
    """How an error is communicated (paper §3.1)."""

    IMPLICIT = "implicit"
    EXPLICIT = "explicit"
    ESCAPING = "escaping"


@dataclass(frozen=True)
class GridError:
    """One error, with scope, kind and provenance.

    Instances are immutable; transformations (rescoping, conversion to
    escaping form) produce new objects linked through ``cause`` so the
    full history of an error as it crosses layers is preserved.
    """

    name: str
    scope: ErrorScope
    kind: ErrorKind
    detail: str = ""
    origin: str = ""
    time: float = 0.0
    cause: "GridError | None" = None
    #: Stable identity for tracing; preserved across transformations.
    error_id: int = field(default_factory=lambda: next(_ids))

    # -- transformations -------------------------------------------------
    def rescoped(self, scope: ErrorScope, by: str = "") -> "GridError":
        """A copy with a (usually wider) scope, caused by this error.

        Models §3.3: "an error's scope may be re-considered at many
        layers.  It may gain significance, or expand its scope, as it
        travels up through layers of software."
        """
        return replace(self, scope=scope, origin=by or self.origin, cause=self)

    def as_escaping(self, by: str = "") -> "GridError":
        """A copy marked ESCAPING, caused by this error (Principle 2)."""
        if self.kind is ErrorKind.ESCAPING:
            return self
        return replace(self, kind=ErrorKind.ESCAPING, origin=by or self.origin, cause=self)

    def as_explicit(self, by: str = "") -> "GridError":
        """A copy marked EXPLICIT -- an escaping error caught and re-presented
        "as an explicit error at a higher level of abstraction" (§3.2)."""
        if self.kind is ErrorKind.EXPLICIT:
            return self
        return replace(self, kind=ErrorKind.EXPLICIT, origin=by or self.origin, cause=self)

    def renamed(self, name: str, by: str = "") -> "GridError":
        """A copy translated to another vocabulary (e.g. errno -> Java)."""
        return replace(self, name=name, origin=by or self.origin, cause=self)

    # -- inspection -----------------------------------------------------
    def root_cause(self) -> "GridError":
        """Follow the cause chain to the originally discovered error."""
        err = self
        while err.cause is not None:
            err = err.cause
        return err

    def chain(self) -> list["GridError"]:
        """The full provenance chain, this error first."""
        out: list[GridError] = []
        err: GridError | None = self
        while err is not None:
            out.append(err)
            err = err.cause
        return out

    def __str__(self) -> str:
        return format_error(self.name, str(self.scope), self.kind.value, self.detail)


class EscapingError(Exception):
    """The control-flow vehicle for an escaping error.

    "An escaping error is necessary when a routine is unable to perform
    its action and is also unable to represent the error in the range of
    its results." (§3.1)
    """

    def __init__(self, error: GridError):
        super().__init__(str(error))
        if error.kind is not ErrorKind.ESCAPING:
            error = error.as_escaping()
        self.error = error

    @property
    def scope(self) -> ErrorScope:
        return self.error.scope


# -- convenience constructors ---------------------------------------------

def explicit(
    name: str,
    scope: ErrorScope,
    detail: str = "",
    origin: str = "",
    time: float = 0.0,
    cause: GridError | None = None,
) -> GridError:
    """Build an explicit :class:`GridError` value."""
    return GridError(name, scope, ErrorKind.EXPLICIT, detail, origin, time, cause)


def implicit(
    name: str,
    scope: ErrorScope,
    detail: str = "",
    origin: str = "",
    time: float = 0.0,
    cause: GridError | None = None,
) -> GridError:
    """Build an implicit :class:`GridError` (ground truth / post-detection)."""
    return GridError(name, scope, ErrorKind.IMPLICIT, detail, origin, time, cause)


def escaping(
    name: str,
    scope: ErrorScope,
    detail: str = "",
    origin: str = "",
    time: float = 0.0,
    cause: GridError | None = None,
) -> EscapingError:
    """Build an :class:`EscapingError` ready to raise."""
    return EscapingError(
        GridError(name, scope, ErrorKind.ESCAPING, detail, origin, time, cause)
    )
