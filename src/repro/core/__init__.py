"""The paper's contribution: a theory of error propagation.

- :mod:`repro.core.scope` -- the *error scope* abstraction: the portion of
  a system an error invalidates, ordered from FILE to POOL, each with a
  managing program.
- :mod:`repro.core.errors` -- the implicit / explicit / escaping taxonomy
  as concrete objects with provenance.
- :mod:`repro.core.interfaces` -- concise, finite error interfaces
  (Principle 4) with automatic explicit-to-escaping conversion for
  out-of-contract errors (Principle 2).
- :mod:`repro.core.propagation` -- scope managers and the propagation
  engine that routes each error to the manager of its scope (Principle 3).
- :mod:`repro.core.principles` -- the one checker of Principles 1-4,
  fed a run's artifacts after it ends or its telemetry as it happens.
- :mod:`repro.core.classify` -- the wrapper's classification table from
  (simulated) Java throwables and substrate error codes to scopes.
- :mod:`repro.core.result` -- the wrapper's result file: the indirect
  channel that carries a program result or an error scope to the starter.
"""

from repro.core.errors import (
    ErrorKind,
    EscapingError,
    GridError,
    escaping,
    explicit,
    implicit,
)
from repro.core.interfaces import ErrorInterface, InterfaceViolation, Operation
from repro.core.classify import ExceptionClassifier, DEFAULT_CLASSIFIER
from repro.core.principles import PrincipleAuditor, PrincipleViolationError, Violation
from repro.core.propagation import (
    Action,
    ManagementChain,
    PropagationTrace,
    ScopeManager,
    TraceEvent,
)
from repro.core.result import ResultFile, ResultStatus
from repro.core.scope import ErrorScope, JAVA_UNIVERSE_CHAIN

__all__ = [
    "Action",
    "DEFAULT_CLASSIFIER",
    "ErrorInterface",
    "ErrorKind",
    "ErrorScope",
    "EscapingError",
    "ExceptionClassifier",
    "GridError",
    "InterfaceViolation",
    "JAVA_UNIVERSE_CHAIN",
    "ManagementChain",
    "Operation",
    "PrincipleAuditor",
    "PrincipleViolationError",
    "PropagationTrace",
    "ResultFile",
    "ResultStatus",
    "ScopeManager",
    "TraceEvent",
    "Violation",
    "escaping",
    "explicit",
    "implicit",
]
