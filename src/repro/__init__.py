"""repro -- reproduction of *Error Scope on a Computational Grid* (HPDC 2002).

The package reproduces Thain & Livny's theory of error propagation and its
application to the Condor Java Universe:

- :mod:`repro.core` -- the paper's contribution: error scopes, the
  implicit/explicit/escaping taxonomy, interface contracts, the
  propagation engine, and the principle auditor (post hoc over a run's
  artifacts, or live on its telemetry).
- :mod:`repro.sim` -- deterministic discrete-event substrate (engine,
  network, file systems, machines, processes).
- :mod:`repro.condor` -- the Condor kernel (ClassAds, schedd, startd,
  matchmaker, shadow, starter).
- :mod:`repro.jvm` -- a simulated Java Virtual Machine and the Condor
  Java wrapper.
- :mod:`repro.chirp` / :mod:`repro.remoteio` -- the Java Universe I/O
  path (proxy protocol and the shadow's RPC file server).
- :mod:`repro.faults` -- fault catalogue and injector.
- :mod:`repro.harness` -- workloads, metrics and the per-figure
  experiment runners.
- :mod:`repro.obs` -- deterministic observability: the telemetry bus and
  the span tree every error's and job's journey is read from.
- :mod:`repro.campaign` -- fault campaigns and the coverage-guided fuzzer.
"""

__version__ = "1.0.0"

from repro.core import (
    ErrorInterface,
    ErrorKind,
    ErrorScope,
    EscapingError,
    GridError,
    ManagementChain,
    PrincipleAuditor,
    ResultFile,
    ScopeManager,
)
from repro.condor import Job, JobState, Pool, PoolConfig, ProgramImage, Universe
from repro.jvm.program import JavaProgram, Step

__all__ = [
    "ErrorInterface",
    "ErrorKind",
    "ErrorScope",
    "EscapingError",
    "GridError",
    "JavaProgram",
    "Job",
    "JobState",
    "ManagementChain",
    "Pool",
    "PoolConfig",
    "PrincipleAuditor",
    "ProgramImage",
    "ResultFile",
    "ScopeManager",
    "Step",
    "Universe",
]
