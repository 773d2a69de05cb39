"""Discrete-event simulation substrate.

This subpackage provides the deterministic simulation kernel on which the
Condor-kernel reproduction runs:

- :mod:`repro.sim.engine` -- event queue, simulated clock, and a
  generator-coroutine process model (a from-scratch SimPy-like kernel).
- :mod:`repro.sim.rng` -- named, seeded random streams so that every
  experiment is reproducible from a single seed.
- :mod:`repro.sim.process` -- an OS-process model (fork/wait, exit codes,
  signals) used by the simulated daemons.
- :mod:`repro.sim.machine` -- machines with CPU, memory, scratch disk and
  an owner policy.
- :mod:`repro.sim.network` -- point-to-point messaging with latency,
  partitions, refused connections and breakable connections.
- :mod:`repro.sim.filesystem` -- local and NFS-style file systems with
  hard/soft mount semantics, quotas and corruption.
"""

from repro.sim.engine import (
    AnyOf,
    Event,
    Interrupted,
    SimProcess,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.rng import RngRegistry

__all__ = [
    "AnyOf",
    "Event",
    "Interrupted",
    "RngRegistry",
    "SimProcess",
    "SimulationError",
    "Simulator",
    "Timeout",
]
