"""Simulated machines.

A machine bundles the physical resources whose exhaustion or
misconfiguration produce the paper's error catalogue: memory (Figure 4's
``OutOfMemoryError``), a scratch disk for the starter's execution
directory, a CPU speed factor (so heterogeneous pools make interesting
schedules), and the owner's configuration -- including the Java
installation description that the startd may or may not self-test (§5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.engine import Simulator
from repro.sim.filesystem import LocalFileSystem
from repro.sim.process import ProcessTable

__all__ = ["JavaInstallation", "Machine", "MemoryError_", "OwnerPolicy"]

#: Bytes of scratch space on every machine.
SCRATCH_CAPACITY = 10**9


class MemoryError_(Exception):
    """Raised when an allocation exceeds the machine's physical memory."""

    def __init__(self, requested: int, available: int):
        super().__init__(f"requested {requested} bytes, {available} available")
        self.requested = requested
        self.available = available


@dataclass
class JavaInstallation:
    """The machine owner's description of the local JVM.

    ``classpath_ok``/``binary_ok`` model the §2.3 misconfiguration: "the
    machine owner might give an incorrect path to the standard libraries".
    The description is an *assertion by the owner*; whether it is true is
    only discovered by running (or probing) the JVM.
    """

    java_binary: str = "/usr/bin/java"
    classpath: str = "/usr/lib/java/classes"
    version: str = "1.3.1"
    binary_ok: bool = True
    classpath_ok: bool = True
    heap_limit: int = 64 * 2**20


@dataclass
class OwnerPolicy:
    """When the owner lets foreign jobs run, and what they advertise."""

    start_expr: str = "TRUE"
    rank_expr: str = "0"
    advertised_attrs: dict = field(default_factory=dict)


class Machine:
    """A pool member: resources + process table + owner configuration."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        memory: int = 256 * 2**20,
        cpu_speed: float = 1.0,
        java: JavaInstallation | None = None,
        policy: OwnerPolicy | None = None,
        slots: int = 1,
    ):
        if slots < 1:
            raise ValueError(f"a machine needs at least one slot, got {slots}")
        self.sim = sim
        self.name = name
        #: Number of independently-claimable execution slots (an SMP
        #: machine runs several visiting jobs at once; memory is shared).
        self.slots = slots
        self.memory_total = memory
        self.memory_used = 0
        self.cpu_speed = cpu_speed
        self.scratch = LocalFileSystem(name=f"{name}:scratch", capacity=SCRATCH_CAPACITY, sim=sim)
        self.scratch.mkdir("/scratch")
        self.processes = ProcessTable(sim, machine_name=name)
        self.java = java if java is not None else JavaInstallation()
        self.policy = policy if policy is not None else OwnerPolicy()
        self.online = True

    # -- memory ----------------------------------------------------------
    @property
    def memory_free(self) -> int:
        return self.memory_total - self.memory_used

    def alloc(self, nbytes: int) -> None:
        """Claim *nbytes* of physical memory or raise :class:`MemoryError_`."""
        if nbytes < 0:
            raise ValueError(f"negative allocation {nbytes}")
        if self.memory_used + nbytes > self.memory_total:
            raise MemoryError_(nbytes, self.memory_free)
        self.memory_used += nbytes

    def free(self, nbytes: int) -> None:
        """Return *nbytes* of physical memory."""
        self.memory_used = max(0, self.memory_used - nbytes)

    # -- CPU ----------------------------------------------------------------
    def cpu_time(self, work: float) -> float:
        """Wall time this machine needs for *work* normalized CPU-seconds."""
        return work / self.cpu_speed

    # -- availability -----------------------------------------------------
    def crash(self) -> None:
        """Power-off: kill everything; the machine drops off the network."""
        self.online = False
        self.processes.kill_all()

    def boot(self) -> None:
        """Bring a crashed machine back (with empty memory)."""
        self.online = True
        self.memory_used = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Machine {self.name} mem={self.memory_used}/{self.memory_total} "
            f"speed={self.cpu_speed} online={self.online}>"
        )
