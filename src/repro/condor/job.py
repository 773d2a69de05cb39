"""Jobs, universes, and the job state machine (paper §2.1).

A job carries everything the schedd keeps in persistent storage: the
submit description, the program image and input files, the universe, and
the history of execution attempts.  The attempt history is what the
paper's §5 "chronic failure avoidance" extension consumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.condor.classads import ClassAd
from repro.core.result import ResultFile
from repro.core.scope import ErrorScope

__all__ = [
    "ExecutionAttempt",
    "Job",
    "JobState",
    "ProgramImage",
    "Universe",
]


class Universe(enum.Enum):
    """Execution environments (§2.1): each packages environmental features."""

    STANDARD = "standard"
    VANILLA = "vanilla"
    JAVA = "java"
    PVM = "pvm"


class JobState(enum.Enum):
    """The schedd's view of a job."""

    IDLE = "idle"
    MATCHED = "matched"
    RUNNING = "running"
    COMPLETED = "completed"
    HELD = "held"  # unexecutable: returned to the user (job scope)
    REMOVED = "removed"


@dataclass
class ProgramImage:
    """The executable the shadow ships to the starter.

    *program* is an opaque behaviour model interpreted by the execution
    universe (for JAVA, a :class:`repro.jvm.program.JavaProgram`).
    *corrupt* marks a damaged image: the JVM will fail to load it with a
    ``ClassFormatError`` -- job scope (Figure 4, last row).
    """

    name: str
    content: bytes = b"\xca\xfe\xba\xbe"  # a classfile, naturally
    program: Any = None
    corrupt: bool = False

    def serialized(self) -> bytes:
        if self.corrupt:
            return b"\x00\x00" + self.content[2:]
        return self.content


@dataclass
class ExecutionAttempt:
    """One try at running the job somewhere."""

    site: str
    started: float
    ended: float = -1.0
    result: ResultFile | None = None
    error_scope: ErrorScope | None = None
    error_name: str = ""
    #: Ground truth recorded by the fault injector (None = clean run);
    #: never consulted by the daemons -- only by the principle auditor.
    truth_scope: ErrorScope | None = None

    @property
    def succeeded(self) -> bool:
        return self.result is not None and self.result.is_program_result


class Job:
    """One submitted job and its full lifecycle record."""

    def __init__(
        self,
        job_id: str,
        owner: str,
        universe: Universe = Universe.JAVA,
        image: ProgramImage | None = None,
        input_files: dict[str, str] | None = None,
        requirements: str = "TRUE",
        rank: str = "0",
        image_size: int = 16 * 2**20,
        heap_request: int = 32 * 2**20,
    ):
        self.job_id = job_id
        self.owner = owner
        self.universe = universe
        self.image = image if image is not None else ProgramImage(name=f"{job_id}.class")
        #: logical name -> path on the submit machine's home file system
        self.input_files = dict(input_files or {})
        self.requirements = requirements
        self.rank = rank
        self.image_size = image_size
        self.heap_request = heap_request
        self.state = JobState.IDLE
        self.submitted_at = 0.0
        self.attempts: list[ExecutionAttempt] = []
        self.final_result: ResultFile | None = None
        self.hold_reason: str = ""
        #: What a clean run of this program would deliver (set by the
        #: harness, which knows the program model).  Consulted only by the
        #: auditor's ground-truth comparison, never by the daemons.
        self.expected_result: ResultFile | None = None
        #: Standard Universe: last committed checkpoint (steps completed);
        #: the shadow updates this from CheckpointNotice messages.
        self.checkpoint: int = 0
        #: Total steps executed across all attempts (re-executed steps
        #: count again) -- the checkpointing ablation's waste metric.
        self.steps_executed: int = 0

    @property
    def is_terminal(self) -> bool:
        return self.state in (JobState.COMPLETED, JobState.HELD, JobState.REMOVED)

    @property
    def attempt_count(self) -> int:
        return len(self.attempts)

    # -- matchmaking ----------------------------------------------------------
    def ad_fields(self) -> tuple:
        """Every input of :meth:`to_classad`, as one hashable tuple.

        The ad is built from this tuple and nothing else, so two calls
        that return equal tuples build equal ads -- which is what lets
        the schedd keep the built ad and compare tuples instead.
        """
        return (
            self.job_id,
            self.owner,
            self.universe.value,
            self.image_size // 2**20,  # MB, as Condor does
            self.heap_request // 2**20,
            self.attempt_count,
            self.requirements,
            self.rank,
        )

    def to_classad(self) -> ClassAd:
        """The job ad the schedd forwards to the matchmaker."""
        (
            job_id, owner, universe, imagesize, heaprequest, attempts,
            requirements, rank,
        ) = self.ad_fields()
        ad = ClassAd(
            {
                "jobid": job_id,
                "owner": owner,
                "universe": universe,
                "imagesize": imagesize,
                "heaprequest": heaprequest,
                "attempts": attempts,
            }
        )
        ad.set_expr("requirements", requirements)
        ad.set_expr("rank", rank)
        return ad

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Job {self.job_id} {self.universe.value} {self.state.value}>"
