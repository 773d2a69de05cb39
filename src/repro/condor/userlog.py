"""The per-job user event log.

This is the user's window onto the system -- and therefore where the
paper's headline metric lives: every environmental error a user must read
here is a "postmortem analysis" (§2.3) the improved system should have
absorbed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["UserLog", "UserLogEvent", "UserLogEventType"]


class UserLogEventType(enum.Enum):
    SUBMIT = "submit"
    EXECUTE = "execute"
    EVICTED = "evicted"
    SITE_FAILED = "site_failed"  # environmental error logged, job re-queued
    TERMINATED = "terminated"  # program result delivered
    HELD = "held"  # job-scope error: unexecutable
    ABORTED = "aborted"


@dataclass(frozen=True)
class UserLogEvent:
    time: float
    job_id: str
    type: UserLogEventType
    detail: str = ""
    #: Structured classification: True when this event delivers an error
    #: the user must read (a hold, or a termination that is not a program
    #: result).  Set by the logger; the rendered format does not change.
    error: bool = False

    def __str__(self) -> str:
        detail = f" -- {self.detail}" if self.detail else ""
        return f"{self.time:10.3f}  {self.job_id:<10} {self.type.value}{detail}"


class UserLog:
    """Append-only event log, one per schedd."""

    def __init__(self) -> None:
        self.events: list[UserLogEvent] = []

    def log(
        self,
        time: float,
        job_id: str,
        type: UserLogEventType,
        detail: str = "",
        error: bool = False,
    ) -> None:
        self.events.append(UserLogEvent(time, job_id, type, detail, error))

    def render(self) -> str:
        return "\n".join(str(e) for e in self.events)

    def __len__(self) -> int:
        return len(self.events)
