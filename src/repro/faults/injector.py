"""The fault injector: schedules, ground truth, and the audit bridge.

The injector arms faults at scheduled simulated times (optionally
disarming them later), and afterwards answers the question the principle
auditor needs answered: *for this job's decisive execution, what was
actually wrong?*  A job whose delivered result differs from its expected
clean-run result, while a fault overlapped its decisive attempt, was a
victim of that fault -- and if the system nonetheless presented the
outcome as a program result, that is a Principle-1 violation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.condor.job import Job, JobState
from repro.core.principles import JobGroundTruth
from repro.core.scope import ErrorScope
from repro.faults.faults import Fault

__all__ = ["FaultInjector", "Injection"]


@dataclass
class Injection:
    """One scheduled (fault, interval) pair.

    The injection window is the **closed** interval ``[at, until]``
    (``[at, inf)`` when open-ended), and an attempt occupies the closed
    interval ``[start, end]``; the injection is active during the attempt
    iff the two intervals intersect.  Closed-closed is the deliberate
    choice for ground truth: at the boundary instant the arm/disarm
    callback and the attempt event carry the same timestamp, so the
    attempt *may* have observed the armed fault -- and blame must err
    toward the fault, never toward the program.  Consequences, pinned by
    ``tests/faults/test_injection_properties.py``:

    - a zero-length attempt (``start == end``) inside the window counts;
    - an instantaneous fault (``at == until``) counts for any attempt
      whose interval contains ``at``, including its endpoints;
    - an attempt ending exactly at ``at``, or starting exactly at
      ``until``, counts (previously both fell through the half-open
      ``start < hi and end > lo`` test).
    """

    fault: Fault
    at: float = 0.0
    until: float | None = None

    def active_during(self, site: str | None, job_id: str, start: float, end: float) -> bool:
        """Did this injection overlap an attempt at *site* for *job_id*?"""
        fault = self.fault
        if fault.site is not None and fault.site != site:
            return False
        if fault.job_id is not None and fault.job_id != job_id:
            return False
        return end >= self.at and (self.until is None or start <= self.until)


class FaultInjector:
    """Arms faults on a pool according to a schedule."""

    def __init__(self, pool):
        self.pool = pool
        self.injections: list[Injection] = []
        self.armed: list[tuple[float, Fault]] = []

    # -- scheduling ----------------------------------------------------------
    def schedule(self, fault: Fault, at: float = 0.0, until: float | None = None) -> Injection:
        """Arm *fault* at time *at*; disarm at *until* if given."""
        injection = Injection(fault, at, until)
        self.injections.append(injection)
        sim = self.pool.sim

        def note(event: str) -> None:
            bus = getattr(self.pool, "bus", None)
            if bus is not None and bus.active:
                bus.emit(
                    sim.now, "fault", event,
                    fault=type(fault).__name__, scope=fault.scope.name,
                    site=fault.site or "", job=fault.job_id or "",
                )

        def arm() -> None:
            fault.arm(self.pool)
            self.armed.append((sim.now, fault))
            note("arm")

        def disarm() -> None:
            fault.disarm(self.pool)
            note("disarm")

        if at <= sim.now:
            arm()
        else:
            sim.call_at(at, arm)
        if until is not None:
            sim.call_at(until, disarm)
        return injection

    # -- ground truth ----------------------------------------------------------
    def truth_for_attempt(
        self,
        site: str,
        job_id: str,
        start: float,
        end: float,
        include_implicit: bool = True,
    ) -> ErrorScope | None:
        """The widest ground-truth scope of any fault overlapping the attempt.

        ``include_implicit=False`` restricts to faults that produce
        *explicit* errors -- the relevant set for the P1 audit, since a
        system cannot mishandle an error it was never shown.
        """
        scopes = [
            inj.fault.scope
            for inj in self.injections
            if inj.active_during(site, job_id, start, end)
            and (include_implicit or not inj.fault.implicit)
        ]
        return max(scopes) if scopes else None

    def stamp_attempts(self, jobs: list[Job]) -> None:
        """Record ground truth onto every attempt (for reports and audits)."""
        for job in jobs:
            for attempt in job.attempts:
                end = attempt.ended if attempt.ended >= 0 else self.pool.sim.now
                attempt.truth_scope = self.truth_for_attempt(
                    attempt.site, job.job_id, attempt.started, end
                )

    # -- the P1 audit bridge ------------------------------------------------------
    def truth_for_job(self, job: Job) -> JobGroundTruth:
        """The ground-truth record for one job, as it stands right now.

        A completed job whose delivered result matches its expected
        clean-run result is clean (truth None) even if a fault was nearby:
        the fault did not become an error.  A mismatch while a fault
        overlapped the decisive attempt pins the truth to that fault.

        Callable mid-run: the live auditor invokes it at each terminal
        job event, when the job's final state and decisive attempt are
        already recorded, so the verdict equals the post-hoc one.
        """
        claimed = (
            job.state is JobState.COMPLETED
            and job.final_result is not None
            and job.final_result.is_program_result
        )
        truth: ErrorScope | None = None
        if job.attempts:
            decisive = job.attempts[-1]
            end = decisive.ended if decisive.ended >= 0 else self.pool.sim.now
            explicit_truth = self.truth_for_attempt(
                decisive.site, job.job_id, decisive.started, end,
                include_implicit=False,
            )
            if claimed and job.expected_result is not None:
                if not job.final_result.same_outcome(job.expected_result):
                    truth = explicit_truth
            else:
                truth = explicit_truth
        return JobGroundTruth(
            job_id=job.job_id,
            truth_scope=truth,
            claimed_program_result=claimed,
            detail=f"state={job.state.value}",
        )

    def audit_outcomes(self, jobs: list[Job]) -> list[JobGroundTruth]:
        """Build :class:`JobGroundTruth` records for the principle auditor."""
        self.stamp_attempts(jobs)
        return [self.truth_for_job(job) for job in jobs]
