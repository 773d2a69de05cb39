"""The live principle sanitizer: P1-P4 asserted on the event stream.

The :class:`~repro.core.principles.PrincipleAuditor` judges a run from
its artifacts *after* it ends.  The sanitizer reaches the same verdicts
*while the run executes*, as a plain telemetry-bus subscriber to the
three topics it reads (so a cell that nobody else observes never even
constructs its PROCESS, DAEMON, IO or FAULT events):

- **P3** from ERROR-topic ``mishandled`` / ``unmanaged`` hops, the
  instant a manager swallows an error outside its scope;
- **P2/P4** from INTERFACE-topic ``crossing`` events, the instant an
  undocumented error slips through a generic operation;
- **P1** from JOB-topic terminal events (``result`` / ``hold``), by
  asking the fault injector for the job's ground truth at the moment the
  outcome is presented to the user.

Verdict texts are built from the same check functions and the same
error formatting the post-hoc auditor uses
(:func:`repro.core.principles.check_outcome` /
:func:`~repro.core.principles.check_crossing` /
:func:`~repro.core.principles.check_hop`,
:func:`repro.core.errors.format_error`), so for a given run the live
violation set equals the post-hoc one *event for event* -- the property
the campaign engine cross-checks on every cell.

With ``fail_fast=True`` the first violation raises
:class:`PrincipleViolationError` at the guilty instant -- the debugging
mode.  Emission sites inside simulated daemon *processes* absorb an
escaping exception as that process's failure (the kernel's contract), so
the sanitizer also keeps the exception in :attr:`PrincipleSanitizer.failure`
for the driver to re-raise once the run stops; the campaign engine does
exactly that.
"""

from __future__ import annotations

from repro.core.errors import format_error
from repro.core.principles import Violation, check_crossing, check_hop, check_outcome
from repro.core.scope import ErrorScope
from repro.obs.bus import TelemetryBus, TelemetryEvent, Topic

__all__ = ["PrincipleSanitizer", "PrincipleViolationError"]

#: The topics :meth:`PrincipleSanitizer.on_event` reads.
_TOPICS = (Topic.ERROR, Topic.INTERFACE, Topic.JOB)

#: JOB-topic events after which a job's outcome is fixed and auditable.
_TERMINAL_JOB_EVENTS = frozenset({"result", "hold"})


class PrincipleViolationError(AssertionError):
    """Raised by a fail-fast sanitizer at the instant of first violation."""

    def __init__(self, violation: Violation, time: float):
        super().__init__(f"t={time:.3f} {violation}")
        self.violation = violation
        self.time = time


class PrincipleSanitizer:
    """Bus subscriber asserting Principles 1-4 on every relevant event.

    *injector* and *jobs* enable the P1 check (without them the
    sanitizer still audits P2-P4 live).  Register the workload with
    :meth:`watch` once the jobs exist -- they are usually created after
    the pool, hence after the sanitizer attaches.
    """

    def __init__(
        self,
        bus: TelemetryBus,
        injector=None,
        jobs=None,
        fail_fast: bool = False,
    ):
        self.injector = injector
        self.fail_fast = fail_fast
        #: The fail-fast exception, kept for drivers to re-raise in case
        #: the raise itself was absorbed by a dying simulated process.
        self.failure: PrincipleViolationError | None = None
        self.violations: list[Violation] = []
        #: (sim time, violation) in detection order, for reports.
        self.timeline: list[tuple[float, Violation]] = []
        self._jobs: dict[str, object] = {}
        if jobs is not None:
            self.watch(jobs)
        self._unsubscribes = [bus.subscribe(self.on_event, topic) for topic in _TOPICS]

    def watch(self, jobs) -> None:
        """Register *jobs* (iterable of Job) for the P1 outcome check."""
        for job in jobs:
            self._jobs[job.job_id] = job

    def detach(self) -> None:
        """Stop listening; accumulated verdicts remain readable."""
        for unsubscribe in self._unsubscribes:
            unsubscribe()

    # -- reporting -------------------------------------------------------
    def summary(self) -> dict[int, int]:
        """Violation counts keyed by principle number (1-4, always present)."""
        counts = {1: 0, 2: 0, 3: 0, 4: 0}
        for violation in self.violations:
            counts[violation.principle] += 1
        return counts

    # -- the subscriber --------------------------------------------------
    def on_event(self, event: TelemetryEvent) -> None:
        """Judge one telemetry event; record (and maybe raise) violations."""
        if event.topic is Topic.ERROR:
            self._on_error_hop(event)
        elif event.topic is Topic.INTERFACE:
            self._on_crossing(event)
        elif event.topic is Topic.JOB and event.name in _TERMINAL_JOB_EVENTS:
            self._on_terminal_job(event)

    def _record(self, time: float, violation: Violation) -> None:
        self.violations.append(violation)
        self.timeline.append((time, violation))
        if self.fail_fast and self.failure is None:
            self.failure = PrincipleViolationError(violation, time)
            raise self.failure

    def _on_error_hop(self, event: TelemetryEvent) -> None:
        scope_name = event.attr("scope")
        if scope_name is None:
            return
        error_text = format_error(
            event.attr("error", "?"),
            str(ErrorScope[scope_name]),
            event.attr("kind", "?"),
            event.attr("detail", ""),
        )
        violation = check_hop(
            event.name, event.attr("manager", "?"), error_text, str(ErrorScope[scope_name])
        )
        if violation is not None:
            self._record(event.time, violation)

    def _on_crossing(self, event: TelemetryEvent) -> None:
        scope_name = event.attr("scope")
        if scope_name is None:
            return
        for violation in check_crossing(
            event.attr("op", "?"),
            event.attr("error", "?"),
            ErrorScope[scope_name],
            bool(event.attr("generic", False)),
            bool(event.attr("declared", False)),
            bool(event.attr("documented", False)),
        ):
            self._record(event.time, violation)

    def _on_terminal_job(self, event: TelemetryEvent) -> None:
        if self.injector is None:
            return
        job = self._jobs.get(event.attr("job"))
        if job is None:
            return
        violation = check_outcome(self.injector.truth_for_job(job))
        if violation is not None:
            self._record(event.time, violation)
