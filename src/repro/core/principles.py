"""The principle auditor: mechanically checking Principles 1-4.

Given the artifacts of a run -- the propagation trace, the error
interfaces, and the per-job outcomes with injected ground truth -- the
auditor reports every detectable violation:

- **P1** ("a program must not generate an implicit error as a result of
  receiving an explicit error"): a job whose ground truth is an
  environmental error (scope wider than PROGRAM) but that was presented
  to the user as a valid program result.  The canonical instance is the
  JVM collapsing a misconfiguration into exit code 1 (Figure 4).
- **P2** ("an escaping error must be used to convert a potential implicit
  error into an explicit error at a higher level"): an out-of-contract
  error that crossed an interface as an ordinary explicit result instead
  of escaping -- only possible through a generic operation.
- **P3** ("an error must be propagated to the program that manages its
  scope"): MISHANDLED trace events (a manager consumed an error outside
  its scope) and UNMANAGED events (an error fell off the chain raw).
- **P4** ("error interfaces must be concise and finite"): every crossing
  of a generic (open-ended) operation by an undocumented error name.

One checker, two feeds: :meth:`PrincipleAuditor.of_run` judges a run's
artifacts after it ends, :meth:`PrincipleAuditor.live` its ERROR,
INTERFACE and JOB telemetry while it executes (subscribed by topic
string: this package imports nothing from ``repro.obs``).  Both call the
same ``check_*`` functions, so a run's live verdicts equal its post-hoc
ones event for event -- the cross-check every campaign cell records.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import format_error
from repro.core.interfaces import ErrorInterface
from repro.core.propagation import EventType, PropagationTrace
from repro.core.scope import ErrorScope

__all__ = [
    "TERMINAL_JOB_EVENTS",
    "JobGroundTruth",
    "PrincipleAuditor",
    "PrincipleViolationError",
    "Violation",
    "check_crossing",
    "check_hop",
    "check_outcome",
]

#: JOB-topic events that present a job's outcome to the user -- the
#: instant P1 is judged -- and the outcome each presents.  The span
#: tree's job lifecycle (``repro.obs.span``) reads the same table.
TERMINAL_JOB_EVENTS = {"result": "completed", "hold": "held"}


@dataclass(frozen=True)
class Violation:
    """One detected violation of one principle."""

    principle: int
    description: str
    subject: str = ""  # job id, interface.operation, or manager name

    def __str__(self) -> str:
        where = f" [{self.subject}]" if self.subject else ""
        return f"P{self.principle}{where}: {self.description}"


@dataclass
class JobGroundTruth:
    """What actually happened to a job vs. what the user was told.

    - *truth_scope*: the widest scope of any injected/environmental error
      that affected the decisive execution (None = clean run).
    - *claimed_program_result*: the system presented the outcome to the
      user as a valid program result (completion or program exception).
    """

    job_id: str
    truth_scope: ErrorScope | None
    claimed_program_result: bool
    detail: str = ""


# -- the shared checks -------------------------------------------------
#
# Each principle's judgement is a pure function over primitive facts, so
# the post-hoc feed (reading run artifacts) and the live feed (reading
# telemetry events) produce *identical* Violation objects for the same
# occurrence -- the property the cross-check tests pin down.


def check_outcome(outcome: JobGroundTruth) -> Violation | None:
    """P1: an environmental error presented as a valid program result."""
    if (
        outcome.truth_scope is not None
        and not outcome.truth_scope.within_program_contract
        and outcome.claimed_program_result
    ):
        return Violation(
            1,
            f"environmental error of {outcome.truth_scope} scope "
            f"presented as a valid program result"
            + (f" ({outcome.detail})" if outcome.detail else ""),
            subject=outcome.job_id,
        )
    return None


def check_crossing(
    op_text: str,
    error_name: str,
    scope: ErrorScope,
    generic: bool,
    declared: bool,
    documented: bool,
) -> list[Violation]:
    """P4 (and P2) for one interface crossing.

    A generic operation that let an undocumented error through as a
    declared result is a P4 violation; if that error was additionally
    out of the program contract, the crossing should have escaped -- P2.
    """
    found: list[Violation] = []
    if generic and declared and not documented:
        found.append(
            Violation(
                4,
                f"undocumented error {error_name!r} passed "
                f"through generic interface",
                subject=op_text,
            )
        )
        if not scope.within_program_contract:
            found.append(
                Violation(
                    2,
                    f"out-of-contract error {error_name!r} "
                    f"({scope} scope) presented as an "
                    f"explicit result instead of escaping",
                    subject=op_text,
                )
            )
    return found


def check_hop(hop: str, manager: str, error_text: str, scope_text: str) -> Violation | None:
    """P3 for one management-chain hop (by event name)."""
    if hop == EventType.MISHANDLED.value:
        return Violation(
            3,
            f"{error_text} consumed by {manager!r}, which does "
            f"not manage {scope_text} scope",
            subject=manager,
        )
    if hop == EventType.UNMANAGED.value:
        return Violation(
            3,
            f"{error_text} reached the end of the chain with no "
            f"manager for {scope_text} scope",
            subject=manager,
        )
    return None


class PrincipleViolationError(AssertionError):
    """Raised by a fail-fast live auditor at the instant of first violation."""

    def __init__(self, violation: Violation, time: float):
        super().__init__(f"t={time:.3f} {violation}")
        self.violation = violation
        self.time = time


class PrincipleAuditor:
    """Reports violations of Principles 1-4, from a run's artifacts
    (:meth:`of_run`) or from its telemetry as it happens (:meth:`live`).

    *injector* and *jobs* enable the live P1 check (without them the live
    feed still audits P2-P4).  Register the workload with :meth:`watch`
    once the jobs exist -- they are usually created after the pool, hence
    after the auditor attaches.
    """

    def __init__(self, injector=None, jobs=None, fail_fast: bool = False) -> None:
        self.violations: list[Violation] = []
        #: (sim time, violation) in live detection order, for reports.
        self.timeline: list[tuple[float, Violation]] = []
        self.injector = injector
        self.fail_fast = fail_fast
        #: The fail-fast exception, kept for drivers to re-raise in case
        #: the raise itself was absorbed by a dying simulated process.
        self.failure: PrincipleViolationError | None = None
        self._jobs: dict[str, object] = {}
        self._unsubscribes: list = []
        if jobs is not None:
            self.watch(jobs)

    @classmethod
    def live(cls, bus, injector=None, jobs=None, fail_fast: bool = False) -> PrincipleAuditor:
        """An auditor judging *bus*'s ERROR, INTERFACE and JOB events as
        they are emitted, one handler per topic, until :meth:`detach`."""
        auditor = cls(injector, jobs, fail_fast)
        auditor._unsubscribes = [
            bus.subscribe(auditor.on_error, "error"),
            bus.subscribe(auditor.on_interface, "interface"),
            bus.subscribe(auditor.on_job, "job"),
        ]
        return auditor

    @classmethod
    def of_run(
        cls,
        outcomes: list[JobGroundTruth],
        interfaces: list[ErrorInterface],
        trace: PropagationTrace,
    ) -> PrincipleAuditor:
        """An auditor that has checked one run's three artifacts: ground
        truth (P1), the interface registry (P2, P4), the trace (P3)."""
        auditor = cls()
        auditor.audit_outcomes(outcomes)
        auditor.audit_interfaces(interfaces)
        auditor.audit_trace(trace)
        return auditor

    # -- P1 ------------------------------------------------------------
    def audit_outcomes(self, outcomes: list[JobGroundTruth]) -> list[Violation]:
        """Check every job outcome for P1 violations."""
        found = [v for v in map(check_outcome, outcomes) if v is not None]
        self.violations.extend(found)
        return found

    # -- P2 and P4 ----------------------------------------------------------
    def audit_interfaces(self, interfaces: list[ErrorInterface]) -> list[Violation]:
        """Check recorded interface crossings for P2 and P4 violations."""
        found = []
        for iface in interfaces:
            for crossing in iface.crossings:
                op = crossing.operation
                found.extend(
                    check_crossing(
                        str(op),
                        crossing.error.name,
                        crossing.error.scope,
                        op.generic,
                        crossing.declared,
                        crossing.error.name in op.errors,
                    )
                )
        self.violations.extend(found)
        return found

    # -- P3 ---------------------------------------------------------------
    def audit_trace(self, trace: PropagationTrace) -> list[Violation]:
        """Check the propagation trace for P3 violations."""
        found = []
        for event in trace:
            violation = check_hop(
                event.event.value, event.manager, str(event.error), str(event.error.scope)
            )
            if violation is not None:
                found.append(violation)
        self.violations.extend(found)
        return found

    # -- the live feed -------------------------------------------------------
    def watch(self, jobs) -> None:
        """Register *jobs* (iterable of Job) for the live P1 outcome check."""
        for job in jobs:
            self._jobs[job.job_id] = job

    def detach(self) -> None:
        """Stop listening; accumulated verdicts remain readable."""
        for unsubscribe in self._unsubscribes:
            unsubscribe()

    def _record(self, time: float, violation: Violation) -> None:
        self.violations.append(violation)
        self.timeline.append((time, violation))
        if self.fail_fast and self.failure is None:
            self.failure = PrincipleViolationError(violation, time)
            raise self.failure

    def on_error(self, event) -> None:
        """P3 for one ERROR-topic hop event."""
        scope_name = event.attr("scope")
        if scope_name is None:
            return
        scope_text = str(ErrorScope[scope_name])
        error_text = format_error(
            event.attr("error", "?"), scope_text, event.attr("kind", "?"), event.attr("detail", "")
        )
        violation = check_hop(event.name, event.attr("manager", "?"), error_text, scope_text)
        if violation is not None:
            self._record(event.time, violation)

    def on_interface(self, event) -> None:
        """P2 and P4 for one INTERFACE-topic crossing event."""
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

    def on_job(self, event) -> None:
        """P1 for one JOB-topic event that presents a watched job's outcome."""
        if event.name not in TERMINAL_JOB_EVENTS or self.injector is None:
            return
        job = self._jobs.get(event.attr("job"))
        if job is None:
            return
        violation = check_outcome(self.injector.truth_for_job(job))
        if violation is not None:
            self._record(event.time, violation)

    # -- reporting -----------------------------------------------------------
    def summary(self) -> dict[int, int]:
        """Violation counts keyed by principle number (1-4, always present)."""
        counts = {1: 0, 2: 0, 3: 0, 4: 0}
        for violation in self.violations:
            counts[violation.principle] += 1
        return counts

    def render(self) -> str:
        """Human-readable report."""
        if not self.violations:
            return "no principle violations detected"
        lines = [f"{len(self.violations)} principle violations:"]
        lines += [f"  {v}" for v in self.violations]
        counts = self.summary()
        lines.append(
            "summary: " + "  ".join(f"P{p}={n}" for p, n in counts.items())
        )
        return "\n".join(lines)
