"""Spans: nested intervals assembled live from the telemetry stream.

Two span families cover the two journeys the paper cares about:

- a **job journey** -- one root span per job (``job:<id>``) with child
  phase spans following the lifecycle submit -> queued -> claim ->
  attempt -> result/hold; a retried job grows additional queued/claim/
  attempt phases;
- an **error journey** -- one root span per propagated error
  (``error:<id>``) with one child span per *hop* through the management
  chain (discovered, escalated, delivered, masked, reported, mishandled,
  unmanaged), mirroring Figure 3 live instead of post-hoc.

The :class:`SpanBuilder` is an ordinary bus subscriber, to the JOB and
ERROR topics only: the emission sites stay span-agnostic and pay nothing
for span assembly, and the other topics are not published on its
account.  Span ids are dense per-builder sequence numbers, so the span
set for a given seed is identical across runs (DESIGN.md §6).

This module is the one journey builder, and it owns the two readings
every consumer of the tree shares: the job lifecycle
(:data:`JOB_PHASES`, with the terminal events of
:data:`~repro.core.principles.TERMINAL_JOB_EVENTS`), which the profiler
and the run summary follow too, and the parent -> children index
(:func:`children_of`) under the critical path, the flame stacks, the
fuzzer's coverage signatures and the FIG3 scope -> handler table
(:meth:`SpanBuilder.scope_to_handlers`).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

from repro.core.principles import TERMINAL_JOB_EVENTS
from repro.obs.bus import TelemetryBus, TelemetryEvent, Topic

__all__ = ["JOB_PHASES", "TERMINAL_JOB_EVENTS", "Span", "SpanBuilder", "children_of"]

#: The job lifecycle: JOB-topic event -> the phase it opens.  A job's
#: terminal event (:data:`TERMINAL_JOB_EVENTS`) closes its phase instead,
#: and a return to ``queued`` closes the failed phase with the event's name.
JOB_PHASES = {
    "submit": "queued",
    "match": "claim",
    "claim_failed": "queued",
    "execute": "attempt",
    "site_failed": "queued",
}

#: ERROR-topic event names that end an error's journey.
_TERMINAL_HOPS = frozenset({"masked", "reported", "mishandled", "unmanaged"})


@dataclass
class Span:
    """One named interval of simulated time, possibly nested."""

    span_id: int
    parent_id: int | None
    name: str
    kind: str  # "job" | "phase" | "error" | "hop"
    start: float
    end: float | None = None
    status: str = ""
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def open(self) -> bool:
        """True while the span has not been closed."""
        return self.end is None

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start

    def __str__(self) -> str:
        end = "..." if self.end is None else f"{self.end:.3f}"
        status = f" [{self.status}]" if self.status else ""
        return f"<span {self.span_id} {self.name} {self.start:.3f}..{end}{status}>"


def children_of(spans: Iterable[Span]) -> dict[int, list[Span]]:
    """span id -> its child spans, in span order: a job root's phases, an
    error root's hops."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    return children


class SpanBuilder:
    """Assembles :class:`Span` trees from a live telemetry stream."""

    def __init__(self, bus: TelemetryBus):
        self.spans: list[Span] = []
        self._next_id = 1
        #: job_id -> open root span
        self._job_roots: dict[str, Span] = {}
        #: job_id -> open phase span
        self._job_phase: dict[str, Span] = {}
        #: job_id -> attempt ordinal (for phase naming)
        self._attempts: dict[str, int] = {}
        #: error_id -> open journey span
        self._error_roots: dict[Any, Span] = {}
        self._unsubscribes = [
            bus.subscribe(self.on_job, Topic.JOB),
            bus.subscribe(self.on_error, Topic.ERROR),
        ]

    # -- span bookkeeping ----------------------------------------------
    def _open(
        self, name: str, kind: str, start: float, parent: Span | None = None, **attrs: Any
    ) -> Span:
        span = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            kind=kind,
            start=start,
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    @staticmethod
    def _close(span: Span, end: float, status: str = "") -> None:
        if span.end is None:
            span.end = end
            if status:
                span.status = status

    # -- the subscriber, one handler per topic ---------------------------
    def on_job(self, event: TelemetryEvent) -> None:
        """Advance one job's journey by a JOB-topic event."""
        job_id = event.attr("job")
        if job_id is None:
            return
        t, name = event.time, event.name
        root = self._job_roots.get(job_id)
        if name == "submit":
            if root is not None:
                return  # duplicate submit; keep the original journey
            root = self._open(f"job:{job_id}", "job", t, **dict(event.attrs))
            self._job_roots[job_id] = root
            self._job_phase[job_id] = self._open("queued", "phase", t, parent=root)
            self._attempts[job_id] = 0
            return
        if root is None:
            return  # event for a job whose submit predates the session
        phase = self._job_phase.get(job_id)
        opened = JOB_PHASES.get(name)
        if opened is not None:
            requeued = opened == "queued"  # the phase it closes failed
            if phase is not None:
                self._close(phase, t, status=name if requeued else "")
            if opened == "attempt":
                self._attempts[job_id] += 1
                opened = f"attempt:{self._attempts[job_id]}"
            attrs = {} if requeued else {"site": event.attr("site")}
            self._job_phase[job_id] = self._open(opened, "phase", t, parent=root, **attrs)
        elif name == "flock":
            # The job's ad crossed a pool boundary; record the hop on the
            # journey root without disturbing the phase machine.
            root.attrs["flocked"] = event.attr("target")
        elif name in TERMINAL_JOB_EVENTS:
            status = TERMINAL_JOB_EVENTS[name]
            if phase is not None:
                self._close(phase, t, status=status)
            self._close(root, t, status=status)
            root.attrs.update(dict(event.attrs))
            self._job_roots.pop(job_id, None)
            self._job_phase.pop(job_id, None)

    def on_error(self, event: TelemetryEvent) -> None:
        """Add one ERROR-topic hop to its error's journey."""
        error_id = event.attr("error_id")
        if error_id is None:
            return
        t, hop = event.time, event.name
        journey = self._error_roots.get(error_id)
        if journey is None:
            journey = self._open(
                f"error:{error_id}",
                "error",
                t,
                error=event.attr("error"),
                scope=event.attr("scope"),
            )
            self._error_roots[error_id] = journey
        # One span per hop; hops are instantaneous in simulated time.
        self._open(
            f"hop:{hop}",
            "hop",
            t,
            parent=journey,
            manager=event.attr("manager"),
        )
        if hop in _TERMINAL_HOPS:
            self._close(journey, t, status=hop)
            self._error_roots.pop(error_id, None)

    # -- teardown and queries -------------------------------------------
    def detach(self) -> None:
        """Stop listening (open spans stay open, end=None)."""
        for unsubscribe in self._unsubscribes:
            unsubscribe()

    def journeys(self) -> list[Span]:
        """The error-journey root spans, in creation order."""
        return [s for s in self.spans if s.kind == "error"]

    def job_spans(self) -> list[Span]:
        """The job-journey root spans, in creation order."""
        return [s for s in self.spans if s.kind == "job"]

    def scope_to_handlers(self) -> dict[str, set[str]]:
        """The observed scope -> handling-manager map (FIG3, live).

        For every error journey that ended in ``masked`` or ``reported``,
        the manager of its terminal hop handled that scope.
        """
        children = children_of(self.spans)
        table: dict[str, set[str]] = {}
        for journey in self.journeys():
            if journey.status not in ("masked", "reported"):
                continue
            hops = children.get(journey.span_id, [])
            if not hops:
                continue
            handler = hops[-1].attrs.get("manager")
            scope = journey.attrs.get("scope")
            if handler and scope:
                table.setdefault(scope, set()).add(handler)
        return table
