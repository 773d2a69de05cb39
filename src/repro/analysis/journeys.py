"""Per-error journey reconstruction and aggregate statistics."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.propagation import EventType, PropagationTrace, TraceEvent
from repro.core.scope import ErrorScope
from repro.harness.report import Table

__all__ = ["Journey", "JourneyStats", "analyze_trace", "journeys", "observed_scope_map"]


@dataclass
class Journey:
    """One error's path through the management chain."""

    error_id: int
    name: str
    scope: ErrorScope
    events: list[TraceEvent] = field(default_factory=list)

    @property
    def discovered_at(self) -> float:
        return self.events[0].time

    @property
    def discovered_by(self) -> str:
        return self.events[0].manager

    @property
    def terminal_event(self) -> TraceEvent | None:
        for event in reversed(self.events):
            if event.event in (
                EventType.MASKED,
                EventType.REPORTED,
                EventType.MISHANDLED,
                EventType.UNMANAGED,
            ):
                return event
        return None

    @property
    def handler(self) -> str | None:
        terminal = self.terminal_event
        if terminal is None or terminal.event is EventType.UNMANAGED:
            return None
        return terminal.manager

    @property
    def hops(self) -> int:
        return sum(1 for e in self.events if e.event is EventType.ESCALATED)

    @property
    def latency(self) -> float:
        terminal = self.terminal_event
        if terminal is None:
            return float("nan")
        return terminal.time - self.discovered_at

    @property
    def correctly_delivered(self) -> bool:
        """Did the error reach a manager of its scope (Principle 3)?"""
        terminal = self.terminal_event
        return terminal is not None and terminal.event in (
            EventType.MASKED,
            EventType.REPORTED,
        )


def journeys(trace: PropagationTrace) -> list[Journey]:
    """Group a trace into per-error journeys, in discovery order."""
    by_id: dict[int, Journey] = {}
    for event in trace:
        journey = by_id.get(event.error.error_id)
        if journey is None:
            journey = Journey(
                error_id=event.error.error_id,
                name=event.error.name,
                scope=event.error.scope,
                events=[],
            )
            by_id[event.error.error_id] = journey
        journey.events.append(event)
    return list(by_id.values())


@dataclass
class JourneyStats:
    """Aggregate statistics over a trace's journeys."""

    total: int
    correctly_delivered: int
    mishandled: int
    unmanaged: int
    mean_hops: float
    max_hops: int
    by_scope: dict[ErrorScope, int]
    by_handler: dict[str, int]

    def table(self) -> Table:
        table = Table(["quantity", "value"], title="journey statistics")
        table.add_row(["errors traced", self.total])
        table.add_row(["correctly delivered (P3)", self.correctly_delivered])
        table.add_row(["mishandled", self.mishandled])
        table.add_row(["unmanaged", self.unmanaged])
        table.add_row(["mean hops to handler", round(self.mean_hops, 3)])
        table.add_row(["max hops", self.max_hops])
        for scope in sorted(self.by_scope):
            table.add_row([f"errors of {scope} scope", self.by_scope[scope]])
        for handler in sorted(self.by_handler):
            table.add_row([f"handled by {handler}", self.by_handler[handler]])
        return table


def analyze_trace(trace: PropagationTrace) -> JourneyStats:
    """Compute :class:`JourneyStats` for *trace*."""
    all_journeys = journeys(trace)
    hops = [j.hops for j in all_journeys]
    by_scope: dict[ErrorScope, int] = defaultdict(int)
    by_handler: dict[str, int] = defaultdict(int)
    mishandled = 0
    unmanaged = 0
    delivered = 0
    for journey in all_journeys:
        by_scope[journey.scope] += 1
        terminal = journey.terminal_event
        if terminal is None:
            continue
        if terminal.event is EventType.MISHANDLED:
            mishandled += 1
        elif terminal.event is EventType.UNMANAGED:
            unmanaged += 1
        else:
            delivered += 1
        if journey.handler is not None:
            by_handler[journey.handler] += 1
    return JourneyStats(
        total=len(all_journeys),
        correctly_delivered=delivered,
        mishandled=mishandled,
        unmanaged=unmanaged,
        mean_hops=sum(hops) / len(hops) if hops else 0.0,
        max_hops=max(hops, default=0),
        by_scope=dict(by_scope),
        by_handler=dict(by_handler),
    )


def observed_scope_map(trace: PropagationTrace) -> Table:
    """Figure 3 as measured: scope -> set of handlers actually observed."""
    handlers: dict[ErrorScope, set[str]] = defaultdict(set)
    for journey in journeys(trace):
        if journey.handler is not None:
            handlers[journey.scope].add(journey.handler)
    table = Table(["scope", "observed handler(s)", "expected handler"],
                  title="observed scope -> handler map (cf. Figure 3)")
    for scope in sorted(handlers):
        table.add_row([
            str(scope),
            ", ".join(sorted(handlers[scope])),
            scope.managing_program,
        ])
    return table
