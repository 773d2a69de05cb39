"""The grid console: a live operator view over the telemetry stream.

Where ``condor/tools.py`` renders *pool state* (what the daemons' data
structures say now), the console renders the *event stream* (what has
been happening): per-topic traffic, the jobs' current lifecycle states,
error-hop counts by scope, and the most recent events -- the view an
operator would keep open while a run progresses.

Like every observer it is a plain bus subscriber: attach it, run, call
:meth:`GridConsole.render` whenever a snapshot is wanted.  Rendering is
pure over accumulated counts, so it is deterministic for a given seed.
Traffic, error hops and makespans are the shared
:class:`~repro.obs.summary.RunSummary` fold; only the jobs' current
states and the recent-events tail are the console's own.
"""

from __future__ import annotations

from collections import deque

from repro.harness.report import Table
from repro.obs.bus import TelemetryBus, TelemetryEvent, Topic
from repro.obs.profile import SimTimeProfiler
from repro.obs.summary import RunSummary

__all__ = ["GridConsole"]

#: JOB-topic event name -> the state the job is in afterwards.
_JOB_STATE = {
    "submit": "idle",
    "match": "matched",
    "claim_failed": "idle",
    "execute": "running",
    "site_failed": "idle",
    "result": "completed",
    "hold": "held",
}

#: event names the federation panel counts -> the row label shown there.
_FEDERATION_EVENTS = {
    "flock": "jobs flocked",
    "flock_link_up": "flock links up",
    "flock_link_down": "flock links down",
    "grid_unreachable": "grid unreachable",
    "machine_leave": "machines left",
    "machine_join": "machines rejoined",
    "site_avoided": "sites avoided",
}


class GridConsole:
    """Accumulates telemetry and renders an operator dashboard."""

    def __init__(self, bus: TelemetryBus, keep_last: int = 12):
        #: traffic, error hops and makespans: the fold every view shares
        self.summary = RunSummary()
        self.job_states: dict[str, str] = {}
        self.recent: deque[TelemetryEvent] = deque(maxlen=keep_last)
        #: sim-time attribution behind the "where time went" panel
        self.profile = SimTimeProfiler(bus)
        self._unsubscribe = bus.subscribe(self.on_event)

    def detach(self) -> None:
        """Stop listening; accumulated state remains renderable."""
        self._unsubscribe()
        self.profile.detach()

    # -- the subscriber -------------------------------------------------
    def on_event(self, event: TelemetryEvent) -> None:
        """Fold one event into the dashboard state."""
        self.summary.on_event(event)
        self.recent.append(event)
        if event.topic is Topic.JOB:
            job = event.attr("job")
            state = _JOB_STATE.get(event.name)
            if job is not None and state is not None:
                self.job_states[job] = state

    # -- rendering ------------------------------------------------------
    def render(self) -> str:
        """The dashboard: traffic, jobs, where time went, errors, recent."""
        sections = [self._traffic_table(), self._jobs_table()]
        if self.profile.total_events:
            sections.append(self._time_table())
        federation = self._federation_table()
        if federation is not None:
            sections.append(federation)
        if self.summary.error_hops:
            sections.append(self._errors_table())
        if self.recent:
            sections.append(self._recent_lines())
        return "\n\n".join(sections)

    def _traffic_table(self) -> str:
        table = Table(
            ["topic", "event", "count"],
            title=f"grid console @ t={self.summary.last_time:.1f}",
        )
        for (topic, name), count in sorted(self.summary.counts.items()):
            table.add_row([topic, name, count])
        if not self.summary.counts:
            table.add_row(["(no events)", "-", 0])
        return table.render()

    def _jobs_table(self) -> str:
        tally: dict[str, int] = {}
        for state in self.job_states.values():
            tally[state] = tally.get(state, 0) + 1
        table = Table(["job state", "jobs"], title="jobs")
        for state in ("idle", "matched", "running", "completed", "held"):
            if state in tally:
                table.add_row([state, tally[state]])
        if not tally:
            table.add_row(["(none)", 0])
        footer = self.summary.makespan_footer()
        if footer is not None:
            table.add_footer(footer)
        return table.render()

    def _time_table(self) -> str:
        snap = self.profile.snapshot()
        total = snap["sim_time"] or 0.0
        table = Table(
            ["daemon", "phase", "scope", "events", "sim time (s)"],
            title="where time went",
        )
        for row in snap["triples"][:6]:
            table.add_row(
                [
                    row["daemon"],
                    row["phase"],
                    row["scope"],
                    row["events"],
                    round(row["sim_time"], 1),
                ]
            )
        if total > 0:
            table.add_footer(f"total sim time {total:.1f}s")
        return table.render()

    def _federation_table(self) -> str | None:
        """A view of the traffic counts by event name; None when all are 0."""
        table = Table(["event", "count"], title="federation")
        for name, label in _FEDERATION_EVENTS.items():
            count = self.summary.count_named(name)
            if count:
                table.add_row([label, count])
        return table.render() if table.rows else None

    def _errors_table(self) -> str:
        rows = sorted(self.summary.error_hops.items())
        return Table(["scope", "hops"], rows, title="error hops").render()

    def _recent_lines(self) -> str:
        return "recent events:\n" + "\n".join(f"  {e}" for e in self.recent)
