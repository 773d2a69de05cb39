"""The grid console: a live operator view over the telemetry stream.

Where ``condor/tools.py`` renders *pool state* (what the daemons' data
structures say now), the console renders the *event stream* (what has
been happening): per-topic traffic, the jobs' current lifecycle states,
error-hop counts by scope, and the most recent events -- the view an
operator would keep open while a run progresses.

Like every observer it is a plain bus subscriber: attach it, run, call
:meth:`GridConsole.render` whenever a snapshot is wanted.  Rendering is
pure over accumulated counts, so it is deterministic for a given seed.
"""

from __future__ import annotations

from collections import deque

from repro.harness.report import Table
from repro.obs.bus import TelemetryBus, TelemetryEvent, Topic
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import SimTimeProfiler

__all__ = ["GridConsole", "render_makespan_footer"]

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

#: events that feed the federation panel -> the row label shown there.
_FEDERATION_EVENTS = {
    "flock": "jobs flocked",
    "flock_link_up": "flock links up",
    "flock_link_down": "flock links down",
    "grid_unreachable": "grid unreachable",
    "machine_leave": "machines left",
    "machine_join": "machines rejoined",
    "site_avoided": "sites avoided",
}


def render_makespan_footer(registry: MetricsRegistry) -> str | None:
    """The jobs-panel footer over ``job_makespan_seconds``; None while empty."""
    triple = registry.histogram_percentiles("job_makespan_seconds")
    if triple is None:
        return None
    return "makespan p50={p50:.1f}s p95={p95:.1f}s p99={p99:.1f}s".format(**triple)


class GridConsole:
    """Accumulates telemetry and renders an operator dashboard."""

    def __init__(self, bus: TelemetryBus, keep_last: int = 12):
        self.counts: dict[tuple[str, str], int] = {}
        self.job_states: dict[str, str] = {}
        self.error_hops: dict[str, int] = {}
        self.federation: dict[str, int] = {}
        self.last_time = 0.0
        self.recent: deque[TelemetryEvent] = deque(maxlen=keep_last)
        #: sim-time attribution behind the "where time went" panel
        self.profile = SimTimeProfiler(bus)
        #: job-makespan distribution (p50/p95/p99 in the jobs panel)
        self.registry = MetricsRegistry()
        self._submit_times: dict[str, float] = {}
        self._unsubscribe = bus.subscribe(self.on_event)

    def detach(self) -> None:
        """Stop listening; accumulated state remains renderable."""
        self._unsubscribe()
        self.profile.detach()

    # -- the subscriber -------------------------------------------------
    def on_event(self, event: TelemetryEvent) -> None:
        """Fold one event into the dashboard state."""
        key = (event.topic.value, event.name)
        self.counts[key] = self.counts.get(key, 0) + 1
        self.last_time = max(self.last_time, event.time)
        self.recent.append(event)
        label = _FEDERATION_EVENTS.get(event.name)
        if label is not None:
            self.federation[label] = self.federation.get(label, 0) + 1
        if event.topic is Topic.JOB:
            job = event.attr("job")
            state = _JOB_STATE.get(event.name)
            if job is not None and state is not None:
                self.job_states[job] = state
            if job is not None:
                if event.name == "submit":
                    self._submit_times.setdefault(job, event.time)
                elif event.name in ("result", "hold"):
                    submitted = self._submit_times.pop(job, None)
                    if submitted is not None:
                        self.registry.histogram(
                            "job_makespan_seconds", event.time - submitted
                        )
        elif event.topic is Topic.ERROR:
            scope = str(event.attr("scope", "?"))
            self.error_hops[scope] = self.error_hops.get(scope, 0) + 1

    # -- rendering ------------------------------------------------------
    def render(self) -> str:
        """The dashboard: traffic, jobs, where time went, errors, recent."""
        sections = [self._traffic_table(), self._jobs_table()]
        if self.profile.total_events:
            sections.append(self._time_table())
        if self.federation:
            sections.append(self._federation_table())
        if self.error_hops:
            sections.append(self._errors_table())
        if self.recent:
            sections.append(self._recent_lines())
        return "\n\n".join(sections)

    def _traffic_table(self) -> str:
        table = Table(
            ["topic", "event", "count"],
            title=f"grid console @ t={self.last_time:.1f}",
        )
        for (topic, name), count in sorted(self.counts.items()):
            table.add_row([topic, name, count])
        if not self.counts:
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
        footer = render_makespan_footer(self.registry)
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

    def _federation_table(self) -> str:
        table = Table(["event", "count"], title="federation")
        for label in _FEDERATION_EVENTS.values():
            if label in self.federation:
                table.add_row([label, self.federation[label]])
        return table.render()

    def _errors_table(self) -> str:
        table = Table(["scope", "hops"], title="error hops")
        for scope in sorted(self.error_hops):
            table.add_row([scope, self.error_hops[scope]])
        return table.render()

    def _recent_lines(self) -> str:
        return "recent events:\n" + "\n".join(f"  {e}" for e in self.recent)
