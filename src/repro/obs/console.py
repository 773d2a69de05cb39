"""The grid console: every operator panel, built once as a ``Table``.

A panel is a :class:`~repro.harness.report.Table` builder over plain
data, and it has two feeds.  The live feed is :class:`GridConsole`, a
bus subscriber whose :meth:`~GridConsole.render` is the text dashboard
an operator keeps open while a run progresses.  The store feed is the
``/console`` page (:mod:`repro.obs.web`), which renders the same tables
as HTML over what the results store kept.  The panels both views show
-- error hops by scope, where time went -- are built by one function
each; traffic, job states, federation and the recent-events tail are
live-only, the store summary and the coverage matrix store-only.

Rendering is pure over accumulated counts, so it is deterministic for a
given seed.  Traffic, error hops and makespans are the shared
:class:`~repro.obs.summary.RunSummary` fold; only the jobs' current
states and the recent-events tail are the live console's own.
"""

from __future__ import annotations

from collections import deque

from repro.core.scope import ErrorScope
from repro.harness.report import Table
from repro.obs.bus import TelemetryBus, TelemetryEvent, Topic
from repro.obs.profile import SimTimeProfiler
from repro.obs.summary import RunSummary

__all__ = [
    "SCOPE_LADDER",
    "TIME_TOP_N",
    "GridConsole",
    "hops_table",
    "matrix_table",
    "summary_table",
    "time_table",
]

#: Containment order, small to large: hops render in this order so "how
#: far errors travel" reads like the paper's ladder (Figure 3).
SCOPE_LADDER = [scope.name for scope in sorted(ErrorScope)]

#: Attribution triples the "where time went" panel shows.
TIME_TOP_N = 6

#: Events the live console's "recent events" tail keeps.
RECENT_EVENTS = 12

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


# -- panels both feeds show ----------------------------------------------
def hops_table(hops: dict[str, int]) -> Table:
    """Error hops by scope, in ladder order; a scope off the ladder last."""
    order = {name: i for i, name in enumerate(SCOPE_LADDER)}
    ranked = sorted(hops.items(), key=lambda kv: (order.get(kv[0], len(order)), kv[0]))
    return Table(["scope", "hops"], ranked, title="error hops")


def time_table(triples: list[dict]) -> Table:
    """The :data:`TIME_TOP_N` heaviest (daemon, phase, scope) triples."""
    table = Table(["daemon", "phase", "scope", "events", "sim time (s)"], title="where time went")
    for row in triples[:TIME_TOP_N]:
        table.add_row(
            [row["daemon"], row["phase"], row["scope"], row["events"], round(row["sim_time"], 1)]
        )
    return table


# -- live-only panels ----------------------------------------------------
def _traffic_table(summary: RunSummary) -> Table:
    table = Table(["topic", "event", "count"], title=f"grid console @ t={summary.last_time:.1f}")
    for (topic, name), count in sorted(summary.counts.items()):
        table.add_row([topic, name, count])
    if not summary.counts:
        table.add_row(["(no events)", "-", 0])
    return table


def _jobs_table(job_states: dict[str, str], makespan_footer: str | None) -> Table:
    tally: dict[str, int] = {}
    for state in job_states.values():
        tally[state] = tally.get(state, 0) + 1
    table = Table(["job state", "jobs"], title="jobs")
    for state in ("idle", "matched", "running", "completed", "held"):
        if state in tally:
            table.add_row([state, tally[state]])
    if not tally:
        table.add_row(["(none)", 0])
    if makespan_footer is not None:
        table.add_footer(makespan_footer)
    return table


def _federation_table(summary: RunSummary) -> Table:
    table = Table(["event", "count"], title="federation")
    for name, label in _FEDERATION_EVENTS.items():
        count = summary.count_named(name)
        if count:
            table.add_row([label, count])
    return table


# -- store-only panels ---------------------------------------------------
def summary_table(summary: dict) -> Table:
    """The ``/v1/results/summary`` payload: the store's runs and the
    mounting service's live counters."""
    table = Table(["summary", "count"], title=f"{summary['db']} ({summary['schema']})")
    table.add_row(["runs stored", summary["runs"]])
    table.add_row(["commits", len(summary["commits"])])
    table.add_row(["violations recorded", summary["violations"]])
    for kind, count in sorted(summary["by_kind"].items()):
        table.add_row([f"{kind} runs", count])
    service = summary["service"]
    if service is None:
        table.add_footer("no live service attached: store-only view")
        return table
    table.add_row(["active service runs", service["queue"].get("active", 0)])
    table.add_row(["requests served", service["requests_total"]])
    routes = sorted(service["requests_by_route"].items(), key=lambda kv: (-kv[1], kv[0]))
    for route, count in routes:
        table.add_row([f"requests to {route}", count])
    return table


def matrix_table(matrix: dict) -> Table:
    """The newest campaign/fuzz run's cells (``/v1/results/matrix``)."""
    run = matrix["run"]
    table = Table(
        ["cell", "order", "completed", "held", "unfinished", "makespan", "violations"],
        title=f"{run['kind']} run #{run['run_id']} ({run['source']})",
    )
    for cell in matrix["cells"]:
        if cell["error"]:
            verdict = f"error: {cell['error']}"
        else:
            verdict = f"{cell['violations']} violation(s)" if cell["violations"] else "none"
        makespan = cell["makespan"]
        table.add_row(
            [
                cell["cell"],
                cell["order"] or "-",
                cell["completed"],
                cell["held"],
                cell["unfinished"],
                "-" if makespan is None else f"{makespan:.1f}s",
                verdict,
            ]
        )
    bad = sum(1 for cell in matrix["cells"] if cell["violations"] or cell["error"])
    table.add_footer(f"{len(matrix['cells'])} cell(s), {bad} with violations or errors")
    return table


# -- the live feed -------------------------------------------------------
class GridConsole:
    """Accumulates telemetry and renders an operator dashboard."""

    def __init__(self, bus: TelemetryBus):
        #: traffic, error hops and makespans: the fold every view shares
        self.summary = RunSummary()
        self.job_states: dict[str, str] = {}
        self.recent: deque[TelemetryEvent] = deque(maxlen=RECENT_EVENTS)
        #: sim-time attribution behind the "where time went" panel
        self.profile = SimTimeProfiler(bus)
        self._unsubscribe = bus.subscribe(self.on_event)

    def detach(self) -> None:
        """Stop listening; accumulated state remains renderable."""
        self._unsubscribe()
        self.profile.detach()

    def on_event(self, event: TelemetryEvent) -> None:
        """Fold one event into the dashboard state."""
        self.summary.on_event(event)
        self.recent.append(event)
        if event.topic is Topic.JOB:
            job = event.attr("job")
            state = _JOB_STATE.get(event.name)
            if job is not None and state is not None:
                self.job_states[job] = state

    def render(self) -> str:
        """The dashboard: traffic, jobs, where time went, errors, recent."""
        summary = self.summary
        tables = [_traffic_table(summary), _jobs_table(self.job_states, summary.makespan_footer())]
        if self.profile.total_events:
            snap = self.profile.snapshot()
            time = time_table(snap["triples"])
            if snap["sim_time"] > 0:
                time.add_footer(f"total sim time {snap['sim_time']:.1f}s")
            tables.append(time)
        federation = _federation_table(summary)
        if federation.rows:
            tables.append(federation)
        if summary.error_hops:
            tables.append(hops_table(summary.error_hops))
        sections = [table.render() for table in tables]
        if self.recent:
            sections.append("recent events:\n" + "\n".join(f"  {e}" for e in self.recent))
        return "\n\n".join(sections)
