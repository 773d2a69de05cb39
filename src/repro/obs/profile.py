"""The deterministic grid profiler: where does the time go?

Three views, all layered on the existing telemetry bus and span stream:

- :class:`SimTimeProfiler` -- a plain bus subscriber that attributes
  *simulated* time and event counts to ``(daemon, phase, scope)``
  triples.  Like every exporter it sees only deterministic attributes,
  so its snapshot is byte-identical across same-seed runs (DESIGN.md
  §6).
- :func:`critical_path` / :func:`folded_stacks` -- post-run analysis
  over the :class:`~repro.obs.span.SpanBuilder` span set: which phase
  dominates each job's makespan, which job carries the whole run's
  span, and a folded-stack text export consumable by standard
  flamegraph tooling (``frame;frame weight`` lines, weights in
  microseconds of simulated time).
- :class:`WallCounters` -- lightweight perf counters for the real hot
  paths (the sim engine's process step, ClassAd parsing/matching, the
  chirp and remote-I/O channels).  Instrumented modules hold a
  module-global ``WALL_PROFILE`` that defaults to ``None``; emission
  sites guard with one global read, mirroring the bus's
  inactive-emit contract, so an uninstrumented run pays nothing.
  Wall numbers are *never* part of the determinism contract: every
  export places them under a ``wall`` key that comparisons strip.

**Sim-time attribution model.**  Each event resolves to one triple:
the *daemon* dimension from the event's topic and name (DAEMON events
map by name, PROCESS events by their process-name prefix, IO events by
channel, ERROR events by the hop's manager); the *phase* dimension from
the job lifecycle phase the event's job is in (``queued`` / ``claim`` /
``attempt``, following the span tree's :data:`~repro.obs.span.JOB_PHASES`;
``-`` for events not tied to a job); the *scope* dimension
from the event's ``scope`` attribute (``-`` when absent).  The interval
between two consecutive events is charged to the triple of the
*earlier* event -- simulated time "belongs" to whatever the grid was
last observed doing; a clock that runs backwards starts a new timeline
(another simulator), and nothing is charged across the gap.  Transition
events are attributed to the phase they begin, except terminal
``result`` / ``hold`` events, which close out the attempt that produced
them.
"""

from __future__ import annotations

import gc
import importlib
import sys
from time import perf_counter_ns
from typing import Any

from repro.obs.bus import PerTriple, TelemetryBus, TelemetryEvent, Topic
from repro.obs.span import JOB_PHASES, TERMINAL_JOB_EVENTS, Span, children_of

__all__ = [
    "PROFILE_SCHEMA",
    "SimTimeProfiler",
    "WallCounters",
    "critical_path",
    "folded_stacks",
    "install_wall",
    "installed_wall",
    "profile_report",
    "render_profile",
]

PROFILE_SCHEMA = "repro-profile/1"

#: Attribution triples the "where time went" panel shows.
PANEL_TOP_N = 8

#: DAEMON-topic event name -> the daemon that published it.
_DAEMON_OF_EVENT = {
    "negotiation_cycle": "matchmaker",
    "match_made": "matchmaker",
    "shadow_spawn": "schedd",
    "shadow_exit": "shadow",
    "claim_rejected": "startd",
    "claim_granted": "startd",
    "evict": "startd",
    "starter_exec": "starter",
    "starter_error": "starter",
    "pool_created": "pool",
}

#: PROCESS-name prefix -> canonical daemon name.
_DAEMON_OF_PROCESS = {
    "chirp": "chirp",
    "ioserver": "remoteio",
    "ioserve": "remoteio",
}

_TRIPLE_NONE = ("-", "-", "-")

#: Attribution triples a record's profile section keeps.
SECTION_TOP_N = 8


def _process_daemon(process_name: str) -> str:
    prefix = process_name.split(":", 1)[0].split("-", 1)[0]
    return _DAEMON_OF_PROCESS.get(prefix, prefix or "-")


def _derive_attribution(event: TelemetryEvent) -> tuple[str, str, Any]:
    """The stateless part of an attribution: ``(daemon, scope, job)``."""
    topic = event.topic
    if topic is Topic.DAEMON:
        daemon = _DAEMON_OF_EVENT.get(event.name, "daemon")
    elif topic is Topic.JOB:
        daemon = "schedd"  # the lifecycle is the schedd's view
    elif topic is Topic.PROCESS:
        daemon = _process_daemon(str(event.attr("process", "-")))
    elif topic in (Topic.ERROR, Topic.INTERFACE):
        daemon = str(event.attr("manager") or event.attr("interface") or "-")
    elif topic is Topic.IO:
        daemon = str(event.attr("channel", "-"))
    elif topic is Topic.FAULT:
        daemon = "injector"
    else:  # pragma: no cover - new topics default to unattributed
        daemon = "-"
    return daemon, str(event.attr("scope", "-")), event.attr("job")


class SimTimeProfiler:
    """Attributes simulated time and event counts to (daemon, phase, scope).

    An ordinary bus subscriber (built on ``None``, its owner calls
    :meth:`step`); attach before the run, read :meth:`snapshot` after.  Determinism: both maps iterate in sorted
    key order at snapshot time, and the running state (current phase
    per job, last-event triple) depends only on the event stream.
    """

    def __init__(self, bus: TelemetryBus | None):
        #: (daemon, phase, scope) -> event count
        self.counts: dict[tuple[str, str, str], int] = {}
        #: (daemon, phase, scope) -> attributed simulated seconds
        self.sim_time: dict[tuple[str, str, str], float] = {}
        self.total_events = 0
        self.last_time = 0.0
        #: seconds attributed in timelines that have ended
        self.closed = 0.0
        self._started = 0.0
        self._last_triple = _TRIPLE_NONE
        #: job_id -> current lifecycle phase name
        self._job_phase: dict[Any, str] = {}
        if bus is not None:  # else its owner calls step (an export session's fold)
            self._derived = PerTriple(_derive_attribution)
            self._unsubscribe = bus.subscribe(self.on_event)

    def detach(self) -> None:
        """Stop listening; accumulated attribution remains readable."""
        self._unsubscribe()

    # -- the subscriber -------------------------------------------------
    def on_event(self, event: TelemetryEvent) -> None:
        """Charge one event (and the interval before it) to its triple."""
        self.step(event.time, event.topic, event.name, *self._derived(event))

    def step(self, time: float, topic: Topic, name: str, daemon: str, scope: str, job: Any) -> None:
        """:meth:`on_event` with the event's ``(daemon, scope, job)`` derived."""
        # Phase: follow the job lifecycle; terminal events close out the
        # phase that produced them, every other transition opens one.
        phase = "-"
        if job is not None:
            if topic is Topic.JOB:
                opened = JOB_PHASES.get(name)
                if opened is not None:
                    self._job_phase[job] = opened
                if name in TERMINAL_JOB_EVENTS:
                    phase = self._job_phase.pop(job, "-")
                else:
                    phase = self._job_phase.get(job, "-")
            else:
                phase = self._job_phase.get(job, "-")
        triple = (daemon, phase, scope)
        self.counts[triple] = self.counts.get(triple, 0) + 1
        self.total_events += 1
        dt = time - self.last_time
        if dt > 0:
            last = self._last_triple
            self.sim_time[last] = self.sim_time.get(last, 0.0) + dt
        elif dt < 0:
            self.closed += self.last_time - self._started
            self._started = time
        self.last_time = time
        self._last_triple = triple

    def attributed(self) -> float:
        """Seconds charged to triples: every timeline's span, summed."""
        return self.closed + (self.last_time - self._started)

    def merge(self, other: SimTimeProfiler) -> None:
        """Add *other*'s attribution (another run's) to this one's."""
        for triple, n in other.counts.items():
            self.counts[triple] = self.counts.get(triple, 0) + n
        for triple, seconds in other.sim_time.items():
            self.sim_time[triple] = self.sim_time.get(triple, 0.0) + seconds
        self.total_events += other.total_events
        self.closed += other.attributed()

    def __getstate__(self) -> dict:
        """What crosses a process boundary: the attribution, not the subscription."""
        return {k: v for k, v in vars(self).items() if k not in ("_derived", "_unsubscribe")}

    # -- reads ----------------------------------------------------------
    def snapshot(self) -> dict:
        """All triples, heaviest simulated time first (ties by key)."""
        keys = set(self.counts) | set(self.sim_time)
        triples = [
            {
                "daemon": d,
                "phase": p,
                "scope": s,
                "events": self.counts.get((d, p, s), 0),
                "sim_time": self.sim_time.get((d, p, s), 0.0),
            }
            for (d, p, s) in sorted(keys)
        ]
        triples.sort(key=lambda r: (-r["sim_time"], r["daemon"], r["phase"], r["scope"]))
        return {
            "events": self.total_events,
            "sim_time": self.attributed(),
            "triples": triples,
        }

    def section(self) -> dict:
        """What a campaign cell record keeps: the totals
        plus the :data:`SECTION_TOP_N` heaviest triples."""
        snapshot = self.snapshot()
        return {
            "events": snapshot["events"],
            "sim_time": snapshot["sim_time"],
            "top": snapshot["triples"][:SECTION_TOP_N],
        }


# -- critical-path analysis over the span set ---------------------------
def _duration(span: Span) -> float:
    return span.duration or 0.0


def _closed_jobs(spans: list[Span]) -> list[tuple[Span, list[Span]]]:
    """Each closed job root with its closed phases, in span order."""
    children = children_of(spans)
    return [
        (root, [phase for phase in children.get(root.span_id, ()) if phase.end is not None])
        for root in spans
        if root.kind == "job" and root.end is not None
    ]


def critical_path(spans: list[Span]) -> dict:
    """Which phase dominates each job, and which job carries the run.

    Returns a dict with the run ``makespan`` (latest job-span end), the
    ``critical_job`` (the job whose journey ends last; ties break to the
    earliest span id, i.e. submission order), its phase-by-phase
    ``path``, the ``slowest_error_journey``, and a per-job table of
    dominant phases.  Open (never-closed) spans are excluded; all
    quantities are simulated seconds, so the result is deterministic.
    """
    jobs = _closed_jobs(spans)
    per_job = []
    for root, phases in jobs:
        dominant = max(phases, key=_duration, default=None)
        makespan = _duration(root)
        per_job.append(
            {
                "job": root.name,
                "start": root.start,
                "end": root.end,
                "makespan": makespan,
                "status": root.status,
                "dominant_phase": None if dominant is None else dominant.name,
                "dominant_time": 0.0 if dominant is None else _duration(dominant),
                "dominant_share": (
                    0.0 if dominant is None or makespan <= 0 else _duration(dominant) / makespan
                ),
            }
        )
    # max() keeps the first of equal ends: the earliest span id
    critical, path = max(jobs, key=lambda job: job[0].end, default=(None, []))
    path = [
        {
            "phase": phase.name,
            "start": phase.start,
            "end": phase.end,
            "duration": phase.duration,
            "site": phase.attrs.get("site"),
            "status": phase.status,
        }
        for phase in path
    ]
    journeys = [s for s in spans if s.kind == "error" and s.end is not None]
    slowest = max(journeys, key=_duration, default=None)
    return {
        "makespan": 0.0 if critical is None else critical.end,
        "critical_job": None if critical is None else critical.name,
        "path": path,
        "jobs": per_job,
        "error_journeys": len(journeys),
        "slowest_error_journey": (
            None
            if slowest is None
            else {
                "error": slowest.name,
                "status": slowest.status,
                "duration": slowest.duration,
                "scope": slowest.attrs.get("scope"),
            }
        ),
    }


def folded_stacks(spans: list[Span]) -> list[str]:
    """Folded-stack lines (``job:N;phase weight``) for flamegraph tools.

    Weights are *simulated* microseconds (integers -- what ``flamegraph.pl``
    and speedscope expect).  Each closed job phase contributes one frame
    under its job root; residual root time (makespan not covered by any
    phase) stays on the root frame.  Lines are sorted, so the export is
    canonical for a given span set.
    """
    weights: dict[str, float] = {}
    for root, phases in _closed_jobs(spans):
        covered = 0.0
        for phase in phases:
            duration = _duration(phase)
            key = f"{root.name};{phase.name}"
            weights[key] = weights.get(key, 0.0) + duration
            covered += duration
        residual = _duration(root) - covered
        if residual > 1e-12:
            weights[root.name] = weights.get(root.name, 0.0) + residual
    return [
        f"{frame} {int(round(seconds * 1_000_000))}" for frame, seconds in sorted(weights.items())
    ]


# -- wall-time perf counters --------------------------------------------
class WallCounters:
    """Named wall-clock counters: calls, total, min, max (nanoseconds).

    Hot sites call :meth:`add` with a ``perf_counter_ns`` delta.  The
    snapshot converts to seconds.  Wall numbers are measurement, not
    contract: exports put them under a ``wall`` key which
    ``repro.obs.canonical.strip_wall`` drops before byte-identity checks.
    """

    __slots__ = ("counters",)

    def __init__(self) -> None:
        #: name -> [calls, total_ns, min_ns, max_ns]
        self.counters: dict[str, list] = {}

    def add(self, name: str, ns: int) -> None:
        """Record one timed call of *ns* nanoseconds under *name*."""
        entry = self.counters.get(name)
        if entry is None:
            self.counters[name] = [1, ns, ns, ns]
            return
        entry[0] += 1
        entry[1] += ns
        if ns < entry[2]:
            entry[2] = ns
        if ns > entry[3]:
            entry[3] = ns

    def snapshot(self) -> dict:
        """name -> {calls, total/mean/min/max seconds}, sorted by name."""
        return {
            name: {
                "calls": calls,
                "total_seconds": total / 1e9,
                "mean_seconds": total / calls / 1e9,
                "min_seconds": lo / 1e9,
                "max_seconds": hi / 1e9,
            }
            for name, (calls, total, lo, hi) in sorted(self.counters.items())
        }

    def merge(self, other: WallCounters) -> None:
        """Add *other*'s calls (another process's) to these counters."""
        for name, (calls, total, lo, hi) in other.counters.items():
            mine = self.counters.setdefault(name, [0, 0, lo, hi])
            mine[:] = mine[0] + calls, mine[1] + total, min(mine[2], lo), max(mine[3], hi)

    def __len__(self) -> int:
        return len(self.counters)


#: Modules carrying a ``WALL_PROFILE`` hook (imported lazily on install
#: so this module never drags the whole stack in at import time).
_WALL_SITES = (
    "repro.sim.engine",
    "repro.condor.classads.ad",
    "repro.condor.classads.parser",
    "repro.chirp.proxy",
    "repro.remoteio.server",
)
#: Hooked only if already loaded: the service stack is not imported for a
#: run that never serves.  Its module reads :func:`installed_wall` when it
#: is imported later.
_EDGE_WALL_SITES = ("repro.service.server",)

_installed_wall: WallCounters | None = None

_GC_COUNTERS = ("gc.gen0", "gc.gen1", "gc.gen2")
_gc_started_ns = 0


def _on_gc(phase: str, info: dict) -> None:
    """``gc.callbacks`` hook: one wall counter per collected generation."""
    global _gc_started_ns
    if phase == "start":
        _gc_started_ns = perf_counter_ns()
    elif _installed_wall is not None:
        _installed_wall.add(_GC_COUNTERS[info["generation"]], perf_counter_ns() - _gc_started_ns)


def install_wall(counters: WallCounters | None) -> WallCounters | None:
    """Point every instrumented module's ``WALL_PROFILE`` at *counters*,
    and the collector's callbacks at ``gc.gen0`` / ``gc.gen1`` / ``gc.gen2``
    (``None``: every hook back to ``None``, zero cost); return the counters
    it replaces."""
    global _installed_wall
    previous, _installed_wall = _installed_wall, counters
    if counters is None:
        if _on_gc in gc.callbacks:
            gc.callbacks.remove(_on_gc)
    elif _on_gc not in gc.callbacks:
        gc.callbacks.append(_on_gc)
    for modname in _WALL_SITES + _EDGE_WALL_SITES:
        if counters is not None and modname in _WALL_SITES:
            importlib.import_module(modname)
        mod = sys.modules.get(modname)
        if mod is not None:
            mod.WALL_PROFILE = counters
    return previous


def installed_wall() -> WallCounters | None:
    """The currently installed wall counters, if any."""
    return _installed_wall


# -- the assembled report -----------------------------------------------
def profile_report(
    profiler: SimTimeProfiler,
    spans: list[Span],
    wall: WallCounters | None = None,
) -> dict:
    """The schema-versioned profile: sim attribution, critical path,
    folded stacks, and (non-deterministic, strippable) wall counters."""
    return {
        "schema": PROFILE_SCHEMA,
        "sim": profiler.snapshot(),
        "critical_path": critical_path(spans),
        "folded": folded_stacks(spans),
        "wall": None if wall is None else wall.snapshot(),
    }


def render_profile(report: dict) -> str:
    """The operator-facing "where time went" panel for a profile report."""
    from repro.harness.report import Table

    sim = report["sim"]
    total = sim["sim_time"] or 0.0
    table = Table(
        ["daemon", "phase", "scope", "events", "sim time (s)", "share"],
        title=f"where time went (sim t={total:.1f}, {sim['events']} events)",
    )
    for row in sim["triples"][:PANEL_TOP_N]:
        share = 0.0 if total <= 0 else row["sim_time"] / total
        table.add_row(
            [
                row["daemon"],
                row["phase"],
                row["scope"],
                row["events"],
                round(row["sim_time"], 3),
                f"{share:.0%}",
            ]
        )
    if not sim["triples"]:
        table.add_row(["(no events)", "-", "-", 0, 0.0, "-"])
    sections = [table.render()]

    cp = report["critical_path"]
    if cp["critical_job"] is not None:
        lines = [
            f"critical path: {cp['critical_job']} carries the run "
            f"(makespan {cp['makespan']:.1f}s)"
        ]
        for hop in cp["path"]:
            site = f" @ {hop['site']}" if hop.get("site") else ""
            lines.append(
                f"  {hop['phase']:<12} {hop['start']:>8.1f} -> {hop['end']:>8.1f} "
                f"({hop['duration']:.1f}s){site}"
            )
        slow = cp.get("slowest_error_journey")
        if slow is not None:
            lines.append(
                f"slowest error journey: {slow['error']} [{slow['status']}] "
                f"{slow['duration']:.1f}s in scope {slow['scope']}"
            )
        sections.append("\n".join(lines))

    wall = report.get("wall")
    if wall:
        wtable = Table(
            ["hot path", "calls", "total (s)", "mean (us)"],
            title="wall-time counters (not part of the determinism contract)",
        )
        for name, stats in wall.items():
            wtable.add_row(
                [
                    name,
                    stats["calls"],
                    round(stats["total_seconds"], 4),
                    round(stats["mean_seconds"] * 1e6, 2),
                ]
            )
        sections.append(wtable.render())
    return "\n\n".join(sections)
