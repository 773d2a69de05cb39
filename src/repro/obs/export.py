"""Exporters: JSONL traces, JSON metric snapshots, and the ambient session.

All output obeys the determinism contract (DESIGN.md §6): records carry
*simulated* time only, and every byte goes through one of the two text
forms of :mod:`repro.obs.canonical` (wall-clock fields stripped, keys
sorted).  Two runs with the same seed therefore produce byte-identical
files -- the property the harness tests assert and the CLI acceptance
check exercises.

:class:`ObservationSession` is the one-stop wiring used by the CLI
flags ``--trace`` / ``--metrics``: it installs an ambient bus (picked up
by every :class:`~repro.condor.pool.Pool` built while it is active),
records the raw event stream, assembles spans, folds the standard
metric series, and writes the files on exit.
"""

from __future__ import annotations

from typing import Any

from repro.obs.bus import (
    TelemetryBus,
    TelemetryEvent,
    clear_ambient,
    install_ambient,
)
from repro.obs.canonical import canonical_json, pretty_json, to_jsonable
from repro.obs.metrics import BusMetricsRecorder, MetricsRegistry
from repro.obs.profile import (
    SimTimeProfiler,
    WallCounters,
    clear_wall,
    install_wall,
    profile_report,
)
from repro.obs.span import Span, SpanBuilder
from repro.obs.summary import RunSummary

__all__ = [
    "ObservationSession",
    "dump_json",
    "event_record",
    "render_metrics",
    "render_trace",
    "span_record",
    "to_jsonable",
]


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def dump_json(path: str, obj: Any) -> None:
    """Write *obj* to *path* as :func:`~repro.obs.canonical.pretty_json`."""
    _write_text(path, pretty_json(obj))


# -- trace records ------------------------------------------------------
def event_record(event: TelemetryEvent) -> dict:
    """The canonical JSON form of one bus event."""
    return {
        "kind": "event",
        "t": event.time,
        "topic": event.topic.value,
        "name": event.name,
        "attrs": {k: to_jsonable(v) for k, v in event.attrs},
    }


def span_record(span: Span) -> dict:
    """The canonical JSON form of one span."""
    return {
        "kind": "span",
        "id": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "span_kind": span.kind,
        "start": span.start,
        "end": span.end,
        "status": span.status,
        "attrs": {k: to_jsonable(v) for k, v in span.attrs.items()},
    }


def render_trace(events: list[TelemetryEvent], spans: list[Span] | None = None) -> str:
    """The JSONL trace body: events in emission order, then spans by id."""
    lines = [canonical_json(event_record(e)) for e in events]
    for span in sorted(spans or [], key=lambda s: s.span_id):
        lines.append(canonical_json(span_record(span)))
    return "\n".join(lines) + ("\n" if lines else "")


def render_metrics(registry: MetricsRegistry) -> str:
    """The canonical JSON form of a metrics snapshot."""
    return pretty_json(registry.snapshot())


# -- the ambient observation session ------------------------------------
class ObservationSession:
    """Collects one run's telemetry and writes the export files on exit.

    Usage::

        with ObservationSession(trace_path="t.jsonl", metrics_path="m.json"):
            run_fig3_scopes(seed=0)

    While the session is active its bus is *ambient*: every Pool built
    inside the block attaches to it.  Sessions do not nest (the last
    installed bus wins), which matches their single CLI entry point.
    """

    def __init__(
        self,
        trace_path: str | None = None,
        metrics_path: str | None = None,
        profile_path: str | None = None,
        profile: bool = False,
    ):
        self.trace_path = trace_path
        self.metrics_path = metrics_path
        self.profile_path = profile_path
        self.profiling = profile or profile_path is not None
        self.bus = TelemetryBus()
        self.events: list[TelemetryEvent] = []
        self.spans = SpanBuilder(self.bus)
        self.recorder = BusMetricsRecorder(self.bus)
        self.registry = self.recorder.registry
        self.profiler = SimTimeProfiler(self.bus)
        #: wall counters exist only while profiling; they are installed
        #: into the hot-path hooks for the session's duration and their
        #: numbers live under a strippable "wall" key in the export.
        self.wall: WallCounters | None = WallCounters() if self.profiling else None
        self.bus.subscribe(self.events.append)

    def __enter__(self) -> "ObservationSession":
        install_ambient(self.bus)
        if self.wall is not None:
            install_wall(self.wall)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        clear_ambient()
        if self.wall is not None:
            clear_wall()
        if exc_type is None:
            self.flush()

    def profile_report(self) -> dict:
        """The schema-versioned profile for the telemetry collected so far."""
        return profile_report(self.profiler, self.spans.spans, self.wall)

    def trace_summary(self) -> dict:
        """The ``repro-trace/1`` summary the store reduces the trace file to,
        folded from the recorded events on demand (no fourth subscriber)."""
        summary = RunSummary()
        for event in self.events:
            summary.on_event(event)
        summary.spans = len(self.spans.spans)
        return summary.payload()

    def flush(self) -> None:
        """Write the trace / metrics / profile files now."""
        if self.trace_path is not None:
            _write_text(self.trace_path, render_trace(self.events, self.spans.spans))
        if self.metrics_path is not None:
            _write_text(self.metrics_path, render_metrics(self.registry))
        if self.profile_path is not None:
            dump_json(self.profile_path, self.profile_report())
