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
renders each event's trace line as it happens, assembles spans, folds
the standard metric series and the run summary, and completes the files
on exit.  It retains no event.
"""

from __future__ import annotations

import os
from math import isfinite
from typing import IO, Any

from repro.obs.bus import (
    PerTriple,
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
    "reject_unwritable",
    "render_metrics",
    "render_trace",
    "span_record",
    "to_jsonable",
    "unwritable",
]


def _open_text(path: str) -> IO[str]:
    return open(path, "w", encoding="utf-8", newline="\n")


def _temporary(path: str) -> str:
    """The sibling an artifact is written into before it may be named *path*."""
    return f"{path}.tmp"


def _write_text(path: str, text: str) -> None:
    """Write *text* as *path* whole or not at all: into :func:`_temporary`,
    then renamed onto *path*, so a failed write leaves the previous file."""
    tmp = _temporary(path)
    try:
        with _open_text(tmp) as fh:
            fh.write(text)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    os.replace(tmp, path)


def unwritable(path: str) -> str | None:
    """Why no file can be written at *path*, or None when one can.

    Asked before a run starts, so an output the run could not deliver is
    a usage error then and not a traceback after the work is done.
    Nothing is created or truncated by asking.
    """
    if os.path.isdir(path):
        return "is a directory"
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        return f"no such directory: {parent}"
    if not os.access(parent, os.W_OK):  # every artifact is written as a sibling first
        return "permission denied"
    return None


def reject_unwritable(parser, args, *flags: str) -> None:
    """``parser.error`` (exit 2, one line naming the flag and the path) for
    the first of the output *flags* set in *args* that is :func:`unwritable`.
    A ``--results-db`` file is opened now, so one that is no results store
    is its ``StoreOpenError`` before the run, not after it."""
    for flag in flags:
        path = getattr(args, flag[2:].replace("-", "_"))
        if path and (why := unwritable(path)):
            parser.error(f"{flag} {path}: {why}")
    if "--results-db" in flags and args.results_db and os.path.exists(args.results_db):
        from repro.obs.store import ResultsStore

        ResultsStore(args.results_db).close()


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


def _line_parts(event: TelemetryEvent) -> tuple[str, str]:
    """``canonical_json(event_record(event))`` plus its LF, split around
    the value of ``t``: the keys sort ``attrs < kind < name < t < topic``,
    so everything before it and everything after it is a value of the
    event's (topic, name, attrs)."""
    record = event_record(event)
    del record["t"]
    topic = canonical_json(record.pop("topic"))
    return canonical_json(record)[:-1] + ',"t":', f',"topic":{topic}}}\n'


class _TraceSink:
    """Where a session's event lines go, rendered as the events arrive.

    Memory until :meth:`open` points it at a sibling temporary of *path*
    (for good when there is no path).  :meth:`commit` completes that file
    and moves it onto *path*; :meth:`discard` leaves nothing behind -- so
    *path* only ever names a whole trace.
    """

    def __init__(self, path: str | None):
        self.path = path
        self._parts = PerTriple(_line_parts)
        self._text: list[str] = []
        self._fh: IO[str] | None = None
        self._write = self._text.append

    def on_event(self, event: TelemetryEvent) -> None:
        """Render the event's canonical JSONL line, LF included."""
        prefix, suffix = self._parts(event)
        t = event.time
        # repr() is the encoder's own form of a finite float and of nothing
        # else: an int has no ".0", nan/inf are spelled NaN/Infinity.
        self._write(
            prefix + (repr(t) if type(t) is float and isfinite(t) else canonical_json(t)) + suffix
        )

    def text(self) -> str:
        """The lines held in memory (all of them, while nothing is open)."""
        return "".join(self._text)

    def open(self) -> None:
        """Stream to ``<path>.tmp`` from here on, lines already held first."""
        self._fh = _open_text(_temporary(self.path))
        self._fh.writelines(self._text)
        self._text.clear()
        self._write = self._fh.write

    def _close(self) -> None:
        self._write = self._text.append
        self._fh.close()

    def commit(self, tail: str) -> None:
        """Append *tail*, close, and only then let *path* name the file."""
        self._fh.write(tail)
        self._close()
        os.replace(self._fh.name, self.path)

    def discard(self) -> None:
        """Close and remove the temporary: a failed run leaves no trace file."""
        self._close()
        os.unlink(self._fh.name)


def _span_lines(spans: list[Span]) -> str:
    return "".join(
        canonical_json(span_record(span)) + "\n" for span in sorted(spans, key=lambda s: s.span_id)
    )


def render_trace(events: list[TelemetryEvent], spans: list[Span] | None = None) -> str:
    """The JSONL trace body: events in emission order, then spans by id.

    The pure reference over a list of events; a session renders the same
    lines through the same :class:`_TraceSink` as the events happen.
    """
    sink = _TraceSink(None)
    for event in events:
        sink.on_event(event)
    return sink.text() + _span_lines(spans or [])


def render_metrics(registry: MetricsRegistry) -> str:
    """The canonical JSON form of a metrics snapshot."""
    return pretty_json(registry.snapshot())


# -- the ambient observation session ------------------------------------
class ObservationSession:
    """Collects one run's telemetry and completes the export files on exit.

    Usage::

        with ObservationSession(trace_path="t.jsonl", metrics_path="m.json"):
            run_fig3_scopes(seed=0)

    While the session is active its bus is *ambient*: every Pool built
    inside the block attaches to it.  Sessions do not nest (the last
    installed bus wins), which matches their single CLI entry point.

    With a *trace_path*, event lines stream into ``<trace_path>.tmp`` while
    the block runs; a clean exit appends the spans and renames it onto the
    path, a raising block removes it.  Without one the lines stay in
    memory for :meth:`trace_text`.
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
        self.spans = SpanBuilder(self.bus)
        self.recorder = BusMetricsRecorder(self.bus)
        self.registry = self.recorder.registry
        self.profiler = SimTimeProfiler(self.bus)
        #: wall counters exist only while profiling; they are installed
        #: into the hot-path hooks for the session's duration and their
        #: numbers live under a strippable "wall" key in the export.
        self.wall: WallCounters | None = WallCounters() if self.profiling else None
        self._trace = _TraceSink(trace_path)
        self.bus.subscribe(self._trace.on_event)
        self.summary = RunSummary()
        self.bus.subscribe(self.summary.on_event)

    def __enter__(self) -> "ObservationSession":
        if self.trace_path is not None:
            self._trace.open()
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
        elif self.trace_path is not None:
            self._trace.discard()

    def profile_report(self) -> dict:
        """The schema-versioned profile for the telemetry collected so far."""
        return profile_report(self.profiler, self.spans.spans, self.wall)

    def trace_summary(self) -> dict:
        """The ``repro-trace/1`` summary the store reduces the trace file to,
        folded live as the events happened."""
        self.summary.spans = len(self.spans.spans)
        return self.summary.payload()

    def trace_text(self) -> str:
        """The JSONL trace body of a session without a ``trace_path``:
        its event lines so far, then its spans by id."""
        if self.trace_path is not None:
            raise ValueError(f"the trace is streamed to {self.trace_path!r}, not held")
        return self._trace.text() + _span_lines(self.spans.spans)

    def flush(self) -> None:
        """Complete the trace file; write the metrics / profile files."""
        if self.trace_path is not None:
            self._trace.commit(_span_lines(self.spans.spans))
        if self.metrics_path is not None:
            _write_text(self.metrics_path, render_metrics(self.registry))
        if self.profile_path is not None:
            dump_json(self.profile_path, self.profile_report())
