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
on exit.  It retains no event.  A run it folds (:meth:`~ObservationSession.fold`)
has observers of its own, in a worker process too, merged in afterwards.
"""

from __future__ import annotations

import os
import shutil
from collections import namedtuple
from collections.abc import Callable
from json.encoder import encode_basestring_ascii as _string
from math import isfinite
from typing import IO, Any

from repro.obs.bus import PerTriple, TelemetryBus, TelemetryEvent, Topic, install_ambient
from repro.obs.canonical import canonical_json, pretty_json, to_jsonable
from repro.obs.metrics import MetricsRegistry, add_standard_series
from repro.obs.profile import (
    SimTimeProfiler,
    WallCounters,
    _derive_attribution,
    install_wall,
    profile_report,
)
from repro.obs.span import Span, SpanBuilder
from repro.obs.summary import RunSummary

__all__ = [
    "Fold",
    "ObservationSession",
    "dump_json",
    "event_record",
    "observing",
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


def _plain(record: dict) -> str | None:
    """``canonical_json(record)`` when every key is a ``str`` and every value
    a ``str``, ``int``, ``bool``, ``None`` or finite ``float``."""
    members = []
    for key, value in sorted(record.items()):
        kind = type(value)
        if kind is str:
            text = _string(value)
        elif kind is int or kind is float and isfinite(value):
            text = repr(value)  # the encoder's own form of both
        elif kind is bool or value is None:
            text = _LITERALS[value]
        else:
            return None
        if type(key) is not str:
            return None
        members.append(f"{_string(key)}:{text}")
    return "{" + ",".join(members) + "}"


_LITERALS = {None: "null", True: "true", False: "false"}


def _stamp(t: Any) -> str:
    # repr() is the encoder's form of a finite float only (an int has no ".0", nan is NaN)
    return repr(t) if type(t) is float and isfinite(t) else canonical_json(t)


def _line_parts(event: TelemetryEvent) -> tuple[str, str]:
    """``canonical_json(event_record(event))`` plus its LF, split around
    the value of ``t``: the keys sort ``attrs < kind < name < t < topic``,
    so everything before it and everything after it is a value of the
    event's (topic, name, attrs).  Encoded by :func:`_plain` when every
    value is plain, else through the record."""
    attrs = _plain(dict(event.attrs))
    if attrs is None or type(event.name) is not str:
        record = event_record(event)
        del record["t"], record["topic"]
        head = canonical_json(record)[:-1]
    else:
        head = f'{{"attrs":{attrs},"kind":"event","name":{_string(event.name)}'
    return head + ',"t":', f',"topic":{_string(event.topic.value)}}}\n'


class _TraceSink:
    """Where a session's event lines go, rendered as the events arrive.

    Memory until :meth:`open` points it at a sibling temporary of *path*
    (for good when there is no path).  :meth:`commit` completes that file
    and moves it onto *path*; :meth:`discard` leaves nothing behind -- so
    *path* only ever names a whole trace.
    """

    def __init__(self, path: str | None):
        self.path = path
        self._text: list[str] = []
        self._fh: IO[str] | None = None
        self.write = self._text.append

    def text(self) -> str:
        """The lines held in memory (all of them, while nothing is open)."""
        return "".join(self._text)

    def open(self) -> None:
        """Stream to ``<path>.tmp`` from here on, lines already held first."""
        self._fh = _open_text(_temporary(self.path))
        self._fh.writelines(self._text)
        self._text.clear()
        self.write = self._fh.write

    def _close(self) -> None:
        self.write = self._text.append
        self._fh.close()

    def commit(self, tail: str) -> None:
        """Append *tail*, close, and only then let *path* name the file."""
        self._fh.write(tail)
        os.replace(self.release(), self.path)

    def discard(self) -> None:
        """Close and remove the temporary: a failed run leaves no trace file."""
        os.unlink(self.release())

    def release(self) -> str:
        """Stop writing: the temporary's name, or the lines when there is none."""
        if self._fh is None:
            return self.text()
        self._close()
        return self._fh.name

    def append(self, part: str) -> None:
        """Add a released sink's lines after these (a part file is removed)."""
        if self.path is None:
            return self.write(part)
        with open(part, encoding="utf-8", newline="") as lines:
            shutil.copyfileobj(lines, self._fh)  # by the block, not by the line
        os.unlink(part)


def _span_lines(spans: list[Span]) -> str:
    return "".join(
        canonical_json(span_record(span)) + "\n" for span in sorted(spans, key=lambda s: s.span_id)
    )


def render_trace(events: list[TelemetryEvent], spans: list[Span] | None = None) -> str:
    """The JSONL trace body: events in emission order, then spans by id.

    The pure reference over a list of events; a session writes the same
    lines, from the same :func:`_line_parts`, as the events happen.
    """
    lines = []
    for event in events:
        prefix, suffix = _line_parts(event)
        lines.append(prefix + _stamp(event.time) + suffix)
    return "".join(lines) + _span_lines(spans or [])


def render_metrics(registry: MetricsRegistry) -> str:
    """The canonical JSON form of a metrics snapshot."""
    return pretty_json(registry.snapshot())


# -- the ambient observation session ------------------------------------
#: One observed run's share of a session (:meth:`ObservationSession.fold`); it
#: pickles, so a worker hands it back.  ``trace``: the part file, or the lines.
Fold = namedtuple("Fold", "trace spans registry profiler summary wall")


_active: ObservationSession | None = None


def observing() -> ObservationSession | None:
    """The session whose ``with`` block is running, if any."""
    return _active


class _SessionFold:
    """A session's one all-topic observer: each event is folded once.

    A triple's record -- its trace line around ``t``, its profiler
    ``(daemon, scope, job)``, its event count -- is derived once, by a
    :class:`~repro.obs.bus.PerTriple` (afresh for an event it cannot keep).
    Per event only what depends on order runs: the trace write, the
    profiler's and the summary's step.  :meth:`settled` adds the rest -- the
    summary's counts, the metric series: a triple's values times its count
    -- and the last event's time."""

    def __init__(self, bus: TelemetryBus, trace: _TraceSink):
        self.trace = trace
        self.registry = MetricsRegistry()
        self.summary = RunSummary()
        self.profiler = SimTimeProfiler(None)
        self._afresh: list[tuple[tuple, list]] = []  # (triple, record) until settled
        self._records = PerTriple(self._record, self._afresh.append)
        bus.subscribe(self.on_event)

    @staticmethod
    def _record(event: TelemetryEvent) -> list:
        return [*_line_parts(event), *_derive_attribution(event), 0]

    def on_event(self, event: TelemetryEvent) -> None:
        record = self._records(event)
        prefix, suffix, daemon, scope, job, _ = record
        record[5] += 1
        t, topic, name = event.time, event.topic, event.name
        self.trace.write(prefix + _stamp(t) + suffix)
        self.profiler.step(t, topic, name, daemon, scope, job)
        self.summary.step(t, name, job if topic is Topic.JOB else None)

    def settled(self) -> _SessionFold:
        """This fold with the events since the last call counted in."""
        pending = [(k, r) for k, r in (*self._records.memo.items(), *self._afresh) if r[5]]
        for (topic, name, attrs), record in pending:
            attr = dict(attrs).get
            add_standard_series(self.registry, topic, name, attr, record[5])
            self.summary.count(topic.value, name, attr, record[5])
            record[5] = 0
        if pending:
            self.registry.gauge("sim_time_seconds", self.profiler.last_time)
        self._afresh.clear()
        return self


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
    path, a raising block removes it and every fold's part file.  Without
    one the lines stay in memory for :meth:`trace_text`.
    """

    def __init__(
        self,
        trace_path: str | None = None,
        metrics_path: str | None = None,
        profile_path: str | None = None,
    ):
        self.trace_path = trace_path
        self.metrics_path = metrics_path
        self.profile_path = profile_path
        self.bus = TelemetryBus()
        self.spans = SpanBuilder(self.bus)
        #: wall counters exist only while profiling; they are installed
        #: into the hot-path hooks for the session's duration and their
        #: numbers live under a strippable "wall" key in the export.
        self.wall: WallCounters | None = WallCounters() if profile_path is not None else None
        self._trace = _TraceSink(trace_path)
        self._fold = _SessionFold(self.bus, self._trace)
        self.profiler = self._fold.profiler

    #: the metric series and the run summary of the events so far
    registry = property(lambda self: self._fold.settled().registry)
    summary = property(lambda self: self._fold.settled().summary)

    def __enter__(self) -> ObservationSession:
        global _active
        if self.trace_path is not None:
            self._trace.open()
        install_ambient(self.bus)
        if self.wall is not None:
            install_wall(self.wall)
        _active = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _active
        _active = None
        install_ambient(None)
        if self.wall is not None:
            install_wall(None)
        if exc_type is None:
            self.flush()
        elif self.trace_path is not None:
            self._trace.discard()
            import glob  # the failure path alone needs it

            for part in glob.glob(glob.escape(self.trace_path) + ".*.tmp"):  # unmerged folds
                os.unlink(part)

    def __reduce__(self):
        """A worker gets the session's paths: a copy that folds runs as this
        one would, and writes nothing of its own."""
        return ObservationSession, (self.trace_path, self.metrics_path, self.profile_path)

    def fold(self, label: str, run: Callable[[], Any]) -> tuple[Any, Fold]:
        """``run()`` on a bus and observers of its own (trace lines streamed
        into ``<trace_path>.<label>.tmp``): its value and its :class:`Fold`."""
        part = ObservationSession(
            self.trace_path and f"{self.trace_path}.{label}", None, self.profile_path
        )
        if part.trace_path is not None:
            part._trace.open()
        outer = install_ambient(part.bus), install_wall(part.wall)
        try:
            value = run()
        except BaseException:
            if part.trace_path is not None:
                part._trace.discard()
            raise
        finally:
            install_ambient(outer[0])
            install_wall(outer[1])
        return value, Fold(part._trace.release(), part.spans.spans, part.registry,
                           part.profiler, part.summary, part.wall)

    def merge(self, fold: Fold) -> None:
        """Add *fold* after everything before it: trace lines appended, span
        ids moved past the spans before, counters and histograms summed."""
        self._trace.append(fold.trace)
        self.spans.merge(fold.spans)
        self.registry.merge(fold.registry)
        self.profiler.merge(fold.profiler)
        self.summary.merge(fold.summary)
        if self.wall is not None:
            self.wall.merge(fold.wall)

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
