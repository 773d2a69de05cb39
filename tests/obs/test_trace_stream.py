"""The streamed trace and the memoising observers against their references.

The session renders a trace line when its event happens -- prefix and
suffix once per distinct (topic, name, attrs), the time stamp per event
-- and the recorder and profiler derive their keys once per triple too
(DESIGN §3.6d).  The reference for every one of them is the per-event
code path they replaced, kept here: ``canonical_json(event_record(e))``
for a line, a ``registry.counter(...)`` call per event for the metrics,
three ``event.attr()`` scans per event for an attribution.  Same bytes,
on the shapes a memo keyed by value would get wrong as well.
"""

import enum
import json

import pytest

from repro.condor.pool import Pool, PoolConfig
from repro.harness.__main__ import EXPERIMENTS, run_experiment_record
from repro.obs.bus import TelemetryBus, TelemetryEvent, Topic, ambient_bus
from repro.obs.canonical import canonical_json, strip_wall
from repro.obs.export import (
    ObservationSession,
    event_record,
    render_metrics,
    render_trace,
    span_record,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    _DAEMON_OF_EVENT,
    SimTimeProfiler,
    _process_daemon,
    installed_wall,
    profile_report,
)


def _reference_trace(events, spans) -> str:
    """The trace as it was rendered before lines were split: one whole
    ``canonical_json`` call per event, then per span by id."""
    lines = [canonical_json(event_record(e)) for e in events]
    lines += [canonical_json(span_record(s)) for s in sorted(spans, key=lambda s: s.span_id)]
    return "".join(line + "\n" for line in lines)


# -- every experiment, both sinks ---------------------------------------
@pytest.fixture(scope="module")
def all_experiments(tmp_path_factory):
    """``all --seed 7`` under one session streaming to a file, each
    event's fields copied out by hand as it passes."""
    path = tmp_path_factory.mktemp("stream") / "trace.jsonl"
    session = ObservationSession(trace_path=str(path))
    fields = []
    session.bus.subscribe(lambda e: fields.append((e.time, e.topic.value, e.name, e.attrs)))
    with session:
        for name in sorted(EXPERIMENTS):
            run_experiment_record(name, seed=7)
    events = [TelemetryEvent(t, Topic(topic), name, attrs) for t, topic, name, attrs in fields]
    return path, session, events


class TestStreamedTextIsTheRenderedText:
    def test_the_file_sink_wrote_the_reference_bytes(self, all_experiments):
        path, session, events = all_experiments
        streamed = path.read_text(encoding="utf-8")
        assert len(events) > 30_000 and len(session.spans.spans) > 3_000
        assert streamed == _reference_trace(events, session.spans.spans)
        assert streamed == render_trace(events, session.spans.spans)

    def test_the_memory_sink_holds_the_same_text(self, all_experiments):
        """The same events through a session without a path: its spans are
        rebuilt from them, so the whole text must come out equal."""
        path, _, events = all_experiments
        memory = ObservationSession()
        for event in events:
            memory.bus.emit(event.time, event.topic, event.name, **dict(event.attrs))
        assert memory.trace_text() == path.read_text(encoding="utf-8")
        assert memory.trace_summary()["events"] == len(events)

    def test_only_the_final_file_is_left(self, all_experiments):
        path, session, _ = all_experiments
        assert [p.name for p in path.parent.iterdir()] == ["trace.jsonl"]
        with pytest.raises(ValueError, match="streamed"):
            session.trace_text()  # a session with a path holds no text


# -- shapes a memo keyed by value would conflate ------------------------
class _Colour(enum.Enum):
    RED = "red"


class _Level(enum.IntEnum):
    HIGH = 3


class _Moody:
    """An object whose ``str()`` differs every time it is asked."""

    def __init__(self):
        self.asked = 0

    def __str__(self):
        self.asked += 1
        return f"mood-{self.asked}"


ADVERSARIAL_VALUES = [
    1, True, 1.0, 0, False, 0.0, -0.0, None, "1", "True", _Colour.RED, _Level.HIGH,
    b"\x01", [1, True], (1.0,), {"k": 1}, float("nan"),
]
ADVERSARIAL_TIMES = [0, 1, 1.0, True, float("nan"), float("inf"), float("-inf"),
                     1e22, 5e-324, -0.0, 10**20, 0.1 + 0.2]


class TestAdversarialShapes:
    """``1 == True == 1.0`` and ``0.0 == -0.0`` hash alike and render
    differently; each line must still be its own event's."""

    def _emit_all(self, bus):
        moody = _Moody()
        for _ in range(2):  # second pass: whatever was memoised is now served
            for value in (*ADVERSARIAL_VALUES, moody):
                bus.emit(2.5, "io", "op", x=value, channel="c")
            for t in ADVERSARIAL_TIMES:
                bus.emit(t, "daemon", "tick", n=1)
                bus.emit(t, "daemon", "tick", n=True)

    def test_each_streamed_line_is_its_events_canonical_record(self):
        session = ObservationSession()
        expected = []
        # Rendered on arrival, like the sink does: _Moody answers differently later.
        session.bus.subscribe(lambda e: expected.append(canonical_json(event_record(e))))
        self._emit_all(session.bus)
        lines = session.trace_text().splitlines()
        assert len(lines) == len(expected) == 2 * (len(ADVERSARIAL_VALUES) + 1
                                                   + 2 * len(ADVERSARIAL_TIMES))
        moody = [i for i, line in enumerate(expected) if "mood-" in line]
        assert len(moody) == 2
        for i, (line, reference) in enumerate(zip(lines, expected)):
            if i not in moody:
                assert line == reference
        # Each event's str() was asked once by the sink and once here: four
        # different answers, so neither line was served from the other's.
        answers = [json.loads(text[i])["attrs"]["x"] for text in (lines, expected) for i in moody]
        assert sorted(answers) == ["mood-1", "mood-2", "mood-3", "mood-4"]

    def test_the_forms_that_hash_alike_stay_apart(self):
        seen = []
        bus = TelemetryBus()
        bus.subscribe(seen.append)
        self._emit_all(bus)
        stable = [e for e in seen if not isinstance(e.attr("x"), _Moody)]
        text = render_trace(stable)
        assert text == _reference_trace(stable, [])
        for form in ('"x":1}', '"x":true}', '"x":1.0}', '"x":0}', '"x":false}', '"x":0.0}',
                     '"x":-0.0}', '"x":null}', '"x":"1"}', '"x":"True"}', '"x":NaN}',
                     '"n":1}', '"n":true}', '"t":0,', '"t":1,', '"t":1.0,', '"t":true',
                     '"t":NaN', '"t":Infinity', '"t":-Infinity', '"t":1e+22', '"t":5e-324',
                     '"t":-0.0', '"t":100000000000000000000,', '"t":0.30000000000000004'):
            assert form in text, form

    def test_metrics_label_by_type_not_by_hash(self):
        """``declared=1`` and ``declared=True`` are two series."""
        session = ObservationSession()
        for declared in (1, True, 1, True, "1"):
            session.bus.emit(0.0, "interface", "crossing", interface="i", declared=declared)
        counters = session.registry.snapshot()["counters"]
        assert counters["interface_crossings_total{declared=1,interface=i}"] == 3.0
        assert counters["interface_crossings_total{declared=True,interface=i}"] == 2.0


# -- metrics and profile against the per-event code path ----------------
class _PerEventRecorder:
    """``BusMetricsRecorder.on_event`` as it was: two ``_key`` builds per
    event through the registry's public methods."""

    def __init__(self, bus):
        self.registry = MetricsRegistry()
        bus.subscribe(self.on_event)

    def on_event(self, event):
        reg = self.registry
        reg.counter("events_total", topic=event.topic.value)
        reg.gauge("sim_time_seconds", event.time)
        if event.topic is Topic.JOB:
            reg.counter("job_events_total", event=event.name)
        elif event.topic is Topic.ERROR:
            reg.counter("error_hops_total", hop=event.name, scope=event.attr("scope", "?"))
        elif event.topic is Topic.INTERFACE:
            reg.counter(
                "interface_crossings_total",
                interface=event.attr("interface", "?"),
                declared=event.attr("declared", "?"),
            )
        elif event.topic is Topic.IO:
            reg.counter("io_ops_total", channel=event.attr("channel", "?"),
                        op=event.attr("op", "?"))
            nbytes = event.attr("bytes")
            if nbytes is not None:
                reg.histogram("io_bytes", float(nbytes))
        elif event.topic is Topic.FAULT:
            reg.counter("fault_events_total", event=event.name)


class _PerEventProfiler(SimTimeProfiler):
    """``SimTimeProfiler._attribute`` as it was: every dimension re-read
    from the event's attributes on every event."""

    def _attribute(self, event):
        topic, name = event.topic, event.name
        phase = "-"
        job = event.attr("job")
        if job is not None:
            if topic is Topic.JOB:
                if name == "submit":
                    self._job_phase[job] = "queued"
                elif name == "match":
                    self._job_phase[job] = "claim"
                elif name in ("claim_failed", "site_failed"):
                    self._job_phase[job] = "queued"
                elif name == "execute":
                    self._job_phase[job] = "attempt"
                phase = self._job_phase.get(job, "-")
                if name in ("result", "hold"):
                    phase = self._job_phase.pop(job, phase)
            else:
                phase = self._job_phase.get(job, "-")
        if topic is Topic.DAEMON:
            daemon = _DAEMON_OF_EVENT.get(name, "daemon")
        elif topic is Topic.JOB:
            daemon = "schedd"
        elif topic is Topic.PROCESS:
            daemon = _process_daemon(str(event.attr("process", "-")))
        elif topic in (Topic.ERROR, Topic.INTERFACE):
            daemon = str(event.attr("manager") or event.attr("interface") or "-")
        elif topic is Topic.IO:
            daemon = str(event.attr("channel", "-"))
        elif topic is Topic.FAULT:
            daemon = "injector"
        else:
            daemon = "-"
        return (daemon, phase, str(event.attr("scope", "-")))


@pytest.mark.parametrize("experiment", ["fig3", "churn", "naive_vs_scoped"])
def test_metrics_and_profile_equal_the_per_event_reference(experiment):
    session = ObservationSession(profile=True)
    recorder = _PerEventRecorder(session.bus)
    profiler = _PerEventProfiler(session.bus)
    with session:
        run_experiment_record(experiment, seed=7)
    assert render_metrics(session.registry) == render_metrics(recorder.registry)
    assert len(session.registry) > 10
    reference = profile_report(profiler, session.spans.spans)
    assert strip_wall(session.profile_report()) == strip_wall(reference)
    assert session.profiler.total_events == session.bus.dispatched > 0


# -- P1: a failed run leaves no truncated artifact ----------------------
class TestAFailedRunLeavesNoArtifact:
    def test_a_raising_block_leaves_neither_file_nor_temporary(self, tmp_path):
        trace, metrics = tmp_path / "trace.jsonl", tmp_path / "metrics.json"
        session = ObservationSession(trace_path=str(trace), metrics_path=str(metrics),
                                     profile=True)
        with pytest.raises(RuntimeError, match="mid-run"):
            with session:
                run_experiment_record("fig1", seed=3)  # publishes events, then:
                assert session.bus.dispatched > 100
                raise RuntimeError("mid-run")
        assert list(tmp_path.iterdir()) == []
        # ...and the ambient bus and the wall hooks are cleared all the same.
        assert ambient_bus() is not session.bus
        assert installed_wall() is None
        assert not Pool(PoolConfig(n_machines=1, seed=0)).bus.active

    def test_the_path_names_nothing_until_the_trace_is_whole(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("the previous run's trace\n")
        with ObservationSession(trace_path=str(trace)) as session:
            run_experiment_record("fig1", seed=3)
            assert session.bus.dispatched > 100
            assert trace.read_text() == "the previous run's trace\n"
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]
        lines = trace.read_text().splitlines()
        assert len(lines) == session.bus.dispatched + len(session.spans.spans)

    @pytest.mark.parametrize("artifact", ["dump_json", "metrics"])
    def test_a_write_that_raises_midway_leaves_the_previous_file(
        self, tmp_path, monkeypatch, artifact
    ):
        """``--json``, ``--metrics``, ``--profile`` and ``--checkpoint`` used
        to truncate their target in place: a failed write read as complete."""
        import repro.obs.export as export

        path = tmp_path / "out.json"
        path.write_text("the previous run's file\n")
        real_open = export._open_text

        class DiskFull:
            def __init__(self, name):
                self._fh = real_open(name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

            def write(self, text):
                self._fh.write(text[: len(text) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(export, "_open_text", DiskFull)
        with pytest.raises(OSError, match="No space left"):
            if artifact == "dump_json":
                export.dump_json(str(path), {"cells": list(range(100))})
            else:
                with ObservationSession(metrics_path=str(path)):
                    run_experiment_record("fig1", seed=3)
        assert path.read_text() == "the previous run's file\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
