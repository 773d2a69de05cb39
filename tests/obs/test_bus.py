"""Unit tests for the telemetry bus, metrics registry, and console."""

import pytest

from repro.core.principles import PrincipleAuditor
from repro.harness.__main__ import run_experiment_record
from repro.obs import bus as bus_mod
from repro.obs.bus import (
    TelemetryBus,
    TelemetryEvent,
    Topic,
    ambient_bus,
    clear_ambient,
    install_ambient,
)
from repro.obs.console import GridConsole
from repro.obs.metrics import BusMetricsRecorder, MetricsRegistry
from repro.obs.span import SpanBuilder


class TestTelemetryBus:
    def test_inactive_bus_is_a_no_op(self):
        bus = TelemetryBus()
        assert not bus.active
        bus.emit(1.0, "job", "submit", job="1.0")
        assert bus.dispatched == 0

    def test_subscribe_delivers_in_order(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(1.0, Topic.JOB, "submit", job="1.0")
        bus.emit(2.0, "error", "discovered", scope="JOB")
        assert [e.name for e in seen] == ["submit", "discovered"]
        assert seen[0].topic is Topic.JOB
        assert seen[1].topic is Topic.ERROR
        assert bus.dispatched == 2

    def test_attrs_sorted_regardless_of_kwarg_order(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(0.0, "io", "op", zebra=1, alpha=2)
        assert seen[0].attrs == (("alpha", 2), ("zebra", 1))
        assert seen[0].attr("zebra") == 1
        assert seen[0].attr("missing", "d") == "d"

    def test_topic_filtered_subscription(self):
        bus = TelemetryBus()
        jobs, everything = [], []
        bus.subscribe(jobs.append, topic=Topic.JOB)
        bus.subscribe(everything.append)
        bus.emit(0.0, "job", "submit", job="1.0")
        bus.emit(0.0, "daemon", "match_made")
        assert [e.name for e in jobs] == ["submit"]
        assert [e.name for e in everything] == ["submit", "match_made"]

    def test_unsubscribe_deactivates(self):
        bus = TelemetryBus()
        unsub = bus.subscribe(lambda e: None)
        assert bus.active
        unsub()
        assert not bus.active
        bus.emit(0.0, "job", "submit")
        assert bus.dispatched == 0

    def test_ambient_install_and_clear(self):
        bus = TelemetryBus()
        install_ambient(bus)
        try:
            assert ambient_bus() is bus
        finally:
            clear_ambient()
        fresh = ambient_bus()
        assert fresh is not bus and not fresh.active

    def test_event_str_is_readable(self):
        event = TelemetryEvent(1.5, Topic.ERROR, "masked", (("scope", "JOB"),))
        assert "t=1.500" in str(event) and "masked" in str(event)


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.counter("ops_total", op="read")
        reg.counter("ops_total", 2, op="read")
        reg.counter("ops_total", op="write")
        reg.gauge("t", 4.5)
        assert reg.counter_value("ops_total", op="read") == 3
        assert reg.counter_value("ops_total", op="write") == 1
        assert reg.counter_value("ops_total", op="stat") == 0
        assert reg.gauge_value("t") == 4.5
        snap = reg.snapshot()
        assert snap["counters"] == {"ops_total{op=read}": 3, "ops_total{op=write}": 1}
        assert snap["gauges"] == {"t": 4.5}

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        for v in (0.005, 0.005, 0.5, 50.0):
            reg.histogram("lat", v, buckets=(0.01, 1.0, 10.0))
        hist = reg.snapshot()["histograms"]["lat"]
        assert hist["count"] == 4
        assert hist["sum"] == 50.51
        assert hist["buckets"] == {
            "le=0.01": 2, "le=1": 3, "le=10": 3, "le=+Inf": 4,
        }

    def test_snapshot_sorted_and_stable(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x", op="b")
        a.counter("x", op="a")
        b.counter("x", op="a")
        b.counter("x", op="b")
        assert a.snapshot() == b.snapshot()
        assert list(a.snapshot()["counters"]) == ["x{op=a}", "x{op=b}"]

    def test_bus_recorder_standard_families(self):
        bus = TelemetryBus()
        recorder = BusMetricsRecorder(bus)
        bus.emit(1.0, "job", "submit", job="1.0")
        bus.emit(2.0, "error", "masked", scope="REMOTE_RESOURCE")
        bus.emit(3.0, "io", "chirp_op", channel="chirp", op="read", bytes=64)
        bus.emit(4.0, "fault", "arm")
        reg = recorder.registry
        assert reg.counter_value("events_total", topic="job") == 1
        assert reg.counter_value("job_events_total", event="submit") == 1
        assert reg.counter_value(
            "error_hops_total", hop="masked", scope="REMOTE_RESOURCE"
        ) == 1
        assert reg.counter_value("io_ops_total", channel="chirp", op="read") == 1
        assert reg.counter_value("fault_events_total", event="arm") == 1
        assert reg.gauge_value("sim_time_seconds") == 4.0


class TestGridConsole:
    def test_render_accumulated_state(self):
        bus = TelemetryBus()
        console = GridConsole(bus)
        bus.emit(0.0, "job", "submit", job="1.0")
        bus.emit(1.0, "job", "execute", job="1.0", site="exec000")
        bus.emit(2.0, "job", "result", job="1.0")
        bus.emit(2.0, "job", "submit", job="1.1")
        bus.emit(3.0, "error", "reported", scope="JOB", manager="schedd")
        text = console.render()
        assert "grid console @ t=3.0" in text
        assert "completed" in text and "idle" in text
        assert "JOB" in text and "recent events:" in text

    def test_render_empty(self):
        console = GridConsole(TelemetryBus())
        assert "(no events)" in console.render()

    def test_detach_stops_updates(self):
        bus = TelemetryBus()
        console = GridConsole(bus)
        console.detach()
        assert not bus.active
        bus.emit(1.0, "job", "submit", job="1.0")
        assert console.summary.counts == {}


class TestTopicScopedObservers:
    """A cell publishes only the topics someone reads (DESIGN §3.6d)."""

    def test_unread_topic_constructs_no_event(self, monkeypatch):
        built = []

        class Counted(TelemetryEvent):
            def __init__(self, time, topic, *rest):
                built.append(topic)
                super().__init__(time, topic, *rest)

        monkeypatch.setattr(bus_mod, "TelemetryEvent", Counted)
        bus = TelemetryBus()
        PrincipleAuditor.live(bus)
        spans = SpanBuilder(bus)
        assert bus.active
        for topic in ("process", Topic.DAEMON, "io", "fault"):
            bus.emit(1.0, topic, "anything", process="p")
        assert bus.dispatched == 0 and built == []
        bus.emit(2.0, "job", "submit", job="1.0")
        bus.emit(3.0, Topic.INTERFACE, "crossing")  # the live auditor's alone
        assert bus.dispatched == 2 and built == [Topic.JOB, Topic.INTERFACE]
        assert [s.name for s in spans.spans] == ["job:1.0", "queued"]

    def test_an_all_topic_subscriber_still_sees_everything(self):
        bus = TelemetryBus()
        PrincipleAuditor.live(bus)
        seen = []
        bus.subscribe(seen.append)
        for topic in Topic:
            bus.emit(0.0, topic.value, "x")
        assert [e.topic for e in seen] == list(Topic)
        assert bus.dispatched == len(Topic)

    def test_unknown_topic_is_still_an_error(self):
        bus = TelemetryBus()
        bus.subscribe(lambda e: None, Topic.JOB)
        with pytest.raises(ValueError):
            bus.emit(0.0, "no-such-topic", "x")

    def test_unsubscribing_twice_is_a_no_op(self):
        bus = TelemetryBus()
        unsub_all = bus.subscribe(lambda e: None)
        unsub_job = bus.subscribe(lambda e: None, Topic.JOB)
        unsub_all()
        unsub_all()
        assert bus.active  # the JOB subscriber is still there
        unsub_job()
        unsub_job()
        assert not bus.active

    def test_detaching_an_observer_twice_is_a_no_op(self):
        bus = TelemetryBus()
        observers = [PrincipleAuditor.live(bus), SpanBuilder(bus), GridConsole(bus),
                     BusMetricsRecorder(bus)]
        for observer in observers + observers:
            observer.detach()
        assert not bus.active
        bus.emit(0.0, "job", "submit", job="1.0")
        assert bus.dispatched == 0

    @staticmethod
    def _all_topics(observer):
        """*observer*'s ``on_<topic>`` handlers behind one all-topic subscriber."""
        def on_event(event):
            handler = getattr(observer, f"on_{event.topic.value}", None)
            if handler is not None:
                handler(event)
        return on_event

    def _observe(self, experiment: str, scoped: bool):
        bus = TelemetryBus()
        auditor, spans = PrincipleAuditor.live(bus), SpanBuilder(bus)
        if not scoped:  # the subscription both had before they named their topics
            auditor.detach()
            spans.detach()
            bus.subscribe(self._all_topics(auditor))
            bus.subscribe(self._all_topics(spans))
        install_ambient(bus)
        try:
            run_experiment_record(experiment, seed=0)
        finally:
            clear_ambient()
        return auditor.timeline, spans.spans, bus.dispatched

    #: ``fig3`` and ``churn`` run scoped and violate nothing; the naive
    #: half of ``naive_vs_scoped`` keeps the verdict comparison honest.
    @pytest.mark.parametrize("experiment, violates", [
        ("fig3", False), ("churn", False), ("naive_vs_scoped", True),
    ])
    def test_scoped_observers_see_what_all_topic_ones_saw(self, experiment, violates):
        verdicts, spans, delivered = self._observe(experiment, scoped=True)
        all_verdicts, all_spans, all_delivered = self._observe(experiment, scoped=False)
        assert verdicts == all_verdicts and bool(verdicts) == violates
        assert spans == all_spans and spans
        assert 0 < delivered < all_delivered
