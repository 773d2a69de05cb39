"""Unit tests for the telemetry bus, metrics registry, and console."""

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
