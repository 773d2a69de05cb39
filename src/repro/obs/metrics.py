"""Labeled metric series: counters, gauges, and histograms.

A :class:`MetricsRegistry` holds named series keyed by ``(name, labels)``
in the Prometheus style (``io_ops_total{op=read}``), with three
instrument kinds:

- **counter** -- monotone accumulator (``inc``);
- **gauge** -- last-write-wins sample (``set``);
- **histogram** -- fixed-bucket distribution (``observe``), recording
  count, sum, and cumulative bucket occupancy.

Everything is deterministic: snapshots sort by series key, buckets are
fixed at registration, and no wall-clock ever enters a series
(DESIGN.md §6).  The :class:`BusMetricsRecorder` is the standard bridge
from the telemetry bus: it maintains the event-count families every run
gets for free.
"""

from __future__ import annotations

from bisect import bisect_left
from math import ceil

from repro.obs.bus import TelemetryBus, TelemetryEvent, Topic, memoisable

__all__ = ["BusMetricsRecorder", "MetricsRegistry"]

#: Default histogram buckets: log-spaced, good for seconds and bytes alike.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0,
)

_SeriesKey = tuple[str, tuple[tuple[str, str], ...]]


def _key(name: str, labels: dict[str, object]) -> _SeriesKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_key(key: _SeriesKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class _Histogram:
    """One histogram series: fixed bounds, cumulative counts.

    Exact observations are retained (the reproduction's series are small
    and bounded by the run), so snapshots can report **nearest-rank**
    percentiles: ``pQQ`` is the ``ceil(QQ/100 * count)``-th smallest
    observation -- always an actually-observed value, and deterministic
    for a given seed.  The bench JSON and the console's jobs panel rely
    on ``p50`` / ``p95`` / ``p99``.
    """

    __slots__ = ("bounds", "counts", "count", "total", "values")

    def __init__(self, bounds: tuple[float, ...]):
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self.count = 0
        self.total = 0.0
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        self.values.append(value)

    def percentile(self, q: float) -> float | None:
        """Nearest-rank percentile *q* in [0, 100]; None while empty."""
        if not self.values:
            return None
        ordered = sorted(self.values)
        rank = max(1, ceil(q / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def percentiles(self) -> dict[str, float | None]:
        """The ``p50`` / ``p95`` / ``p99`` triple every report quotes."""
        return {f"p{q}": self.percentile(q) for q in (50, 95, 99)}

    def snapshot(self) -> dict:
        buckets = {}
        cumulative = 0
        for bound, n in zip(self.bounds, self.counts):
            cumulative += n
            buckets[f"le={bound:g}"] = cumulative
        buckets["le=+Inf"] = self.count
        return {"count": self.count, "sum": self.total, **self.percentiles(), "buckets": buckets}


class MetricsRegistry:
    """Labeled counter/gauge/histogram series with deterministic snapshots."""

    def __init__(self) -> None:
        self._counters: dict[_SeriesKey, float] = {}
        self._gauges: dict[_SeriesKey, float] = {}
        self._histograms: dict[_SeriesKey, _Histogram] = {}

    # -- instruments ----------------------------------------------------
    def counter(self, name: str, amount: float = 1.0, **labels) -> None:
        """Add *amount* (default 1) to the counter series."""
        self._add(_key(name, labels), amount)

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set the gauge series to *value*."""
        self._gauges[_key(name, labels)] = value

    def histogram(
        self,
        name: str,
        value: float,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels,
    ) -> None:
        """Observe *value* in the histogram series (*buckets* fix on first use)."""
        self._observe(_key(name, labels), value, buckets)

    # The same writes by series key, for a caller that built the key once.
    def _add(self, key: _SeriesKey, amount: float) -> None:
        self._counters[key] = self._counters.get(key, 0.0) + amount

    def _observe(
        self, key: _SeriesKey, value: float, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = _Histogram(tuple(buckets))
        hist.observe(value)

    # -- reads ----------------------------------------------------------
    def counter_value(self, name: str, **labels) -> float:
        return self._counters.get(_key(name, labels), 0.0)

    def gauge_value(self, name: str, **labels) -> float | None:
        return self._gauges.get(_key(name, labels))

    def histogram_percentile(self, name: str, q: float, **labels) -> float | None:
        """Nearest-rank percentile of a histogram series (None if absent)."""
        hist = self._histograms.get(_key(name, labels))
        return None if hist is None else hist.percentile(q)

    def histogram_percentiles(self, name: str, **labels) -> dict[str, float] | None:
        """The ``p50`` / ``p95`` / ``p99`` triple of a series (None if absent)."""
        hist = self._histograms.get(_key(name, labels))
        return None if hist is None else hist.percentiles()

    def snapshot(self) -> dict:
        """All series, sorted by rendered key -- stable for a given seed."""
        return {
            "counters": {
                _render_key(k): v for k, v in sorted(self._counters.items())
            },
            "gauges": {_render_key(k): v for k, v in sorted(self._gauges.items())},
            "histograms": {
                _render_key(k): h.snapshot()
                for k, h in sorted(self._histograms.items())
            },
        }

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


class BusMetricsRecorder:
    """Bus subscriber that keeps the standard series families up to date.

    - ``events_total{topic=}`` -- every event;
    - ``job_events_total{event=}`` -- lifecycle steps;
    - ``error_hops_total{hop=,scope=}`` -- management-chain hops;
    - ``interface_crossings_total{interface=,declared=}`` -- errors
      presented at error interfaces;
    - ``io_ops_total{channel=,op=}`` and ``io_bytes`` -- remote I/O;
    - ``fault_events_total{event=}`` -- injector arms/disarms;
    - ``sim_time_seconds`` -- gauge of the latest event's sim time.
    """

    def __init__(self, bus: TelemetryBus, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        #: a series key is built once: the fixed ones here, a labelled
        #: family's on first sight of its label values (:meth:`_count`)
        self._events_total = {
            topic: _key("events_total", {"topic": topic.value}) for topic in Topic
        }
        self._sim_time = _key("sim_time_seconds", {})
        self._io_bytes = _key("io_bytes", {})
        self._keys: dict[tuple, _SeriesKey] = {}
        self._unsubscribe = bus.subscribe(self.on_event)

    def detach(self) -> None:
        """Stop listening; the registry keeps its accumulated series."""
        self._unsubscribe()

    def _count(self, name: str, **labels) -> None:
        """Add one to ``name{labels}``; label values the bus's admission
        rule lets key a memo find their series key already built."""
        if memoisable(labels.items()):
            memo = (name, *labels.values())
            key = self._keys.get(memo)
            if key is None:
                key = self._keys[memo] = _key(name, labels)
        else:
            key = _key(name, labels)
        self.registry._add(key, 1.0)

    def on_event(self, event: TelemetryEvent) -> None:
        """Fold one telemetry event into the standard series."""
        reg, topic = self.registry, event.topic
        reg._add(self._events_total[topic], 1.0)
        reg._gauges[self._sim_time] = event.time
        if topic is Topic.JOB:
            self._count("job_events_total", event=event.name)
        elif topic is Topic.ERROR:
            self._count("error_hops_total", hop=event.name, scope=event.attr("scope", "?"))
        elif topic is Topic.INTERFACE:
            self._count(
                "interface_crossings_total",
                interface=event.attr("interface", "?"),
                declared=event.attr("declared", "?"),
            )
        elif topic is Topic.IO:
            self._count(
                "io_ops_total", channel=event.attr("channel", "?"), op=event.attr("op", "?")
            )
            nbytes = event.attr("bytes")
            if nbytes is not None:
                reg._observe(self._io_bytes, float(nbytes))
        elif topic is Topic.FAULT:
            self._count("fault_events_total", event=event.name)
