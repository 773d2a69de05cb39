"""The one fold of the event stream: what a run's telemetry adds up to.

:class:`RunSummary` derives three facts, here and nowhere else: events
by (topic, name) with the latest simulated time; error hops by scope
(one per ERROR-topic event); and job makespans, each job's first
``submit`` paired with its ``result`` / ``hold``.  A live bus event
(:meth:`~RunSummary.on_event`) and a parsed trace line
(:meth:`~RunSummary.on_record`) go through the same code, so the console,
a campaign cell, the session behind ``--trace`` and a ``trace.jsonl``
ingested later all report the same numbers.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.obs.bus import TelemetryEvent
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import TERMINAL_JOB_EVENTS

__all__ = ["TRACE_SCHEMA", "RunSummary"]

TRACE_SCHEMA = "repro-trace/1"


class RunSummary:
    """Accumulates one run's event stream; every view reads it."""

    def __init__(self) -> None:
        #: (topic, event name) -> events seen
        self.counts: dict[tuple[str, str], int] = {}
        #: scope -> management-chain hops (ERROR-topic events) seen
        self.error_hops: dict[str, int] = {}
        #: submit -> result/hold seconds, in completion order
        self.makespans: list[float] = []
        self.spans = 0
        self.last_time = 0.0
        self._submitted: dict[Any, float] = {}

    # -- folding --------------------------------------------------------
    def on_event(self, event: TelemetryEvent) -> None:
        """Fold one live bus event."""
        self._fold(event.time, event.topic.value, event.name, event.attr)

    def on_record(self, record: Any) -> None:
        """Fold one parsed trace line; outside input, so a bad one is a ValueError."""
        try:
            if record["kind"] == "span":
                self.spans += 1
            elif record["kind"] == "event":
                self._fold(
                    float(record.get("t") or 0.0),
                    str(record.get("topic", "?")),
                    str(record.get("name", "?")),
                    (record.get("attrs") or {}).get,
                )
            else:
                raise ValueError("neither event nor span")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad trace line ({exc!r}): {record!r}") from None

    def _fold(self, time: float, topic: str, name: str, attr: Callable[..., Any]) -> None:
        key = (topic, name)
        self.counts[key] = self.counts.get(key, 0) + 1
        if time > self.last_time:
            self.last_time = time
        if topic == "job":
            if name == "submit":
                job = attr("job")
                if job is not None:
                    self._submitted.setdefault(job, time)
            elif name in TERMINAL_JOB_EVENTS:
                job = attr("job")
                submitted = None if job is None else self._submitted.pop(job, None)
                if submitted is not None:
                    self.makespans.append(time - submitted)
        elif topic == "error":
            scope = str(attr("scope", "?"))
            self.error_hops[scope] = self.error_hops.get(scope, 0) + 1

    # -- views ----------------------------------------------------------
    def count_named(self, name: str) -> int:
        """Events called *name*, whatever their topic."""
        return sum(n for (_, event), n in self.counts.items() if event == name)

    def makespan_percentiles(self) -> dict[str, float] | None:
        """``p50`` / ``p95`` / ``p99`` of the makespans; None while empty."""
        registry = MetricsRegistry()
        for seconds in self.makespans:
            registry.histogram("job_makespan_seconds", seconds)
        return registry.histogram_percentiles("job_makespan_seconds")

    def makespan_footer(self) -> str | None:
        """The jobs-panel footer every summary quotes; None while empty."""
        triple = self.makespan_percentiles()
        if triple is None:
            return None
        return "makespan p50={p50:.1f}s p95={p95:.1f}s p99={p99:.1f}s".format(**triple)

    def payload(self) -> dict:
        """The ``repro-trace/1`` summary the results store keeps for a trace."""
        by_topic: dict[str, int] = {}
        for (topic, _), count in self.counts.items():
            by_topic[topic] = by_topic.get(topic, 0) + count
        return {
            "schema": TRACE_SCHEMA,
            "events": sum(by_topic.values()),
            "spans": self.spans,
            "last_time": float(self.last_time),
            "by_topic": dict(sorted(by_topic.items())),
            "by_event": {f"{t}:{name}": n for (t, name), n in sorted(self.counts.items())},
            "error_hops": dict(sorted(self.error_hops.items())),
        }
