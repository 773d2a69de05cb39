"""``repro.obs``: the deterministic observability subsystem.

    "An error is a piece of information indicating that some component
    has failed" -- and so is every event this package publishes about
    the reproduction itself.

The subsystem has four layers, each usable alone:

- :mod:`repro.obs.bus` -- the typed-topic event bus (stdlib-only; the
  simulation kernel and the management chain feed it by duck typing, so
  instrumentation is zero-cost when nobody subscribes);
- :mod:`repro.obs.span` -- the one journey builder: nested spans
  assembled live from the stream, one per job journey (submit -> match ->
  claim -> execute -> result) and one per error's propagation path, with
  a span per hop;
- :mod:`repro.obs.metrics` -- labeled counter/gauge/histogram series;
- :mod:`repro.obs.canonical` -- the one serialisation rule: the wall-key
  strip set and the two JSON text forms every artifact is written in;
- :mod:`repro.obs.export` -- byte-reproducible JSONL traces and JSON
  snapshots, plus the :class:`~repro.obs.export.ObservationSession`
  behind the CLI's ``--trace`` / ``--metrics`` flags;
- :mod:`repro.obs.profile` -- the deterministic grid profiler:
  sim-time attribution to (daemon, phase, scope) triples, critical-path
  extraction over job spans, folded-stack flamegraph export, and
  wall-time counters for the hot paths (strippable, never part of the
  determinism contract);
- :mod:`repro.obs.summary` -- the one fold of the event stream (traffic,
  error hops by scope, job makespans) every view and the trace ingest share;
- :mod:`repro.obs.console` -- the operator dashboard;
- :mod:`repro.obs.sqlite_store` -- the one SQLite base (WAL policy, schema
  check, ``transaction()``) under the results store and the run store.

Everything is stamped with *simulated* time and excludes wall clock
from exports, per the DESIGN.md §6 determinism contract.
"""

from repro.obs.bus import (
    TelemetryBus,
    TelemetryEvent,
    Topic,
    ambient_bus,
    install_ambient,
)
from repro.obs.console import GridConsole
from repro.obs.export import ObservationSession, dump_json, to_jsonable
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    SimTimeProfiler,
    WallCounters,
    critical_path,
    folded_stacks,
    install_wall,
    profile_report,
    render_profile,
)
from repro.obs.signature import normalize_violation, signature, violation_features
from repro.obs.span import Span, SpanBuilder

__all__ = [
    "GridConsole",
    "MetricsRegistry",
    "ObservationSession",
    "SimTimeProfiler",
    "Span",
    "SpanBuilder",
    "TelemetryBus",
    "TelemetryEvent",
    "Topic",
    "WallCounters",
    "ambient_bus",
    "critical_path",
    "dump_json",
    "folded_stacks",
    "install_ambient",
    "install_wall",
    "normalize_violation",
    "profile_report",
    "render_profile",
    "signature",
    "to_jsonable",
    "violation_features",
]
