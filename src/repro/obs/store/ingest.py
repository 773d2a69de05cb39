"""Artifact detection and extraction for the longitudinal results store.

Every one-shot artifact the reproduction emits -- gridbench reports
(``repro-gridbench/1``, the benchmark of record), campaign reports
(``repro-campaign/1``), fuzz reports (``repro-campaign-fuzz/1``),
harness ``--json`` payloads, and the trace / metrics / profile exports
-- is recognised here and reduced to one :class:`Extracted` record per
store run: the wall-stripped canonical payload (the deterministic part,
byte-identical across serial and ``--jobs N`` source runs), plus
relational projections (scalar metrics, campaign cells, violations,
profile sections, error hops by scope) that the query CLI and the
GridConsole web view read without re-parsing payloads.  Each projection
has one owning artifact kind (DESIGN.md §3.6f): ``error_hops`` rows come
from a trace alone, as the ``repro-trace/1`` summary a producer folded
in memory or as the JSONL file, which :func:`parse_text` replays into
that same summary.

Rejection is structured: anything that is not an artifact we know ends
in an :class:`IngestError` carrying a machine-readable ``code``
(``UNREADABLE`` / ``NOT_JSON`` / ``UNRECOGNIZED`` / ``MALFORMED``) and the
offending source name -- never a bare ``KeyError`` from deep inside an
extractor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.boundary import SQLITE_INTS, IngestError
from repro.obs.canonical import strip_wall
from repro.obs.summary import TRACE_SCHEMA, RunSummary

__all__ = [
    "ARTIFACT_SCHEMAS",
    "Extracted",
    "IngestError",
    "extract",
    "extract_all",
    "parse_text",
]

#: artifact schema marker -> the store's ``kind`` for it.
ARTIFACT_SCHEMAS = {
    "repro-gridbench/1": "gridbench",
    "repro-campaign/1": "campaign",
    "repro-campaign-fuzz/1": "fuzz",
    "repro-harness/1": "harness",
    TRACE_SCHEMA: "trace",
    "repro-metrics/1": "metrics",
    "repro-profile/1": "profile",
}


@dataclass
class Extracted:
    """One artifact reduced to store rows; ``payload`` is wall-stripped."""

    kind: str
    artifact_schema: str
    config: dict
    seed: int | None
    payload: Any
    #: (name, label, value, wall?) -- wall rows carry host measurement.
    metrics: list[tuple[str, str, float, bool]] = field(default_factory=list)
    #: (cell, order, completed, held, unfinished, violations, makespan, error)
    cells: list[tuple] = field(default_factory=list)
    #: (cell, principle, subject, description)
    violations: list[tuple] = field(default_factory=list)
    #: (daemon, phase, scope, events, sim_time)
    profile_sections: list[tuple] = field(default_factory=list)
    #: (scope, hops)
    error_hops: list[tuple] = field(default_factory=list)


def _extracted(kind: str, obj: dict, seed: int | None = None, **config) -> Extracted:
    """A fresh record for *obj*: wall-stripped payload, config keyed by kind."""
    schema = next(s for s, k in ARTIFACT_SCHEMAS.items() if k == kind)
    return Extracted(kind, schema, {"kind": kind, **config}, seed, strip_wall(obj))


def _require(obj: dict, key: str, types, source: str, where: str) -> Any:
    value = obj.get(key)
    if not isinstance(value, types):
        raise IngestError(
            "MALFORMED",
            source,
            f"{where} is missing {key!r} (or it has the wrong type)",
        )
    return value


def _sections(triples: list[dict] | None) -> list[tuple]:
    """``profile_sections`` rows from a profile's (daemon, phase, scope) triples."""
    return [
        (
            triple.get("daemon", "?"),
            triple.get("phase", "?"),
            str(triple.get("scope", "?")),
            int(triple.get("events", 0)),
            float(triple.get("sim_time", 0.0)),
        )
        for triple in triples or []
    ]


# -- per-schema extractors ----------------------------------------------
#: gridbench unit -> is the row wall-flagged.  A count is exact; the rest are
#: host costs, where growth is worse, which is what the store's one wall rule
#: reads growth as.  A rate grows when things get better and a ratio or a
#: version has no such direction; those stay in the JSON (DESIGN.md §3.6f).
_ROW_UNITS = {
    "count": False, "s": True, "ms": True, "us": True, "ns": True, "MB": True, "bytes": True,
}


def _extract_gridbench(obj: dict, source: str) -> list[Extracted]:
    """One record per ``runs[i]`` of a ``repro-gridbench/1`` document.

    The payload is the sim side alone -- per workload its ``fingerprint``,
    ``attempted``, ``failed`` and ``checks`` -- and ``diff`` holds the
    fingerprint exact.  The end-to-end medians and per-layer values become
    metric rows labelled by workload; ``host.*`` describes the box, not the
    program, and is left in the file.
    """
    runs = _require(obj, "runs", list, source, "gridbench document")
    if not runs:
        raise IngestError("MALFORMED", source, "gridbench document holds no run")
    records = []
    for i, run in enumerate(runs):
        where = f"gridbench run {i}"
        if not isinstance(run, dict):
            raise IngestError("MALFORMED", source, f"{where} is not a record")
        seed = _require(run, "seed", int, source, where)
        workloads = _require(run, "workloads", dict, source, where)
        sim_side: dict = {}
        metrics = []
        for name, workload in sorted(workloads.items()):
            where = f"gridbench run {i} workload {name!r}"
            if not isinstance(workload, dict):
                raise IngestError("MALFORMED", source, f"{where} is not a record")
            sim_side[name] = {
                "fingerprint": _require(workload, "fingerprint", str, source, where),
                **{key: workload.get(key) for key in ("attempted", "failed", "checks")},
            }
            for section in ("end_to_end", "per_layer"):
                entries = _require(workload, section, dict, source, where)
                for metric, entry in sorted(entries.items()):
                    value = entry.get("value") if isinstance(entry, dict) else None
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        raise IngestError(
                            "MALFORMED", source, f"{where} {metric!r} has no numeric 'value'"
                        )
                    wall = _ROW_UNITS.get(entry.get("unit"))
                    if wall is not None and not metric.startswith("host."):
                        metrics.append((metric, name, float(value), wall))
        smoke = bool(run.get("smoke"))
        record = _extracted(
            "gridbench", {"seed": seed, "smoke": smoke, "workloads": sim_side},
            seed=seed, smoke=smoke, workloads=sorted(sim_side),
        )
        record.metrics = metrics
        records.append(record)
    return records


def _campaign_common(obj: dict, source: str, out: Extracted) -> None:
    """Cells, violations, and totals shared by campaign and fuzz reports."""
    cells = _require(obj, "cells", list, source, f"{out.kind} report")
    totals = _require(obj, "totals", dict, source, f"{out.kind} report")
    for record in cells:
        if not isinstance(record, dict) or "cell" not in record:
            raise IngestError("MALFORMED", source, f"{out.kind} cell without a 'cell' id")
        jobs = record.get("jobs") or {}
        cell_id = record["cell"]
        error = record.get("error")
        if isinstance(error, dict):  # a CellError: the column is text
            error = "{}:{}: {}".format(*(error.get(k, "?") for k in ("stage", "type", "message")))
        out.cells.append((
            cell_id,
            len(record.get("injections") or []),
            int(jobs.get("completed", 0)),
            int(jobs.get("held", 0)),
            int(jobs.get("unfinished", 0)),
            len(record.get("violations") or []),
            record.get("makespan"),
            error,
        ))
        for violation in (record.get("violations") or []):
            out.violations.append((
                cell_id,
                int(violation.get("principle", 0)),
                str(violation.get("subject", "?")),
                str(violation.get("description", "?")),
            ))
        out.profile_sections.extend(_sections((record.get("profile") or {}).get("top")))
    for name in ("cells", "cells_with_violations", "violations", "live_mismatches"):
        if name in totals:
            out.metrics.append((name, "total", float(totals[name]), False))
    for principle, count in (totals.get("by_principle") or {}).items():
        out.metrics.append(("violations", str(principle), float(count), False))


def _extract_campaign(obj: dict, source: str) -> Extracted:
    campaign = _require(obj, "campaign", dict, source, "campaign report")
    out = _extracted("campaign", obj, seed=campaign.get("seed"), campaign=campaign)
    _campaign_common(obj, source, out)
    return out


def _extract_fuzz(obj: dict, source: str) -> Extracted:
    campaign = _require(obj, "campaign", dict, source, "fuzz report")
    fuzz = _require(obj, "fuzz", dict, source, "fuzz report")
    out = _extracted("fuzz", obj, seed=campaign.get("seed"), campaign=campaign, fuzz=fuzz)
    _campaign_common(obj, source, out)
    totals = obj["totals"]
    for name in ("features", "corpus", "distinct_violations", "batches"):
        if name in totals:
            out.metrics.append((name, "total", float(totals[name]), False))
    marks = obj.get("violations") or {}
    for name in ("first_violation_at", "all_principles_at"):
        if marks.get(name) is not None:
            out.metrics.append((name, "total", float(marks[name]), False))
    return out


def _extract_harness(obj: dict, source: str) -> Extracted:
    experiments = _require(obj, "experiments", dict, source, "harness payload")
    out = _extracted("harness", obj, seed=obj.get("seed"), experiments=sorted(experiments))
    for name, data in sorted(experiments.items()):
        if not isinstance(data, dict):
            continue
        for attr, value in sorted(data.items()):
            # scalar numeric result fields become trendable metrics
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out.metrics.append((attr, name, float(value), False))
    return out


def _extract_metrics(obj: dict, source: str) -> Extracted:
    counters = _require(obj, "counters", dict, source, "metrics snapshot")
    histograms = _require(obj, "histograms", dict, source, "metrics snapshot")
    out = _extracted("metrics", obj, series=sorted(counters) + sorted(histograms))
    for series in (counters, obj.get("gauges") or {}):
        for key, value in sorted(series.items()):
            name, label = _split_series_key(key)
            out.metrics.append((name, label, float(value), False))
    for key, hist in sorted(histograms.items()):
        name, label = _split_series_key(key)
        for q in ("p50", "p95", "p99"):
            if isinstance(hist, dict) and hist.get(q) is not None:
                out.metrics.append((f"{name}:{q}", label, float(hist[q]), False))
    return out


def _split_series_key(key: str) -> tuple[str, str]:
    """``error_hops_total{hop=X,scope=Y}`` -> (name, ``hop=X,scope=Y``)."""
    name, brace, labels = key.partition("{")
    return (name, labels.rstrip("}")) if brace else (name, "")


def _extract_profile(obj: dict, source: str) -> Extracted:
    sim = _require(obj, "sim", dict, source, "profile report")
    out = _extracted("profile", obj)
    out.metrics.append(("sim_time", "total", float(sim.get("sim_time") or 0.0), False))
    out.metrics.append(("sim_events", "total", float(sim.get("events") or 0), False))
    out.profile_sections.extend(_sections(sim.get("triples")))
    critical = obj.get("critical_path") or {}
    if critical.get("makespan") is not None:
        out.metrics.append(("makespan", "total", float(critical["makespan"]), False))
    return out


def _extract_trace(obj: dict, source: str) -> Extracted:
    """A ``repro-trace/1`` summary: the only owner of ``error_hops`` rows.

    Full traces are megabytes of already-on-disk evidence; the store
    keeps their *shape* -- event counts by topic and name, span counts,
    and the error hops by scope the console's JOB->...->GRID panel
    plots.
    """
    by_topic, by_event, hops = (
        _require(obj, key, dict, source, "trace summary")
        for key in ("by_topic", "by_event", "error_hops")
    )
    _require(obj, "last_time", (int, float), source, "trace summary")
    counts = [obj.get("events"), obj.get("spans"), *by_topic.values(), *by_event.values(),
              *hops.values()]
    if not all(type(n) is int and n >= 0 for n in counts):
        raise IngestError("MALFORMED", source, "trace summary counts must be non-negative integers")
    out = _extracted("trace", obj)
    for topic, count in sorted(by_topic.items()):
        out.metrics.append(("events", topic, float(count), False))
    out.metrics.append(("spans", "total", float(obj["spans"]), False))
    out.error_hops = sorted(hops.items())
    return out


# -- detection ----------------------------------------------------------
def extract(obj: Any, source: str) -> Extracted:
    """Detect and extract one parsed JSON artifact that is one store run."""
    if not isinstance(obj, dict):
        raise IngestError(
            "UNRECOGNIZED", source, f"top-level JSON is {type(obj).__name__}, not an object"
        )
    if obj.get("format") == "repro-campaign-fuzz/1":
        return _extract_fuzz(obj, source)
    if obj.get("schema") == "repro-profile/1":
        return _extract_profile(obj, source)
    if obj.get("schema") == TRACE_SCHEMA:
        return _extract_trace(obj, source)
    if {"campaign", "cells", "totals"} <= obj.keys():
        return _extract_campaign(obj, source)
    if {"counters", "gauges", "histograms"} <= obj.keys():
        return _extract_metrics(obj, source)
    if {"seed", "experiments"} <= obj.keys():
        return _extract_harness(obj, source)
    known = ", ".join(sorted(ARTIFACT_SCHEMAS))
    raise IngestError(
        "UNRECOGNIZED",
        source,
        f"no artifact schema matches keys {sorted(obj)[:6]}; known schemas: {known}",
    )


def extract_all(obj: Any, source: str) -> list[Extracted]:
    """Every store run one parsed artifact holds: one per seed of a
    gridbench document, one for anything else."""
    if isinstance(obj, dict) and obj.get("schema") == "repro-gridbench/1":
        records = _extract_gridbench(obj, source)
    else:
        records = [extract(obj, source)]
    for record in records:
        if isinstance(record.seed, int) and record.seed not in SQLITE_INTS:
            raise IngestError("MALFORMED", source, f"'seed' {record.seed} is outside "
                              "what a results store holds (-2**63 to 2**63 - 1)")
    return records


def parse_text(text: str, source: str) -> Any:
    """Raw file text as the artifact object behind it: the JSON document,
    or the ``repro-trace/1`` summary a JSONL trace folds to."""
    stripped = text.strip()
    if not stripped:
        raise IngestError("NOT_JSON", source, "file is empty")
    try:
        obj = json.loads(stripped)
    except json.JSONDecodeError:
        pass  # not one JSON document: a JSONL trace, line by line
    else:
        # ... unless that document is itself a trace line: a one-record trace.
        if not (isinstance(obj, dict) and obj.get("kind") in ("event", "span")):
            return obj
    summary = RunSummary()
    for i, line in enumerate(stripped.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            summary.on_record(json.loads(line))
        except json.JSONDecodeError as exc:
            raise IngestError(
                "NOT_JSON", source, f"line {i} is not valid JSON: {exc}"
            ) from None
        except ValueError as exc:
            raise IngestError("MALFORMED", source, f"line {i}: {exc}") from None
    return summary.payload()
