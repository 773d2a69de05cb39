"""harness_report: the cold path every researcher walks.

A fresh interpreter runs ``python -m repro.harness all`` with every
export switched on (JSON report, JSONL trace, metrics, profile, results
store), then this process opens the results store the run wrote and asks
it the three questions the console asks (``runs``, ``trend``,
``payload``).  Interpreter start, imports, sixteen experiments (dozens
of small pools), the 5 MB trace export and the store ingest all sit on
the timed path; matchmaker scale and the HTTP service do not.

The harness takes no generated input, only a seed of its own, and its
cost follows that seed (peak RSS 107-125 MB, run time +-8 % over ten
seeds): no bound on a metric could be held across seeds.  So the harness
always runs at ``HARNESS_SEED`` and the benchmark's ``--seed`` does not
reach this workload.
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import sys
from time import perf_counter

from benchmarks.gridbench.layers import CLASSADS, EVERY, REMOTE_IO, SIM, wall_layers

WHY = (
    "cold start to report: imports, 16 experiments, trace/metrics/profile export, "
    "results-store ingest and query; bypasses matchmaker scale and the service"
)

#: Artifacts ``--results-db`` ingests after the harness payload itself.
EXPORTS = ("trace.jsonl", "metrics.json", "profile.json")
FULL_FLAGS = (
    "--json", "report.json", "--trace", "trace.jsonl", "--metrics", "metrics.json",
    "--profile", "profile.json", "--results-db", "results.db",
)
SMOKE_EXPERIMENTS = ("fig2", "fig4")
HARNESS_SEED = 7

CROSSES = (
    *SIM, *CLASSADS, *REMOTE_IO, *EVERY,
    "harness.import_s", "harness.experiments_s", "harness.export_ingest_s",
    "harness.trace_bytes", "harness.report_bytes",
    "obs_store.ingest_s", "obs_store.ingest_rows_per_s", "obs_store.query_ms",
    "obs_store.db_bytes",
)
ZERO_OK = ()
PROBES = ()


def _harness(state: dict, flags: tuple[str, ...], stdout_name: str) -> int:
    names = SMOKE_EXPERIMENTS if state["smoke"] else ("all",)
    cmd = [sys.executable, "-m", "repro.harness", *names, "--seed", str(HARNESS_SEED), *flags]
    with open(os.path.join(state["tmp"], stdout_name), "wb") as out:
        return subprocess.run(cmd, cwd=state["tmp"], stdout=out, check=False).returncode


def setup(seed: int, smoke: bool, rec, tmp: str) -> dict:
    from repro.obs.store import ResultsStore  # importing it is set-up cost

    return {"smoke": smoke, "tmp": tmp, "ResultsStore": ResultsStore}


def run(state: dict, rec) -> None:
    with rec.span("harness.subprocess"):
        state["returncode"] = _harness(state, FULL_FLAGS, "stdout.txt")
    t0 = perf_counter()
    with rec.span("obs_store.open"):
        store = state["ResultsStore"](os.path.join(state["tmp"], "results.db"))
    try:
        with rec.span("obs_store.runs"):
            state["runs"] = store.runs()
        with rec.span("obs_store.trend"):
            # Trend the metric with the most rows (ties: first by name).
            names = store.metric_names()
            state["trend"] = store.trend(max(names, key=lambda nc: nc[1])[0]) if names else {}
        with rec.span("obs_store.payload"):
            state["payload"] = store.payload(state["runs"][0]["run_id"]) if state["runs"] else None
    finally:
        store.close()
    state["query_s"] = perf_counter() - t0


def _timed(fn, *args) -> float:
    t0 = perf_counter()
    fn(*args)
    return perf_counter() - t0


def _traced_layers(state: dict, rec) -> dict:
    """Per-layer numbers that need extra work: re-ingest, two more subprocesses."""
    tmp = state["tmp"]
    db_path = os.path.join(tmp, "reingest.db")
    store = state["ResultsStore"](db_path)
    try:
        ingest_s = 0.0
        for name in ("report.json", *EXPORTS):
            with rec.span("obs_store.ingest_path"):
                ingest_s += _timed(store.ingest_path, os.path.join(tmp, name))
    finally:
        store.close()
    db = sqlite3.connect(db_path)
    try:
        tables = [t for (t,) in db.execute("SELECT name FROM sqlite_master WHERE type='table'")]
        rows = sum(db.execute(f"SELECT COUNT(*) FROM {t}").fetchone()[0] for t in tables)
    finally:
        db.close()
    with rec.span("harness.subprocess_plain"):
        plain_s = _timed(_harness, state, (), "stdout-plain.txt")
    with rec.span("harness.subprocess_import"):
        import_s = _timed(
            subprocess.run, [sys.executable, "-c", "import repro.harness.__main__"]
        )
    with open(os.path.join(tmp, "profile.json"), encoding="utf-8") as fh:
        profile = json.load(fh)
    return {
        "obs_store.ingest_s": ingest_s,
        "obs_store.ingest_rows_per_s": rows / ingest_s,
        "harness.import_s": import_s,
        "harness.experiments_s": plain_s - import_s,
        "harness.export_ingest_s": state["run_s"] - state["query_s"] - plain_s,
        # The harness ran in its own interpreter; its --profile export is
        # the only view of the counters inside it.
        "sim.events": profile["sim"]["events"],
        "obs.bus_events": profile["sim"]["events"],
        **wall_layers(profile.get("wall") or {}),
    }


def finish(state: dict, rec, traced: bool) -> dict:
    from repro.harness.__main__ import EXPERIMENTS

    tmp = state["tmp"]
    expected = set(SMOKE_EXPERIMENTS) if state["smoke"] else set(EXPERIMENTS)
    try:
        with open(os.path.join(tmp, "report.json"), "rb") as fh:
            report_bytes = fh.read()
        reported = set(json.loads(report_bytes)["experiments"])
    except (OSError, ValueError, KeyError):
        report_bytes, reported = b"", set()
    runs = state.get("runs", [])
    ingested = {row["source"] for row in runs}
    missing_ingests = [name for name in EXPORTS if name not in ingested]
    harness_rows = [row for row in runs if row["kind"] == "harness"]
    failed = len(expected - reported) + len(missing_ingests) + (0 if harness_rows else 1)
    payload = state.get("payload") or {}

    def size(name: str) -> int:
        path = os.path.join(tmp, name)
        return os.path.getsize(path) if os.path.exists(path) else 0

    layer = {
        "harness.trace_bytes": size("trace.jsonl"),
        "harness.report_bytes": len(report_bytes),
        "obs_store.query_ms": state["query_s"] * 1e3,
        "obs_store.db_bytes": size("results.db"),
    }
    if traced:
        layer.update(_traced_layers(state, rec))
    return {
        "attempted": len(expected) + len(EXPORTS) + 1,
        "failed": failed,
        "checks": {
            "harness_exit_0": state["returncode"] == 0,
            "json_has_every_experiment": reported == expected,
            "store_has_one_run_per_artifact": len(runs) == len(EXPORTS) + 1
            and not missing_ingests,
            "store_payload_is_the_report": set(payload.get("experiments", {})) == expected,
            "trend_has_series": bool(state.get("trend", {}).get("series")),
        },
        "fingerprint": report_bytes,
        "layer": layer,
        "samples": {},
    }
