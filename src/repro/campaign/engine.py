"""The campaign engine: run every cell, audit twice, shrink violations.

One *cell* is one deterministic simulation: a fresh pool and workload
(derived from the cell's seed), the cell's injection set scheduled on a
fault injector, and **two independent audits** of the same run by two
instances of the one checker, :class:`~repro.core.principles.PrincipleAuditor`:

- :meth:`~repro.core.principles.PrincipleAuditor.live`, subscribed to the
  pool's telemetry bus before the simulation starts, judging P1-P4 live;
- :meth:`~repro.core.principles.PrincipleAuditor.of_run` over the
  artifacts (ground truth, interface registry, propagation trace) after
  it ends.

Each cell record carries both verdict lists and the cross-check bit
``live_matches_posthoc``; a disagreement means the instrumentation lost
an event, which is itself a reportable defect of the observability
layer.  Cells fan out over the
:class:`~repro.harness.parallel.ParallelRunner` (seed-order merge), so a
``--jobs 4`` campaign produces the byte-identical report to a serial
one.  Violating cells are then shrunk in the parent process to minimal
replayable reproducer specs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.campaign.spec import CampaignConfig, CellSpec, build_fault, enumerate_cells
from repro.condor import JobState, Pool, PoolConfig
from repro.condor.daemons.config import CondorConfig
from repro.core.principles import PrincipleAuditor, Violation
from repro.faults import FaultInjector
from repro.harness.parallel import ParallelRunner
from repro.harness.workloads import submit_gauntlet
from repro.obs.bus import Topic
from repro.obs.profile import SimTimeProfiler
from repro.obs.span import SpanBuilder
from repro.obs.summary import RunSummary

__all__ = ["CellError", "campaign_section", "run_campaign", "run_cell_record", "violation_totals"]


def campaign_section(config: CampaignConfig) -> dict:
    """The JSON-ready header shared by campaign and fuzz reports."""
    return {
        "mode": config.mode,
        "seed": config.seed,
        "n_jobs": config.n_jobs,
        "n_machines": config.n_machines,
        "max_order": config.max_order,
        "max_retries": config.max_retries,
        "max_time": config.max_time,
        "windows": [list(window) for window in config.windows],
        "kinds": None if config.kinds is None else list(config.kinds),
        "sites": list(config.sites),
        "job_indices": list(config.job_indices),
        "federation": config.federation,
        "defenses": config.defenses,
    }


def violation_totals(records: list[dict]) -> dict:
    """The ``totals`` campaign and fuzz reports share, over cell records."""
    by_principle = {f"P{p}": 0 for p in (1, 2, 3, 4)}
    for record in records:
        for violation in record["violations"]:
            by_principle[f"P{violation['principle']}"] += 1
    return {
        "cells": len(records),
        "cells_with_violations": sum(1 for r in records if r["violations"]),
        "violations": sum(len(r["violations"]) for r in records),
        "by_principle": by_principle,
        "live_mismatches": sum(1 for r in records if not r["live_matches_posthoc"]),
    }


@dataclass(frozen=True)
class CellError:
    """A cell that raised instead of completing, as structured data.

    ``stage`` distinguishes a cell that could not even be *built*
    (unknown site, out-of-range job index -- "setup") from one whose
    simulation or audit raised ("simulate").  The distinction matters to
    the fuzzer: a setup error marks an invalid corner of the mutation
    space, a simulation error is a defect worth a bug report either way.
    """

    stage: str  # "setup" | "simulate"
    type: str
    message: str

    def as_dict(self) -> dict:
        return {"stage": self.stage, "type": self.type, "message": self.message}


def _cell_error_record(cell: CellSpec, error: CellError, features: bool) -> dict:
    """The normalized record of a cell that raised.

    Carries every field a successful record carries -- in particular the
    full ``injections`` list, so a report row for a broken cell still
    names the faults that broke it -- plus the structured ``error``.
    """
    record = {
        "cell": cell.cell_id,
        "mode": cell.mode,
        "seed": cell.seed,
        "injections": [spec.as_dict() for spec in cell.injections],
        "jobs": {"total": 0, "completed": 0, "held": 0, "unfinished": 0},
        "makespan": 0.0,
        "violations": [],
        "live_violations": [],
        "live_matches_posthoc": True,
        "profile": None,
        "error": error.as_dict(),
    }
    if features:
        record["signature"] = [f"cell-error:{error.stage}:{error.type}"]
    return record


def _violation_dict(violation: Violation) -> dict:
    return {
        "principle": violation.principle,
        "subject": violation.subject,
        "description": violation.description,
    }


def _violation_key(record: dict) -> tuple:
    return (record["principle"], record["subject"], record["description"])


def run_cell_record(
    cell: CellSpec,
    config: CampaignConfig,
    profile: bool = False,
    features: bool = False,
    on_error: str = "raise",
) -> dict:
    """Run one cell; return its JSON-ready record.

    Deterministic in (cell, config) alone: the pool, workload and
    arrival process all derive from the cell's seed, so the record is
    identical whether the cell runs in this process or in a worker.
    With *profile*, a :class:`~repro.obs.profile.SimTimeProfiler` rides
    the pool's bus and the record gains a ``profile`` section -- pure
    sim-time attribution, so it stays inside the determinism contract.
    With *features*, a :class:`~repro.obs.span.SpanBuilder` rides the
    bus too and the record gains the cell's coverage ``signature``
    (:func:`repro.obs.signature.signature`), the fuzzer's feedback.

    ``on_error`` decides what a raising cell becomes.  The default
    re-raises (the exhaustive campaign's contract: a broken cell aborts
    the sweep as an explicit :class:`~repro.harness.parallel.WorkerFailure`).
    ``on_error="record"`` instead returns a normalized :class:`CellError`
    record -- same fields as a successful record, ``error`` filled in --
    so one wild mutant cannot kill a fuzzing campaign.
    """
    stage = ["setup"]
    try:
        return _run_cell(cell, config, profile, features, stage)
    except Exception as exc:  # noqa: BLE001 - normalized or re-raised below
        if on_error != "record":
            raise
        return _cell_error_record(
            cell, CellError(stage[0], type(exc).__name__, str(exc)), features
        )


def _run_cell(
    cell: CellSpec,
    config: CampaignConfig,
    profile: bool,
    features: bool,
    stage: list,
) -> dict:
    registry: list = []
    defense_knobs = (
        dict(
            startd_self_test=True,
            self_test_interval=60.0,
            schedd_avoidance=True,
        )
        if config.defenses
        else {}
    )
    condor = CondorConfig(
        error_mode=cell.mode,
        interface_registry=registry,
        max_retries=config.max_retries,
        **defense_knobs,
    )
    if config.federation:
        from repro.condor.grid import Grid, GridConfig, GridPoolSpec

        pool = Grid(
            GridConfig(
                pools=(
                    GridPoolSpec("a", n_machines=config.n_machines),
                    GridPoolSpec("b", n_machines=config.remote_machines),
                ),
                seed=cell.seed,
                condor=condor,
            )
        )
    else:
        pool = Pool(PoolConfig(n_machines=config.n_machines, seed=cell.seed, condor=condor))
    jobs = submit_gauntlet(
        pool, cell.seed, config.n_jobs, stream="campaign", exception_fraction=0.1
    )

    injector = FaultInjector(pool)
    # The shared fold, fed JOB events only: a cell reads just its makespans.
    # Every observer here names its topics, so the cell constructs no event
    # on the others.  Within a JOB event the fold (subscribed first) runs
    # before the live auditor; observers never touch simulation state, and
    # a fail-fast cell raises below whichever of them ran first.
    summary = RunSummary()
    unsubscribe_summary = pool.bus.subscribe(summary.on_event, Topic.JOB)
    profiler = SimTimeProfiler(pool.bus) if profile else None
    spans = SpanBuilder(pool.bus) if features else None
    live_auditor = PrincipleAuditor.live(
        pool.bus, injector=injector, jobs=jobs, fail_fast=config.fail_fast
    )
    for spec in cell.injections:
        injector.schedule(build_fault(spec, pool, jobs), at=spec.at, until=spec.until)

    stage[0] = "simulate"
    pool.run_until_done(max_time=config.max_time, expected_jobs=len(jobs))
    unsubscribe_summary()
    live_auditor.detach()
    if spans is not None:
        spans.detach()
    if profiler is not None:
        profiler.detach()
    if live_auditor.failure is not None:
        # A fail-fast raise inside a daemon process is absorbed as that
        # process's death; surface it here so --fail-fast always stops
        # the campaign at the first violating cell.
        raise live_auditor.failure

    auditor = PrincipleAuditor.of_run(injector.audit_outcomes(jobs), registry, pool.trace)

    posthoc = [_violation_dict(v) for v in auditor.violations]
    live = [_violation_dict(v) for v in live_auditor.violations]
    completed = sum(1 for j in jobs if j.state is JobState.COMPLETED)
    held = sum(1 for j in jobs if j.state is JobState.HELD)
    record = {
        "cell": cell.cell_id,
        "mode": cell.mode,
        "seed": cell.seed,
        "injections": [spec.as_dict() for spec in cell.injections],
        "jobs": {
            "total": len(jobs),
            "completed": completed,
            "held": held,
            "unfinished": len(jobs) - completed - held,
        },
        "makespan": pool.sim.now,
        "job_makespans": sorted(summary.makespans),
        "makespan_percentiles": summary.makespan_percentiles(),
        "violations": posthoc,
        "live_violations": live,
        "live_matches_posthoc": (
            sorted(map(_violation_key, posthoc)) == sorted(map(_violation_key, live))
        ),
        "profile": None if profiler is None else profiler.section(),
        "error": None,
    }
    if spans is not None:
        from repro.obs.signature import signature

        record["signature"] = list(
            signature(posthoc, spans.spans, [job.state.name for job in jobs])
        )
    return record


def run_campaign(
    config: CampaignConfig,
    cells: tuple[CellSpec, ...] | None = None,
    jobs: int = 1,
    shrink: bool = True,
    profile: bool = False,
) -> dict:
    """Run the whole matrix; return the JSON-ready campaign report.

    With ``jobs > 1`` cells fan out over worker processes; the merge
    preserves matrix order, and every cell is self-seeding, so the
    report is byte-identical to a serial run.  With *shrink*, each
    violating cell gains a ``reproducer`` spec minimized by delta
    debugging (in the parent, after the fan-out).  With *profile*,
    every cell record carries a sim-time attribution section
    (deterministic, so it survives the byte-identity guarantee even
    across ``--jobs`` fan-out).
    """
    from repro.campaign.shrink import minimize_cell

    if cells is None:
        cells = enumerate_cells(config)
    runner = ParallelRunner(
        functools.partial(run_cell_record, config=config, profile=profile),
        workers=jobs,
    )
    records = [outcome.value for outcome in runner.map(list(cells))]
    # The matrix's own records: shrinking reads them instead of simulating
    # a violating cell, or a subset that is itself a matrix cell, again.
    known = {cell.key: record for cell, record in zip(cells, records)}
    for cell, record in zip(cells, records):
        record["reproducer"] = (
            minimize_cell(cell, config, records=known)
            if shrink and record["violations"] else None
        )
    return {
        "campaign": campaign_section(config),
        "cells": records,
        "totals": {
            **violation_totals(records),
            "reproducers": sum(1 for r in records if r["reproducer"] is not None),
        },
    }
