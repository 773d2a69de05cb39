"""Command-line runner for the experiments: ``python -m repro.harness``.

Examples::

    python -m repro.harness --list
    python -m repro.harness fig4
    python -m repro.harness campaign --mode classic --jobs 4
    python -m repro.harness naive_vs_scoped --seed 3
    python -m repro.harness all
    python -m repro.harness all --jobs 4          # fan out over processes
    python -m repro.harness fig1 fig3 --jobs 2
    python -m repro.harness fig3 --trace t.jsonl --metrics m.json
    python -m repro.harness naive_vs_scoped --json results.json

With ``--jobs N`` the named experiments run concurrently in worker
processes; tables are still printed in stable (sorted) name order, so
the output is byte-identical to a serial run apart from the wall-clock
footers.  A crashed or hung worker surfaces as an explicit error naming
the experiment (P1/P2), never as silently missing output.

``--trace`` / ``--metrics`` / ``--profile`` attach a
:class:`repro.obs.ObservationSession` for the run and write a JSONL
event+span trace, a JSON metrics snapshot, and a grid-profiler report
(sim-time attribution, critical path, folded stacks); ``--json`` writes
the experiments' result dataclasses as JSON.  All exports strip
wall-clock fields, so same-seed runs produce byte-identical files
(DESIGN.md §6).  Telemetry requires in-process execution, so the
telemetry flags reject ``--jobs > 1`` with an error naming the exact
conflict.  An output path nothing can be written at is a usage error too
(exit 2, naming the flag and the path) before the first experiment runs.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import sys
import time
from pathlib import Path

from repro.harness import experiments as E
from repro.harness.parallel import ParallelRunner, WorkerFailure, positive_worker_count
from repro.obs.canonical import to_jsonable
from repro.obs.export import ObservationSession, dump_json, unwritable
from repro.obs.profile import render_profile

#: name -> runner; one that declares a ``seed`` parameter is passed the seed.
EXPERIMENTS = {
    "fig1": E.run_fig1_kernel,
    "fig2": E.run_fig2_java_universe,
    "fig3": E.run_fig3_scopes,
    "fig4": E.run_fig4_result_codes,
    "naive_vs_scoped": E.run_naive_vs_scoped,
    "black_hole": E.run_black_hole,
    "nfs_mounts": E.run_nfs_mounts,
    "time_scope": E.run_time_scope,
    "principles": E.run_principles,
    "end_to_end": E.run_end_to_end,
    "checkpointing": E.run_checkpoint_ablation,
    "fair_share": E.run_fair_share,
    "preemption": E.run_preemption,
    "retry_sweep": E.run_retry_sweep,
    "churn": E.run_churn,
    "flocking": E.run_flocking,
}


def harness_payload(seed: int, experiments: dict[str, dict]) -> dict:
    """The ``--json`` envelope, also the results-store payload and the
    service's stored ``result`` artifact: one builder, one object."""
    return {"seed": seed, "experiments": experiments}


def _runner(name: str):
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise SystemExit(
            f"unknown experiment {name!r}; try one of: {', '.join(sorted(EXPERIMENTS))}"
        ) from None


def run_experiment_record(name: str, seed: int = 0) -> dict:
    """Run one named experiment; return its rendered table and JSON data.

    The record is ``{"name", "rendered", "data"}`` with *data* the
    result dataclass converted to JSON types, wall-clock fields stripped
    (they reach the user only through the table footer).
    """
    fn = _runner(name)
    started = time.perf_counter()
    result = fn(seed=seed) if "seed" in inspect.signature(fn).parameters else fn()
    table = result.table()
    table.add_footer(f"wall clock {time.perf_counter() - started:.3f}s")
    return {"name": name, "rendered": table.render(), "data": to_jsonable(result)}


def run_experiment(name: str, seed: int = 0) -> str:
    """Run one named experiment and return its rendered table."""
    return run_experiment_record(name, seed=seed)["rendered"]


def run_experiments(names: list[str], seed: int = 0, jobs: int = 1) -> list[dict]:
    """Run *names* (serially or over *jobs* workers); records in input order."""
    for name in names:
        _runner(name)  # an unknown name exits before any worker starts
    # Reference the canonical module so the partial pickles by a stable
    # qualified name even when this file is executing as ``__main__``.
    from repro.harness import __main__ as canonical

    runner = ParallelRunner(
        functools.partial(canonical.run_experiment_record, seed=seed), workers=jobs
    )
    try:
        return [outcome.value for outcome in runner.map(names)]
    except WorkerFailure as exc:
        raise SystemExit(f"experiment worker failed: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "campaign":
        # The fault-campaign engine has its own argument surface; hand
        # the rest of the command line straight to it.
        from repro.campaign.cli import main as campaign_main

        return campaign_main(argv[1:])
    if argv and argv[0] == "serve":
        # Likewise the grid-as-a-service edge: ``python -m repro.harness
        # serve ...`` is ``python -m repro.service serve ...``.
        from repro.service.__main__ import main as service_main

        return service_main(argv)
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Run the paper-reproduction experiments.",
    )
    parser.add_argument("experiment", nargs="*",
                        help="experiment name(s), or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=positive_worker_count, default=1, metavar="N",
                        help="run experiments over N worker processes "
                             "(output order stays stable)")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a JSONL telemetry trace (events + spans)")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="write a JSON metrics snapshot")
    parser.add_argument("--profile", metavar="PATH", default=None,
                        help="write a grid-profiler report (sim-time "
                             "attribution, critical path, folded stacks) "
                             "and print a 'where time went' summary")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the experiment results as JSON")
    parser.add_argument("--results-db", metavar="PATH", default=None,
                        help="ingest the run (and any --trace/--metrics/"
                             "--profile exports) into this results store")
    args = parser.parse_args(argv)
    if args.list or not args.experiment:
        print("experiments:")
        for name in sorted(EXPERIMENTS):
            print(f"  {name}")
        print("subcommands:")
        print("  campaign  (fault-campaign engine; 'campaign --help' for flags)")
        return 0
    telemetry_flags = [
        flag
        for flag, value in (
            ("--trace", args.trace),
            ("--metrics", args.metrics),
            ("--profile", args.profile),
        )
        if value
    ]
    if telemetry_flags and args.jobs > 1:
        parser.error(
            f"{'/'.join(telemetry_flags)} cannot be combined with "
            f"--jobs {args.jobs}: telemetry is collected in-process, so "
            f"these flags require --jobs 1 (drop "
            f"{'/'.join(telemetry_flags)} or --jobs {args.jobs})"
        )
    for flag, path in (
        ("--json", args.json),
        ("--trace", args.trace),
        ("--metrics", args.metrics),
        ("--profile", args.profile),
        ("--results-db", args.results_db),
    ):
        # A usage error before the first experiment, not a traceback after the last.
        if path and (why := unwritable(path)):
            parser.error(f"{flag} {path}: {why}")
    names = sorted(EXPERIMENTS) if args.experiment == ["all"] else args.experiment
    if telemetry_flags:
        session = ObservationSession(
            trace_path=args.trace,
            metrics_path=args.metrics,
            profile_path=args.profile,
        )
        with session:
            records = run_experiments(names, seed=args.seed, jobs=args.jobs)
    else:
        session = None
        records = run_experiments(names, seed=args.seed, jobs=args.jobs)
    for record in records:
        print(record["rendered"])
        print()
    profile = session.profile_report() if args.profile else None
    if profile is not None:
        print(render_profile(profile))
        print()
    payload = harness_payload(args.seed, {r["name"]: r["data"] for r in records})
    if args.json:
        dump_json(args.json, payload)
    if args.results_db:
        from repro.obs.store import ingest_artifacts

        # The objects behind the files just written, under the files' names.
        artifacts = [(f"harness:{','.join(names)}", payload)]
        if args.trace:
            artifacts.append((Path(args.trace).name, session.trace_summary()))
        if args.metrics:
            artifacts.append((Path(args.metrics).name, session.registry.snapshot()))
        if args.profile:
            artifacts.append((Path(args.profile).name, profile))
        ingest_artifacts(args.results_db, artifacts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
