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
(exit 2, naming the flag and the path) before the first experiment runs,
and so is a name the registry (:mod:`repro.harness.experiments`) does not
hold, ``all`` next to other names, or a name given twice.  This module is
argv -> calls: it runs no experiment itself and re-exports the library's
``EXPERIMENTS``, ``run_experiment*`` and ``harness_payload``.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from repro.harness.experiments import (
    EXPERIMENTS,
    UnknownExperiment,
    harness_payload,
    lookup,
    run_experiment,
    run_experiment_record,
    run_experiments,
)
from repro.harness.parallel import WorkerFailure, positive_worker_count
from repro.obs.export import ObservationSession, dump_json, reject_unwritable
from repro.obs.profile import render_profile

__all__ = [
    "EXPERIMENTS",
    "harness_payload",
    "main",
    "run_experiment",
    "run_experiment_record",
    "run_experiments",
]


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
        width = max(map(len, EXPERIMENTS))
        for name in sorted(EXPERIMENTS):
            print(f"  {name:<{width}}  {EXPERIMENTS[name].anchor}")
        print("subcommands:")
        print("  campaign  (fault-campaign engine; 'campaign --help' for flags)")
        print("  serve     (grid-as-a-service HTTP edge; 'serve --help' for flags)")
        return 0
    names = args.experiment
    if "all" in names:
        if names != ["all"]:
            parser.error(f"'all' already names every experiment; drop it or the others: "
                         f"{' '.join(names)}")
        names = sorted(EXPERIMENTS)
    for name in names:
        try:
            lookup(name)
        except UnknownExperiment as exc:
            parser.error(str(exc))
        if names.count(name) > 1:
            parser.error(f"experiment {name!r} is named {names.count(name)} times; once is enough")
    telemetry_flags = [f for f in ("--trace", "--metrics", "--profile") if getattr(args, f[2:])]
    if telemetry_flags and args.jobs > 1:
        parser.error(
            f"{'/'.join(telemetry_flags)} cannot be combined with "
            f"--jobs {args.jobs}: telemetry is collected in-process, so "
            f"these flags require --jobs 1 (drop "
            f"{'/'.join(telemetry_flags)} or --jobs {args.jobs})"
        )
    reject_unwritable(parser, args, "--json", "--trace", "--metrics", "--profile", "--results-db")
    session = ObservationSession(
        trace_path=args.trace, metrics_path=args.metrics, profile_path=args.profile
    ) if telemetry_flags else None
    try:
        with session or contextlib.nullcontext():
            records = run_experiments(names, seed=args.seed, jobs=args.jobs)
    except WorkerFailure as exc:
        print(f"error: experiment worker failed: {exc}", file=sys.stderr)
        return 1
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
