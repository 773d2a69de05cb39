"""The results-store CLI: ``python -m repro.obs.store``.

Examples::

    python -m repro.obs.store ingest benchmarks/gridbench/baseline/reference.json --commit reference
    python -m repro.obs.store ingest report.json --db results.db --commit abc123
    python -m repro.obs.store query --kind gridbench --strip-wall
    python -m repro.obs.store trend --metric run_s
    python -m repro.obs.store trend --metric makespan --label fig3 --json
    python -m repro.obs.store diff abc123 def456
    python -m repro.obs.store gc --keep 5

``ingest`` auto-detects every artifact schema the reproduction emits
(gridbench / campaign / fuzz / harness JSON, trace JSONL, metrics and
profile exports) and keeps going past rejected files, reporting each
with its structured code.  ``trend`` renders a per-commit trajectory
and flags wall regressions; ``diff`` compares the gridbench runs of two
commits (fingerprints exact, wall side thresholded by the same rule).
Exit 0 ok, 1 a regression or a rejected file, 2 (one ``error:`` line) a
store, commit or metric that is not there or a store that cannot be
used; a read never creates the store (``ResultsStore.existing``).
"""

from __future__ import annotations

import argparse
import sys

from repro.boundary import NotFound, cli, positive_int
from repro.obs.canonical import pretty_json
from repro.obs.store import IngestError, ResultsStore, default_commit
from repro.obs.store.query import (
    add_threshold_options,
    diff_commits,
    render_diff,
    render_runs,
    trend_table,
)


def _add_db(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--db", default="repro-results.db", metavar="PATH",
                        help="results store path (default: repro-results.db)")


def _ingest_main(args: argparse.Namespace) -> int:
    commit = args.commit if args.commit is not None else default_commit()
    rejected: list[IngestError] = []
    with ResultsStore(args.db) as store:
        for path in args.artifacts:
            try:
                run_id = store.ingest_path(path, commit=commit)
            except IngestError as exc:
                rejected.append(exc)
                print(f"REJECTED {exc}", file=sys.stderr)
            else:
                print(f"ingested {path} -> run {run_id} (commit {commit})")
    if rejected:
        print(f"{len(rejected)} artifact(s) rejected", file=sys.stderr)
        return 1
    return 0


def _query_main(args: argparse.Namespace) -> int:
    with ResultsStore.existing(args.db) as store:
        rows = store.runs(kind=args.kind, commit=args.commit, limit=args.limit)
    if args.strip_wall:
        for row in rows:
            del row["commit"], row["ingested_at"]
    if args.json:
        sys.stdout.write(pretty_json(rows))
    else:
        print(render_runs(rows, strip_wall=args.strip_wall))
    return 0


def _trend_main(args: argparse.Namespace) -> int:
    with ResultsStore.existing(args.db) as store:
        if args.metric is None:
            print("metrics in store:")
            for name, count in store.metric_names():
                print(f"  {name}  ({count} rows)")
            return 0
        trend = store.trend(args.metric, label=args.label)
    if not trend["series"]:
        suffix = f" with label ~{args.label!r}" if args.label else ""
        raise NotFound(f"no data for metric {args.metric!r}{suffix}; "
                       "`trend` with no --metric lists what the store has")
    table, regressions = trend_table(
        trend,
        wall_threshold=args.wall_threshold,
        min_wall_seconds=args.min_wall_seconds,
    )
    if args.json:
        trend["regressions"] = regressions
        sys.stdout.write(pretty_json(trend))
    else:
        print(table.render())
        for regression in regressions:
            print(f"REGRESSION: {regression}")
    return 1 if regressions else 0


def _diff_main(args: argparse.Namespace) -> int:
    with ResultsStore.existing(args.db) as store:
        diff = diff_commits(
            store,
            args.commit_a,
            args.commit_b,
            wall_threshold=args.wall_threshold,
            min_wall_seconds=args.min_wall_seconds,
        )
    if args.json:
        sys.stdout.write(pretty_json(diff))
    else:
        print(render_diff(diff))
    return 1 if diff["problems"] else 0


def _gc_main(args: argparse.Namespace) -> int:
    with ResultsStore.existing(args.db) as store:
        result = store.gc(keep=args.keep, dry_run=args.dry_run)
    verb = "would delete" if args.dry_run else "deleted"
    print(f"gc: {verb} {len(result['deleted'])} run(s), kept {result['kept']} "
          f"(newest {args.keep} per kind+config)")
    return 0


@cli
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.store",
        description="Longitudinal results store over every repro artifact schema.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="ingest artifact files")
    ingest.add_argument("artifacts", nargs="+", metavar="FILE",
                        help="gridbench/campaign/fuzz/harness JSON, trace JSONL, "
                             "metrics or profile exports")
    ingest.add_argument("--commit", default=None, metavar="SHA",
                        help="commit to record (default: git rev-parse, else 'unknown')")
    _add_db(ingest)

    query = commands.add_parser("query", help="list stored runs")
    query.add_argument("--kind", default=None,
                       choices=("gridbench", "campaign", "fuzz", "harness",
                                "trace", "metrics", "profile"))
    query.add_argument("--commit", default=None, metavar="SHA")
    query.add_argument("--limit", type=positive_int, default=None, metavar="N",
                       help="show only the newest N runs")
    query.add_argument("--strip-wall", action="store_true",
                       help="drop wall-side columns (commit, ingested-at); "
                            "output is then byte-identical across hosts")
    query.add_argument("--json", action="store_true")
    _add_db(query)

    trend = commands.add_parser(
        "trend", help="per-commit trajectory of one metric"
    )
    trend.add_argument("--metric", default=None, metavar="NAME",
                       help="metric name (omit to list available metrics)")
    trend.add_argument("--label", default=None, metavar="SUBSTR",
                       help="restrict to labels containing SUBSTR")
    trend.add_argument("--json", action="store_true")
    add_threshold_options(trend)
    _add_db(trend)

    diff = commands.add_parser("diff", help="compare two commits")
    diff.add_argument("commit_a")
    diff.add_argument("commit_b")
    diff.add_argument("--json", action="store_true")
    add_threshold_options(diff)
    _add_db(diff)

    gc = commands.add_parser("gc", help="drop old runs per kind+config")
    gc.add_argument("--keep", type=positive_int, default=5, metavar="N",
                    help="runs to keep per (kind, config hash) (default 5)")
    gc.add_argument("--dry-run", action="store_true")
    _add_db(gc)

    args = parser.parse_args(argv)
    return {
        "ingest": _ingest_main,
        "query": _query_main,
        "trend": _trend_main,
        "diff": _diff_main,
        "gc": _gc_main,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
