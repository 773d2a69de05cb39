"""The bench CLI: ``python -m repro.bench``.

Examples::

    python -m repro.bench                        # run all, write bench-out/
    python -m repro.bench --only sim_engine --only classads --rounds 1
    python -m repro.bench --list
    python -m repro.bench compare benchmarks/baseline bench-out
    python -m repro.bench compare old.json new.json --wall-threshold 4.0
    python -m repro.bench compare baseline bench-out --sim-only

The run subcommand (the default) discovers ``benchmarks/bench_*.py``,
executes each under the deterministic grid profiler, and writes one
schema-versioned ``BENCH_<name>.json`` per module.  ``compare`` diffs
two bench runs: sim-side differences always fail; wall-time regressions
fail only past ``--wall-threshold``.  Exit status is nonzero on any
failed case or detected regression, so both subcommands gate CI.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.compare import MissingBaselineError, add_threshold_options, compare_paths
from repro.bench.runner import bench_name, discover, run_suite


def _run_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the benchmark suite under the grid profiler.",
    )
    parser.add_argument("--bench-dir", default="benchmarks", metavar="DIR",
                        help="directory holding bench_*.py (default: benchmarks)")
    parser.add_argument("--out", default="bench-out", metavar="DIR",
                        help="directory for BENCH_*.json (default: bench-out)")
    parser.add_argument("--only", action="append", default=None, metavar="NAME",
                        help="run only benchmarks whose name contains NAME "
                             "(repeatable)")
    parser.add_argument("--rounds", type=int, default=None, metavar="N",
                        help="override every case's round count (wall stats "
                             "only; sim results are per-round identical)")
    parser.add_argument("--list", action="store_true",
                        help="list discovered benchmarks and exit")
    parser.add_argument("--results-db", default=None, metavar="PATH",
                        help="also ingest each BENCH record into this "
                             "longitudinal results store")
    args = parser.parse_args(argv)
    if args.rounds is not None and args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if args.list:
        print("benchmarks:")
        for path in discover(args.bench_dir):
            print(f"  {bench_name(path)}")
        return 0
    written = run_suite(
        bench_dir=args.bench_dir,
        out_dir=args.out,
        only=args.only,
        rounds_override=args.rounds,
    )
    if not written:
        print("no benchmarks matched", file=sys.stderr)
        return 1
    if args.results_db:
        from repro.obs.store import ingest_artifacts

        ingest_artifacts(
            args.results_db, [(path.name, record) for path, record in written.items()]
        )
    failed = sum(
        1 for record in written.values() for case in record["cases"].values() if not case["ok"]
    )
    if failed:
        print(f"{failed} benchmark case(s) failed", file=sys.stderr)
        return 1
    return 0


def _compare_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench compare",
        description="Diff two bench runs; fail on sim changes or wall regressions.",
    )
    parser.add_argument("old", help="baseline BENCH file or directory")
    parser.add_argument("new", help="candidate BENCH file or directory")
    add_threshold_options(parser)
    parser.add_argument("--sim-only", action="store_true",
                        help="skip wall-time checks entirely (sim diffs are "
                             "exact and still hard-fail)")
    args = parser.parse_args(argv)
    try:
        problems, compared = compare_paths(
            args.old,
            args.new,
            wall_threshold=args.wall_threshold,
            min_wall_seconds=args.min_wall_seconds,
            check_wall=not args.sim_only,
        )
    except MissingBaselineError as exc:
        # Not a regression: there is nothing to compare against.  Exit 2
        # so CI can tell "no baseline yet" from "benchmarks regressed".
        print(f"MISSING BASELINE: {exc}", file=sys.stderr)
        print("run `python -m repro.bench` to produce one, or check the path",
              file=sys.stderr)
        return 2
    for problem in problems:
        print(f"REGRESSION: {problem}")
    print(f"compared {compared} benchmark(s): "
          + ("OK" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return _compare_main(argv[1:])
    if argv and argv[0] == "run":
        argv = argv[1:]
    return _run_main(argv)


if __name__ == "__main__":
    sys.exit(main())
