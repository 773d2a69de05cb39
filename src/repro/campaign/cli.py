"""The ``campaign`` CLI subcommand: ``python -m repro.harness campaign``.

Examples::

    python -m repro.harness campaign
    python -m repro.harness campaign --mode classic --seed 3
    python -m repro.harness campaign --jobs 4 --json report.json
    python -m repro.harness campaign --kinds MisconfiguredJvm,CredentialExpiry
    python -m repro.harness campaign --order 2 --mode classic
    python -m repro.harness campaign --fail-fast --mode scoped
    python -m repro.harness campaign --profile --kinds MachineCrash
    python -m repro.harness campaign --replay reproducer.json
    python -m repro.harness campaign fuzz --mode classic --seed 7 \\
        --budget-cells 200
    python -m repro.harness campaign fuzz --resume checkpoint.json

``--json`` writes the canonical campaign report (wall clock never enters
it, so same-seed runs are byte-identical regardless of ``--jobs``).
``--replay`` re-runs a shrunken reproducer spec and exits 0 only if the
expected violations reproduce exactly (1 if they do not; 2, with one
line on stderr, if the file is not a reproducer spec).  The ``fuzz``
subcommand swaps exhaustive enumeration for the coverage-guided explorer
(:mod:`repro.campaign.fuzz`): same determinism contract, a budget
instead of a matrix, and ``--checkpoint``/``--resume`` for campaigns
long enough to interrupt.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.campaign.engine import run_campaign
from repro.campaign.report import render_cell_profiles, render_fuzz_summary, render_summary
from repro.campaign.shrink import replay
from repro.campaign.spec import CATALOGUE, CampaignConfig
from repro.core.principles import PrincipleViolationError
from repro.harness.parallel import WorkerFailure, positive_worker_count
from repro.obs.export import dump_json, reject_unwritable

__all__ = ["fuzz_main", "main"]


def _add_shared_options(parser: argparse.ArgumentParser, report: str, unit: str) -> None:
    """The options ``campaign`` and ``campaign fuzz`` spell identically."""
    parser.add_argument("--mode", default="scoped",
                        choices=("scoped", "naive", "classic"),
                        help="error handling under test (classic = naive)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=positive_worker_count, default=1, metavar="N",
                        help=f"run {unit} over N worker processes")
    parser.add_argument("--kinds", default=None, metavar="A,B,...",
                        help="restrict the catalogue to these fault kinds")
    parser.add_argument("--federation", action="store_true",
                        help="run every cell against a two-pool flocking grid "
                             "(enables federation-only fault kinds)")
    parser.add_argument("--defenses", action="store_true",
                        help="turn on the §5 defenses (startd self-test "
                             "re-probe, schedd backoff avoidance) in every cell")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help=f"write the {report} report as canonical JSON")
    parser.add_argument("--results-db", metavar="PATH", default=None,
                        help=f"ingest the {report} report into this results store")


def _campaign_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                     **knobs) -> CampaignConfig:
    """The campaign both commands build from the shared options; fault
    kinds the catalogue cannot select are a usage error (exit 2)."""
    config = CampaignConfig(
        mode=args.mode,
        seed=args.seed,
        kinds=None if args.kinds is None else tuple(k for k in args.kinds.split(",") if k),
        federation=args.federation,
        defenses=args.defenses,
        **knobs,
    )
    try:
        config.catalogue()
    except ValueError as exc:
        parser.error(f"--kinds {args.kinds}: {exc}")
    return config


def _emit_report(args: argparse.Namespace, report: dict, source: str) -> None:
    """The artifact tail of both commands: ``--json`` file, ``--results-db`` row."""
    if args.json:
        dump_json(args.json, report)
    if args.results_db:
        from repro.obs.store import ingest_artifacts

        ingest_artifacts(args.results_db, [(source, report)])


def fuzz_main(argv: list[str] | None = None) -> int:
    from repro.campaign.fuzz import FuzzConfig, load_checkpoint, run_fuzz

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness campaign fuzz",
        description="Explore the fault space coverage-guided instead of "
                    "exhaustively; audit every cell for P1-P4.",
    )
    _add_shared_options(parser, report="fuzz", unit="each batch")
    parser.add_argument("--budget-cells", type=int, default=200, metavar="B",
                        help="total cells the campaign may execute")
    parser.add_argument("--batch-size", type=int, default=16, metavar="K",
                        help="cells proposed per generation")
    parser.add_argument("--order-max", type=int, default=3, metavar="K",
                        help="maximum simultaneous faults per mutated cell")
    parser.add_argument("--checkpoint", metavar="PATH", default=None,
                        help="write the full campaign state there after "
                             "every batch (for --resume)")
    parser.add_argument("--resume", metavar="PATH", default=None,
                        help="pick a campaign up from a checkpoint file "
                             "(its config wins; other flags are rejected "
                             "if they disagree)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip minimizing a reproducer per violation")
    args = parser.parse_args(argv)
    reject_unwritable(parser, args, "--json", "--results-db", "--checkpoint")

    resume_state = None
    if args.resume is not None:
        try:
            config, resume_state = load_checkpoint(args.resume)
        except ValueError as exc:  # the file is outside input: one line, no traceback
            parser.error(f"--resume {args.resume}: {exc}")
    else:
        if args.budget_cells < 1:
            parser.error("--budget-cells must be >= 1")
        if args.batch_size < 1:
            parser.error("--batch-size must be >= 1")
        if args.order_max < 1:
            parser.error("--order-max must be >= 1")
        config = FuzzConfig(
            campaign=_campaign_config(parser, args),
            budget_cells=args.budget_cells,
            batch_size=args.batch_size,
            order_max=args.order_max,
        )
    started = time.perf_counter()
    try:
        report = run_fuzz(
            config,
            jobs=args.jobs,
            shrink=not args.no_shrink,
            checkpoint=args.checkpoint,
            resume=resume_state,
        )
    except WorkerFailure as exc:
        raise SystemExit(f"fuzz worker failed: {exc}") from exc
    print(render_fuzz_summary(report))
    print(f"wall clock {time.perf_counter() - started:.3f}s")
    _emit_report(args, report, f"campaign-fuzz:{config.campaign.mode}@{config.campaign.seed}")
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv and argv[0] == "fuzz":
        return fuzz_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness campaign",
        description="Sweep the fault catalogue and audit every cell for P1-P4.",
    )
    _add_shared_options(parser, report="campaign", unit="cells")
    parser.add_argument("--order", type=int, default=1, metavar="K",
                        help="also sweep multi-fault combinations up to size K")
    parser.add_argument("--list-kinds", action="store_true",
                        help="list the fault catalogue and exit")
    parser.add_argument("--profile", action="store_true",
                        help="attach the sim-time profiler to every cell and "
                             "render per-cell 'where time went' summaries")
    parser.add_argument("--fail-fast", action="store_true",
                        help="raise on the first live violation (debugging)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip delta-debugging violating cells")
    parser.add_argument("--replay", metavar="SPEC", default=None,
                        help="re-run a reproducer spec instead of a campaign")
    args = parser.parse_args(argv)

    if args.list_kinds:
        print("fault catalogue:")
        for info in CATALOGUE:
            window = "windows: all" if info.disarmable else "windows: open-ended only"
            fed = "; needs --federation" if info.needs_federation else ""
            print(f"  {info.kind}  (target: {info.target}; {window}{fed})")
        return 0

    if args.replay is not None:
        try:
            outcome = replay(args.replay)
        except ValueError as exc:  # the spec is outside input: one line, no traceback
            print(exc, file=sys.stderr)
            return 2
        status = "reproduced" if outcome["reproduced"] else "NOT reproduced"
        print(f"{outcome['cell']}: {status}")
        for violation in outcome["violations"]:
            print(f"  P{violation['principle']} [{violation['subject']}]: "
                  f"{violation['description']}")
        return 0 if outcome["reproduced"] else 1

    if args.order < 1:
        parser.error("--order must be >= 1")
    reject_unwritable(parser, args, "--json", "--results-db")
    config = _campaign_config(parser, args, max_order=args.order, fail_fast=args.fail_fast)
    started = time.perf_counter()
    try:
        report = run_campaign(
            config,
            jobs=args.jobs,
            shrink=not args.no_shrink,
            profile=args.profile,
        )
    except WorkerFailure as exc:
        if args.fail_fast and "PrincipleViolationError" in str(exc):
            # The runner wraps the cell's fail-fast raise; the message
            # already names the cell and the violation.
            print(f"fail-fast: {exc}")
            return 1
        raise SystemExit(f"campaign worker failed: {exc}") from exc
    except PrincipleViolationError as exc:
        # --fail-fast froze a cell at its first live violation (shrink
        # replays in-process, outside the runner).
        print(f"fail-fast: {exc}")
        return 1
    summary = render_summary(report)
    print(summary)
    if args.profile:
        profiles = render_cell_profiles(report)
        if profiles:
            print()
            print(profiles)
    print(f"wall clock {time.perf_counter() - started:.3f}s")
    _emit_report(args, report, f"campaign:{config.mode}@{config.seed}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via repro.harness
    raise SystemExit(main())
