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
``error:`` line, if the file is not a reproducer spec).  The ``fuzz``
subcommand swaps exhaustive enumeration for the coverage-guided explorer
(:mod:`repro.campaign.fuzz`): same determinism contract, a budget
instead of a matrix, and ``--checkpoint``/``--resume`` for campaigns
long enough to interrupt.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import replace

from repro.boundary import WorkerFailure, cli
from repro.campaign.engine import run_campaign
from repro.campaign.report import render_cell_profiles, render_fuzz_summary, render_summary
from repro.campaign.shrink import replay
from repro.campaign.spec import CATALOGUE, CampaignConfig, ConfigError
from repro.core.principles import PrincipleViolationError
from repro.harness.parallel import positive_worker_count
from repro.obs.export import dump_json, reject_unwritable

__all__ = ["fuzz_main", "main"]


def _add_shared_options(parser: argparse.ArgumentParser, report: str, unit: str) -> None:
    """The options ``campaign`` and ``campaign fuzz`` spell identically.  A
    config flag left unset is ``None``: the config's own default applies."""
    parser.add_argument("--mode", choices=("scoped", "naive", "classic"),
                        help="error handling under test (classic = naive)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--jobs", type=positive_worker_count, default=1, metavar="N",
                        help=f"run {unit} over N worker processes")
    parser.add_argument("--kinds", metavar="A,B,...",
                        type=lambda kinds: [kind for kind in kinds.split(",") if kind],
                        help="restrict the catalogue to these fault kinds")
    parser.add_argument("--federation", action="store_true", default=None,
                        help="run every cell against a two-pool flocking grid "
                             "(enables federation-only fault kinds)")
    parser.add_argument("--defenses", action="store_true", default=None,
                        help="turn on the §5 defenses (startd self-test "
                             "re-probe, schedd backoff avoidance) in every cell")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help=f"write the {report} report as canonical JSON")
    parser.add_argument("--results-db", metavar="PATH", default=None,
                        help=f"ingest the {report} report into this results store")


#: The ``CampaignConfig.as_dict`` keys the shared options set.
_CAMPAIGN_FLAGS = ("mode", "seed", "kinds", "federation", "defenses")


def _flag(key: str) -> str:
    """The option that sets config *key*."""
    return "--order" if key == "max_order" else "--" + key.replace("_", "-")


def _given(args: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    """The config keys among *keys* the command line set."""
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _config(parser: argparse.ArgumentParser, from_dict, data: dict):
    """``from_dict(data)``; a field it rejects is a usage error naming its flag."""
    try:
        return from_dict(data)
    except ConfigError as exc:
        parser.error(f"{_flag(exc.field)}: {exc.problem}")


def _emit_report(args: argparse.Namespace, report: dict, source: str) -> None:
    """The artifact tail of both commands: ``--json`` file, ``--results-db`` row."""
    if args.json:
        dump_json(args.json, report)
    if args.results_db:
        from repro.obs.store import ingest_artifacts

        ingest_artifacts(args.results_db, [(source, report)])


@cli
def fuzz_main(argv: list[str] | None = None) -> int:
    from repro.campaign.fuzz import FuzzConfig, load_checkpoint, run_fuzz

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness campaign fuzz",
        description="Explore the fault space coverage-guided instead of "
                    "exhaustively; audit every cell for P1-P4.",
    )
    _add_shared_options(parser, report="fuzz", unit="each batch")
    parser.add_argument("--budget-cells", type=int, metavar="B",
                        help="total cells the campaign may execute")
    parser.add_argument("--batch-size", type=int, metavar="K",
                        help="cells proposed per generation")
    parser.add_argument("--order-max", type=int, metavar="K",
                        help="maximum simultaneous faults per mutated cell")
    parser.add_argument("--checkpoint", metavar="PATH", default=None,
                        help="write the full campaign state there after "
                             "every batch (for --resume)")
    parser.add_argument("--resume", metavar="PATH", default=None,
                        help="pick a campaign up from a checkpoint file; a "
                             "config flag given with it (--mode, --seed, "
                             "--kinds, --budget-cells, ...) must equal the "
                             "checkpoint's value, else exit 2")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip minimizing a reproducer per violation")
    args = parser.parse_args(argv)
    reject_unwritable(parser, args, "--json", "--results-db", "--checkpoint")

    given = {"campaign": _given(args, _CAMPAIGN_FLAGS),
             "fuzz": _given(args, ("budget_cells", "batch_size", "order_max"))}
    saved, resume_state = {"campaign": {}, "fuzz": {}}, None
    if args.resume is not None:
        try:
            loaded, resume_state = load_checkpoint(args.resume)
        except ValueError as exc:  # the file is outside input: one line, no traceback
            parser.error(f"--resume {args.resume}: {exc}")
        saved = loaded.as_dict()
    config = _config(parser, FuzzConfig.from_dict,
                     {section: {**saved[section], **given[section]} for section in saved})
    shape = config.as_dict()
    for section, written in saved.items():
        for key, value in written.items():
            if shape[section][key] != value:
                parser.error(f"{_flag(key)} {shape[section][key]!r} disagrees with "
                             f"the checkpoint's {value!r}")
    started = time.perf_counter()
    report = run_fuzz(
        config,
        jobs=args.jobs,
        shrink=not args.no_shrink,
        checkpoint=args.checkpoint,
        resume=resume_state,
    )
    print(render_fuzz_summary(report))
    print(f"wall clock {time.perf_counter() - started:.3f}s")
    _emit_report(args, report, f"campaign-fuzz:{config.campaign.mode}@{config.campaign.seed}")
    return 0


@cli
def main(argv: list[str] | None = None) -> int:
    if argv and argv[0] == "fuzz":
        return fuzz_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness campaign",
        description="Sweep the fault catalogue and audit every cell for P1-P4.",
    )
    _add_shared_options(parser, report="campaign", unit="cells")
    parser.add_argument("--order", type=int, dest="max_order", metavar="K",
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
        outcome = replay(args.replay)
        status = "reproduced" if outcome["reproduced"] else "NOT reproduced"
        print(f"{outcome['cell']}: {status}")
        for violation in outcome["violations"]:
            print(f"  P{violation['principle']} [{violation['subject']}]: "
                  f"{violation['description']}")
        return 0 if outcome["reproduced"] else 1

    reject_unwritable(parser, args, "--json", "--results-db")
    config = replace(
        _config(parser, CampaignConfig.from_dict, _given(args, (*_CAMPAIGN_FLAGS, "max_order"))),
        fail_fast=args.fail_fast,
    )
    started = time.perf_counter()
    try:
        report = run_campaign(
            config,
            jobs=args.jobs,
            shrink=not args.no_shrink,
            profile=args.profile,
        )
    except (WorkerFailure, PrincipleViolationError) as exc:
        # --fail-fast froze a cell at its first live violation, in-process (shrink
        # replays) or in the runner, whose message names cell and violation.
        if isinstance(exc, WorkerFailure) and "PrincipleViolationError" not in str(exc):
            raise
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
