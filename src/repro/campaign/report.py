"""Console rendering for campaign reports.

The JSON report (:func:`repro.campaign.engine.run_campaign`'s return
value) is the artifact; this module is only its human-readable face --
one row per cell, violation counts per principle, the live/post-hoc
cross-check, and whether a reproducer was minimized.  When the campaign
ran with ``--profile``, each cell record carries a sim-time attribution
section and :func:`render_cell_profiles` turns it into per-cell
"where time went" tables.
"""

from __future__ import annotations

from repro.harness.report import Table
from repro.obs.summary import RunSummary

__all__ = ["makespan_footer", "render_cell_profiles", "render_fuzz_summary", "render_summary"]

#: Attribution triples each per-cell "where time went" table shows.
CELL_PROFILE_TOP_N = 5


def makespan_footer(cells: list[dict]) -> str | None:
    """The GridConsole jobs-panel footer over a whole campaign: every cell's
    job makespans pooled into one :class:`~repro.obs.summary.RunSummary`.
    None when no cell finished a job, so callers emit no footer rather than
    a degenerate one."""
    pooled = RunSummary()
    for record in cells:
        pooled.makespans.extend(record.get("job_makespans") or ())
    return pooled.makespan_footer()


def _add_closing_footers(table: Table, report: dict) -> None:
    """What both summaries end on: pooled makespans, verdict mismatches."""
    footer = makespan_footer(report["cells"])
    if footer is not None:
        table.add_footer(footer)
    mismatches = report["totals"]["live_mismatches"]
    if mismatches:
        table.add_footer(
            f"WARNING: {mismatches} cell(s) where live and post-hoc verdicts disagree"
        )


def _principle_counts(violations: list[dict]) -> dict[int, int]:
    counts = {1: 0, 2: 0, 3: 0, 4: 0}
    for violation in violations:
        counts[violation["principle"]] += 1
    return counts


def render_summary(report: dict) -> str:
    """The campaign summary table for the console."""
    campaign = report["campaign"]
    table = Table(
        ["cell", "jobs c/h/u", "P1", "P2", "P3", "P4", "live==posthoc", "reproducer"],
        title=(
            f"fault campaign: mode={campaign['mode']} seed={campaign['seed']} "
            f"({report['totals']['cells']} cells)"
        ),
    )
    for record in report["cells"]:
        counts = _principle_counts(record["violations"])
        jobs = record["jobs"]
        # Strip the common mode/seed prefix; the title already carries it.
        label = record["cell"].split("/", 2)[-1]
        table.add_row([
            label,
            f"{jobs['completed']}/{jobs['held']}/{jobs['unfinished']}",
            counts[1],
            counts[2],
            counts[3],
            counts[4],
            "ok" if record["live_matches_posthoc"] else "MISMATCH",
            "minimal" if record["reproducer"] is not None else "-",
        ])
    totals = report["totals"]
    by_principle = totals["by_principle"]
    table.add_footer(
        f"{totals['violations']} violations in "
        f"{totals['cells_with_violations']}/{totals['cells']} cells  "
        + "  ".join(f"{p}={by_principle[p]}" for p in ("P1", "P2", "P3", "P4"))
    )
    _add_closing_footers(table, report)
    return table.render()


def render_fuzz_summary(report: dict) -> str:
    """The fuzzing-campaign summary for the console.

    A fuzz report carries hundreds of cells, most of them boring by
    construction (no novel coverage), so the table shows the campaign's
    *discoveries* -- one row per distinct violation signature with the
    cell budget spent reaching it and the 1-minimal reproducer order --
    instead of one row per cell.
    """
    campaign = report["campaign"]
    totals = report["totals"]
    table = Table(
        ["violation signature", "found at cell", "order", "minimal orders"],
        title=(
            f"fuzz campaign: mode={campaign['mode']} seed={campaign['seed']} "
            f"({totals['cells']} cells, {totals['batches']} batches)"
        ),
    )
    minimal_orders: dict[str, list[int]] = {}
    for repro in report["reproducers"]:
        minimal_orders.setdefault(repro["signature"], []).append(repro["order"])
    signatures = sorted(
        report["violations"]["signatures"].items(),
        key=lambda item: (item[1]["cells_executed"], item[0]),
    )
    for feature, found in signatures:
        # "viol:P3:subject:description" -> "P3 subject: description"
        _, principle, rest = feature.split(":", 2)
        orders = sorted(set(minimal_orders.get(feature, [])))
        table.add_row([
            f"{principle} {rest.replace(':', ': ', 1)}",
            found["cells_executed"],
            found["order"],
            ",".join(map(str, orders)) if orders else "-",
        ])
    by_principle = totals["by_principle"]
    table.add_footer(
        f"{totals['distinct_violations']} distinct violations "
        f"({totals['violations']} raw) in "
        f"{totals['cells_with_violations']}/{totals['cells']} cells  "
        + "  ".join(f"{p}={by_principle[p]}" for p in ("P1", "P2", "P3", "P4"))
    )
    table.add_footer(
        f"coverage: {totals['features']} features, corpus {totals['corpus']} "
        f"cells, {len(report['reproducers'])} reproducers "
        f"(deepest 1-minimal: order {totals['max_minimal_order']})"
    )
    first = report["violations"]["first_violation_at"]
    everything = report["violations"]["all_principles_at"]
    table.add_footer(
        "first violation at cell "
        + ("-" if first is None else str(first))
        + ", all principles at cell "
        + ("-" if everything is None else str(everything))
    )
    _add_closing_footers(table, report)
    if totals["errors"]:
        table.add_footer(
            f"note: {totals['errors']} cell(s) errored and were recorded "
            f"as cell-error signatures"
        )
    return table.render()


def render_cell_profiles(report: dict) -> str:
    """Per-cell "where time went" tables for a ``--profile`` campaign.

    Cells without a profile section (campaign ran unprofiled) render
    nothing; the empty string keeps callers composable.
    """
    blocks: list[str] = []
    for record in report["cells"]:
        profile = record.get("profile")
        if not profile:
            continue
        table = Table(
            ["daemon", "phase", "scope", "sim time (s)", "events"],
            title=f"where time went: {record['cell']}",
        )
        for triple in profile["top"][:CELL_PROFILE_TOP_N]:
            table.add_row([
                triple["daemon"],
                triple["phase"],
                triple["scope"],
                f"{triple['sim_time']:.3f}",
                triple["events"],
            ])
        table.add_footer(
            f"total {profile['sim_time']:.3f}s over {profile['events']} events"
        )
        blocks.append(table.render())
    return "\n\n".join(blocks)
