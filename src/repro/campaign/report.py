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

__all__ = ["makespan_footer", "render_cell_profiles", "render_fuzz_summary", "render_summary"]


def makespan_footer(cells: list[dict]) -> str | None:
    """The GridConsole jobs-panel footer, over a whole campaign's cells.

    Pools every cell's job makespans into one histogram and quotes the
    same ``p50/p95/p99`` triple via
    :meth:`~repro.obs.metrics.MetricsRegistry.histogram_percentiles`.
    None when no cell finished a job (empty histogram), so callers emit
    no footer rather than a degenerate one.
    """
    from repro.obs.console import render_makespan_footer
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    for record in cells:
        for value in record.get("job_makespans") or ():
            registry.histogram("job_makespan_seconds", value)
    return render_makespan_footer(registry)


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
    footer = makespan_footer(report["cells"])
    if footer is not None:
        table.add_footer(footer)
    if totals["live_mismatches"]:
        table.add_footer(
            f"WARNING: {totals['live_mismatches']} cell(s) where live and "
            f"post-hoc verdicts disagree"
        )
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
    footer = makespan_footer(report["cells"])
    if footer is not None:
        table.add_footer(footer)
    if totals["live_mismatches"]:
        table.add_footer(
            f"WARNING: {totals['live_mismatches']} cell(s) where live and "
            f"post-hoc verdicts disagree"
        )
    if totals["errors"]:
        table.add_footer(
            f"note: {totals['errors']} cell(s) errored and were recorded "
            f"as cell-error signatures"
        )
    return table.render()


def render_cell_profiles(report: dict, top: int = 5) -> str:
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
        for triple in profile["top"][:top]:
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
