"""Query-side rendering for the results store: run listings, trend
tables across commits, and commit-to-commit diffs.

``trend`` renders one metric's trajectory -- one row per commit in
first-ingestion order, one column per label.  ``diff`` compares what two
commits both recorded of the benchmark of record: a gridbench workload's
``fingerprint`` is the exact side (any difference is a problem, and the
exact counters that moved with it are listed), its wall-flagged metric
rows are the measured side.  Both judge a wall-flagged value by the one
rule here, :func:`wall_regressed` -- a fractional threshold with a floor
below which timings are noise -- and its two options are defined here
and nowhere else.
"""

from __future__ import annotations

import argparse

from repro.harness.report import Table
from repro.obs.store import ResultsStore

__all__ = [
    "DEFAULT_MIN_WALL_SECONDS",
    "DEFAULT_WALL_THRESHOLD",
    "add_threshold_options",
    "diff_commits",
    "render_diff",
    "render_runs",
    "trend_table",
    "wall_regressed",
]

#: Default allowed fractional growth of a wall-flagged value (1.0 = a 2x
#: slowdown passes).
DEFAULT_WALL_THRESHOLD = 1.0
#: Values below this on both sides are too small to judge.
DEFAULT_MIN_WALL_SECONDS = 0.05


def add_threshold_options(parser: argparse.ArgumentParser) -> None:
    """``--wall-threshold`` / ``--min-wall-seconds``, as ``trend`` and
    ``diff`` spell them."""
    parser.add_argument("--wall-threshold", type=float,
                        default=DEFAULT_WALL_THRESHOLD, metavar="F",
                        help="allowed fractional growth of a wall-flagged value "
                             "(default %(default)s = 2x)")
    parser.add_argument("--min-wall-seconds", type=float,
                        default=DEFAULT_MIN_WALL_SECONDS, metavar="S",
                        help="ignore wall values below S on both sides "
                             "(default %(default)s)")


def wall_regressed(
    before: float, after: float, wall_threshold: float, min_wall_seconds: float
) -> bool:
    """The one wall rule: *after* exceeds *before* by more than the
    fractional *wall_threshold*, and the two are not both under the floor."""
    if before < min_wall_seconds and after < min_wall_seconds:
        return False
    return after > before * (1.0 + wall_threshold)


def render_runs(rows: list[dict], strip_wall: bool = False) -> str:
    """The run listing; ``--strip-wall`` drops the wall-side columns so
    the output is byte-identical across hosts and ingestion times."""
    headers = ["run", "kind", "source", "schema", "config", "seed", "payload sha", "bytes"]
    if not strip_wall:
        headers += ["commit", "ingested at"]
    table = Table(headers, title=f"results store: {len(rows)} run(s)")
    for row in rows:
        cells = [
            row["run_id"],
            row["kind"],
            row["source"],
            row["schema"],
            row["config_hash"],
            "-" if row["seed"] is None else row["seed"],
            row["payload_sha"],
            row["payload_bytes"],
        ]
        if not strip_wall:
            cells += [row["commit"], f"{row['ingested_at']:.0f}"]
        table.add_row(cells)
    if not rows:
        table.add_row(["(empty)"] + ["-"] * (len(headers) - 1))
    return table.render()


def trend_table(
    trend: dict,
    wall_threshold: float = DEFAULT_WALL_THRESHOLD,
    min_wall_seconds: float = DEFAULT_MIN_WALL_SECONDS,
) -> tuple[Table, list[str]]:
    """One metric's per-commit trajectory; return (table, regressions).

    A wall-flagged series regresses where a commit's value against the
    previous non-missing one is :func:`wall_regressed`.  Regressed entries
    are marked ``!`` in the table and itemised.
    """
    commits = trend["commits"]
    series = trend["series"]
    labels = list(series)
    regressions: list[str] = []
    flagged: dict[tuple[str, int], bool] = {}
    for label in labels:
        if not trend["wall"].get(label):
            continue
        previous = None
        for i, value in enumerate(series[label]):
            if value is None:
                continue
            if previous is not None and wall_regressed(
                previous, value, wall_threshold, min_wall_seconds
            ):
                flagged[(label, i)] = True
                regressions.append(
                    f"{trend['metric']}[{label}]: {previous:.4f} -> {value:.4f} "
                    f"at {commits[i]} (> {wall_threshold:+.0%} threshold)"
                )
            previous = value
    table = Table(
        ["commit"] + labels,
        title=f"trend: {trend['metric']} across {len(commits)} commit(s)",
    )
    for i, sha in enumerate(commits):
        row: list = [sha]
        for label in labels:
            value = series[label][i]
            if value is None:
                row.append("-")
            else:
                text = f"{value:.6g}"
                row.append(f"{text} !" if flagged.get((label, i)) else text)
        table.add_row(row)
    if not commits:
        table.add_row(["(no data)"] + ["-"] * len(labels))
    if regressions:
        table.add_footer(f"{len(regressions)} wall regression(s) flagged (!)")
    return table, regressions


def diff_commits(
    store: ResultsStore,
    commit_a: str,
    commit_b: str,
    wall_threshold: float = DEFAULT_WALL_THRESHOLD,
    min_wall_seconds: float = DEFAULT_MIN_WALL_SECONDS,
) -> dict:
    """Compare what two commits both recorded.

    A gridbench workload is paired with itself at the same seed: a moved
    fingerprint is a problem, itemised by the exact counters that moved
    under it; so is a workload only one side ran.  The pair's wall-flagged
    rows are judged by :func:`wall_regressed`.
    """
    known = store.commits()
    missing = [sha for sha in (commit_a, commit_b) if sha not in known]
    if missing:
        raise LookupError(
            f"commit(s) {', '.join(missing)} not in the results store"
            f" (known: {', '.join(known) if known else 'none'})"
        )
    old, new = store.gridbench_fingerprints(commit_a), store.gridbench_fingerprints(commit_b)
    problems: list[str] = []
    for name in sorted(set(old) - set(new)):
        problems.append(f"{name}: present at {commit_a} only")
    for name in sorted(set(new) - set(old)):
        problems.append(f"{name}: present at {commit_b} only")
    compared = sorted(set(old) & set(new))
    wall_compared = 0
    for name in compared:
        paired = sorted(set(old[name]) & set(new[name]))
        if not paired:
            problems.append(f"{name}: no seed was run at both {commit_a} and {commit_b}")
        for seed, smoke in paired:
            (run_a, print_a), (run_b, print_b) = old[name][seed, smoke], new[name][seed, smoke]
            if print_a != print_b:
                problems.append(
                    f"{name}: fingerprint moved at seed {seed}: {print_a[:12]} -> {print_b[:12]}"
                )
                before, after = (store.run_metrics(r, name, wall=False) for r in (run_a, run_b))
                problems.extend(
                    f"{name}: {metric} {before[metric]:g} -> {after[metric]:g}"
                    for metric in sorted(set(before) & set(after))
                    if before[metric] != after[metric]
                )
            before, after = (store.run_metrics(r, name, wall=True) for r in (run_a, run_b))
            for metric in sorted(set(before) & set(after)):
                wall_compared += 1
                if wall_regressed(before[metric], after[metric], wall_threshold, min_wall_seconds):
                    problems.append(
                        f"{name}: {metric} wall regression at seed {seed}: "
                        f"{before[metric]:.4f} -> {after[metric]:.4f} "
                        f"(> {wall_threshold:+.0%} threshold)"
                    )
    return {
        "commit_a": commit_a,
        "commit_b": commit_b,
        "workloads": compared,
        "wall_metrics": wall_compared,
        "problems": problems,
    }


def render_diff(diff: dict) -> str:
    lines = [
        f"diff {diff['commit_a']} -> {diff['commit_b']}: "
        f"{len(diff['workloads'])} workload(s), "
        f"{diff['wall_metrics']} wall metric(s) compared"
    ]
    lines.extend(f"REGRESSION: {problem}" for problem in diff["problems"])
    lines.append("OK" if not diff["problems"] else f"{len(diff['problems'])} problem(s)")
    return "\n".join(lines)
