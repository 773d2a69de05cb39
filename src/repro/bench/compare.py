"""Regression comparison between two bench runs.

Two classes of field, two classes of check (DESIGN.md determinism
contract):

- **Sim-side fields** (event counts, attributed sim time, critical
  paths, folded stacks, histogram percentiles) are deterministic for a
  given seed.  After stripping the wall keys, the old and new records
  must be *exactly* equal; any difference is a hard failure -- a
  behavioural regression, not noise.
- **Wall-side fields** (``wall_seconds`` stats, ``wall`` counters) are
  measurement.  They are stripped before the equality check and judged
  only against a configurable fractional threshold on the per-case
  minimum round time (the min is the least noisy statistic), with a
  floor below which timings are ignored entirely.
- **Run-protocol fields** (``rounds``, ``rounds_override``) say how the
  measurement was taken, not what the simulation did: the sim-side
  payload is asserted identical across rounds, so a baseline recorded
  at three rounds and a CI run at ``--rounds 1`` must compare equal.
  They are stripped by the same rule.

The strip rule itself (:func:`strip_wall` and its key set) is
:mod:`repro.obs.canonical`'s; it is re-exported here.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any

from repro.obs.canonical import strip_wall

__all__ = [
    "DEFAULT_MIN_WALL_SECONDS",
    "DEFAULT_WALL_THRESHOLD",
    "MissingBaselineError",
    "add_threshold_options",
    "compare_paths",
    "compare_records",
    "strip_wall",
]

#: Default allowed fractional wall slowdown on a case's min round time
#: (1.0 = a 2x slowdown passes).  Shared with ``repro.obs.store`` so
#: ``trend`` / ``diff`` flag regressions by the same rule as the CI gate.
DEFAULT_WALL_THRESHOLD = 1.0
#: Cases whose min round time is below this on both sides are ignored.
DEFAULT_MIN_WALL_SECONDS = 0.05


def add_threshold_options(parser: argparse.ArgumentParser) -> None:
    """``--wall-threshold`` / ``--min-wall-seconds``, as every CLI that
    judges wall time (``repro.bench compare``, the store's ``trend`` and
    ``diff``) spells them."""
    parser.add_argument("--wall-threshold", type=float,
                        default=DEFAULT_WALL_THRESHOLD, metavar="F",
                        help="allowed fractional wall slowdown on a case's min "
                             "round time (default %(default)s = 2x)")
    parser.add_argument("--min-wall-seconds", type=float,
                        default=DEFAULT_MIN_WALL_SECONDS, metavar="S",
                        help="ignore wall values below S on both sides "
                             "(default %(default)s)")


class MissingBaselineError(FileNotFoundError):
    """A comparison side does not exist (or holds no BENCH files).

    Distinct from a regression: a missing baseline means there is
    nothing to compare against -- the caller should exit with its own
    status (the CLI uses 2) rather than report a false regression.
    """


def _diff_paths(old: Any, new: Any, at: str, out: list[str], limit: int = 20) -> None:
    """Collect human-readable paths where *old* and *new* disagree."""
    if len(out) >= limit:
        return
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            here = f"{at}.{key}" if at else str(key)
            if key not in old:
                out.append(f"{here}: only in new")
            elif key not in new:
                out.append(f"{here}: only in old")
            else:
                _diff_paths(old[key], new[key], here, out, limit)
            if len(out) >= limit:
                return
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            out.append(f"{at}: length {len(old)} -> {len(new)}")
            return
        for i, (a, b) in enumerate(zip(old, new)):
            _diff_paths(a, b, f"{at}[{i}]", out, limit)
            if len(out) >= limit:
                return
    elif old != new:
        out.append(f"{at}: {old!r} -> {new!r}")


def compare_records(
    old: dict,
    new: dict,
    wall_threshold: float = DEFAULT_WALL_THRESHOLD,
    min_wall_seconds: float = DEFAULT_MIN_WALL_SECONDS,
    check_wall: bool = True,
) -> list[str]:
    """Problems between two BENCH records for the same benchmark.

    Sim-side differences (after :func:`strip_wall`) are reported
    per-path and are always failures.  A wall regression is reported
    when a case's new minimum round time exceeds the old by more than
    ``wall_threshold`` (fractional -- 1.0 allows a 2x slowdown) *and*
    both minima clear ``min_wall_seconds``.
    """
    name = old.get("bench", "?")
    problems: list[str] = []
    stripped_old, stripped_new = strip_wall(old), strip_wall(new)
    if stripped_old != stripped_new:
        diffs: list[str] = []
        _diff_paths(stripped_old, stripped_new, "", diffs)
        problems.extend(f"{name}: sim-side mismatch at {d}" for d in diffs)
    if not check_wall:
        return problems
    old_cases, new_cases = old.get("cases", {}), new.get("cases", {})
    for case_id in sorted(set(old_cases) & set(new_cases)):
        old_wall = old_cases[case_id].get("wall_seconds") or {}
        new_wall = new_cases[case_id].get("wall_seconds") or {}
        old_min, new_min = old_wall.get("min"), new_wall.get("min")
        if old_min is None or new_min is None:
            continue
        if old_min < min_wall_seconds and new_min < min_wall_seconds:
            continue
        if new_min > old_min * (1.0 + wall_threshold):
            problems.append(
                f"{name}:{case_id}: wall regression "
                f"{old_min:.4f}s -> {new_min:.4f}s "
                f"(> {wall_threshold:+.0%} threshold)"
            )
    return problems


def _bench_files(path: Path, side: str) -> dict[str, Path]:
    # Only a path that does not exist at all is "missing"; an existing
    # directory with no BENCH files still compares (each absent benchmark
    # is then an ordinary problem -- a vanished benchmark must not pass).
    if path.is_dir():
        return {p.name: p for p in sorted(path.glob("BENCH_*.json"))}
    if not path.is_file():
        raise MissingBaselineError(f"{side} {str(path)!r} does not exist")
    return {path.name: path}


def compare_paths(
    old: str | Path,
    new: str | Path,
    wall_threshold: float = DEFAULT_WALL_THRESHOLD,
    min_wall_seconds: float = DEFAULT_MIN_WALL_SECONDS,
    check_wall: bool = True,
) -> tuple[list[str], int]:
    """Compare two BENCH files, or two directories of them, pairwise.

    Returns ``(problems, n_compared)``.  A benchmark present on only one
    side is itself a problem: a silently vanished benchmark must not
    read as a pass.  A side that does not exist at all raises
    :class:`MissingBaselineError` instead -- "no baseline yet" must not
    masquerade as "everything regressed".
    """
    old_files = _bench_files(Path(old), "baseline")
    new_files = _bench_files(Path(new), "candidate")
    problems: list[str] = []
    for missing in sorted(set(old_files) - set(new_files)):
        problems.append(f"{missing}: present in old run only")
    for extra in sorted(set(new_files) - set(old_files)):
        problems.append(f"{extra}: present in new run only")
    shared = sorted(set(old_files) & set(new_files))
    for filename in shared:
        with open(old_files[filename], encoding="utf-8") as fh:
            old_record = json.load(fh)
        with open(new_files[filename], encoding="utf-8") as fh:
            new_record = json.load(fh)
        problems.extend(
            compare_records(
                old_record,
                new_record,
                wall_threshold=wall_threshold,
                min_wall_seconds=min_wall_seconds,
                check_wall=check_wall,
            )
        )
    return problems, len(shared)
