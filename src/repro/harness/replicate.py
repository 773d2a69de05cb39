"""Seed replication: run an experiment across seeds, report mean +/- std.

Single-seed results can flatter or slander a design; the experiments in
EXPERIMENTS.md assert *shapes*, and this module checks those shapes hold
across seeds.

Replication is embarrassingly parallel (per-seed runs are independent by
the determinism contract), so :func:`replicate` accepts ``workers=`` and
fans seeds out over processes via :class:`repro.harness.parallel.ParallelRunner`.
The merge is in canonical seed order, so ``workers=4`` returns samples
bit-identical to ``workers=1`` for the same seeds.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.harness.parallel import ParallelRunner
from repro.harness.report import Table

__all__ = ["Replication", "replicate"]


@dataclass
class Replication:
    """Aggregated metric samples across seeds."""

    seeds: list[int]
    samples: dict[str, list[float]]  # metric name -> per-seed values
    #: wall-clock seconds each seed's run took, aligned with ``seeds``
    seed_seconds: list[float] = field(default_factory=list)
    #: wall-clock seconds for the whole replication (serial or parallel)
    wall_seconds: float = 0.0

    def mean(self, metric: str) -> float:
        return statistics.fmean(self.samples[metric])

    def std(self, metric: str) -> float:
        return statistics.stdev(self.samples[metric]) if len(self.seeds) > 1 else 0.0

    def min(self, metric: str) -> float:
        return min(self.samples[metric])

    def max(self, metric: str) -> float:
        return max(self.samples[metric])

    def always(self, predicate: Callable[[dict[str, float]], bool]) -> bool:
        """Does *predicate* hold for every individual seed's sample row?"""
        for i in range(len(self.seeds)):
            row = {name: vals[i] for name, vals in self.samples.items()}
            if not predicate(row):
                return False
        return True

    def table(self, title: str = "replication") -> Table:
        table = Table(
            ["metric", "mean", "std", "min", "max"],
            title=f"{title} (n={len(self.seeds)} seeds)",
        )
        for metric in self.samples:
            table.add_row([
                metric,
                round(self.mean(metric), 3),
                round(self.std(metric), 3),
                round(self.min(metric), 3),
                round(self.max(metric), 3),
            ])
        if self.seed_seconds:
            per_seed = sum(self.seed_seconds) / len(self.seed_seconds)
            table.add_footer(
                f"wall clock {self.wall_seconds:.3f}s"
                f" | per-seed mean {per_seed:.3f}s"
                f" (min {min(self.seed_seconds):.3f}s,"
                f" max {max(self.seed_seconds):.3f}s)"
            )
        return table


def replicate(
    run: Callable[[int], dict[str, float]],
    seeds: list[int] | range,
    workers: int = 1,
    timeout: float | None = None,
) -> Replication:
    """Run *run(seed)* for each seed; *run* returns metric-name -> value.

    ``workers > 1`` hands the seeds to that many worker processes one at
    a time; results are merged in canonical seed order, so the
    returned samples are bit-identical to a serial run.  A crashed or
    hung worker raises :class:`repro.harness.parallel.WorkerFailure`
    naming its seeds (it never yields a shorter sample array), and
    ``timeout`` bounds each seed's wall clock when given.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    started = time.perf_counter()
    outcomes = ParallelRunner(run, workers=workers, timeout=timeout).map(seeds)
    wall_seconds = time.perf_counter() - started
    rows = [outcome.value for outcome in outcomes]
    # Canonical metric order is the first row's; later rows may be
    # reported in any insertion order (parallel workers make none
    # canonical), as long as the *set* of metrics matches.
    names = list(rows[0])
    name_set = set(names)
    for row in rows:
        if set(row) != name_set:
            raise ValueError("every run must report the same metrics")
    samples = {name: [float(row[name]) for row in rows] for name in names}
    return Replication(
        seeds=seeds,
        samples=samples,
        seed_seconds=[outcome.seconds for outcome in outcomes],
        wall_seconds=wall_seconds,
    )
