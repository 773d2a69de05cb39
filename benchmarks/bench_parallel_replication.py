"""Serial vs. process-parallel replication: wall clock at 1/2/4/8 workers.

The determinism contract makes per-seed runs independent, so replication
should scale with cores until process startup and the merge dominate.
This bench replicates the headline naive-vs-scoped experiment across
eight seeds at each worker count, asserts the parallel samples are
bit-identical to serial (the contract benches must never trade away),
and prints the speedup table.  The speedup assertion only applies where
the hardware can physically provide one (>= 4 CPUs).
"""

import os

from repro.harness.experiments import run_naive_vs_scoped
from repro.harness.replicate import replicate
from repro.harness.report import Table

SEEDS = list(range(8))
WORKER_COUNTS = (1, 2, 4, 8)


def replication_workload(seed: int) -> dict[str, float]:
    """One seed of the headline experiment, as a replication row."""
    result = run_naive_vs_scoped(seed=seed, n_jobs=12, n_machines=4)
    return {
        "naive_incidental": float(result.naive.user_visible_incidental),
        "scoped_incidental": float(result.scoped.user_visible_incidental),
        "naive_badput": float(result.naive.badput_seconds),
        "scoped_goodput": float(result.scoped.goodput_seconds),
    }


def test_parallel_replication_speedup():
    replications = {
        workers: replicate(replication_workload, SEEDS, workers=workers)
        for workers in WORKER_COUNTS
    }
    serial = replications[1]
    # The merge contract: parallel output is bit-identical to serial.
    for workers, rep in replications.items():
        assert rep.seeds == serial.seeds, workers
        for name, values in serial.samples.items():
            assert values == rep.samples[name], (workers, name)

    table = Table(
        ["workers", "wall clock (s)", "speedup", "per-seed mean (s)"],
        title=f"parallel replication, {len(SEEDS)} seeds of naive_vs_scoped "
              f"({os.cpu_count()} CPUs)",
    )
    for workers in WORKER_COUNTS:
        rep = replications[workers]
        per_seed = sum(rep.seed_seconds) / len(rep.seed_seconds)
        table.add_row([
            workers,
            round(rep.wall_seconds, 3),
            round(serial.wall_seconds / rep.wall_seconds, 2),
            round(per_seed, 3),
        ])
    print()
    print(table.render())

    if (os.cpu_count() or 1) >= 4:
        speedup = serial.wall_seconds / replications[4].wall_seconds
        assert speedup > 1.5, f"4 workers only {speedup:.2f}x over serial"
