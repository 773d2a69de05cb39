"""Run metrics: the quantities the paper's narrative is about.

    "A disciplined error propagation system conserves two precious
    resources: time and aggravation." (§7)

Aggravation is measured as *user-visible incidental errors* and
*postmortems required*; time as goodput, wasted executions, and makespan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.condor.job import Job, JobState
from repro.harness.report import col, key_values

__all__ = ["RunMetrics", "collect_metrics"]


@dataclass
class RunMetrics:
    """Aggregated outcome of one pool run."""

    jobs: int = col("jobs", default=0)
    completed: int = col("completed", default=0)
    held: int = col("held", default=0)
    unfinished: int = col("unfinished", default=0)
    #: jobs whose delivered outcome was correct (matches expectation)
    correct_results: int = col("correct results", default=0)
    #: environmental errors shown to the user as if they were results
    #: (wrong "completions" plus environment-reason holds)
    user_visible_incidental: int = col("user-visible incidental errors", default=0)
    #: terminal outcomes a user must investigate by hand
    postmortems_required: int = col("postmortems required", default=0)
    total_attempts: int = col("total attempts", default=0)
    wasted_attempts: int = col("wasted attempts", default=0)
    #: Condor's classic vocabulary: simulated seconds spent in attempts
    #: that ended in environmental errors (badput) vs. in the attempts
    #: that produced the delivered results (goodput).
    goodput_seconds: float = col("goodput (s)", default=0.0)
    badput_seconds: float = col("badput (s)", default=0.0)
    makespan: float = col("makespan (s)", default=0.0)
    mean_turnaround: float = col("mean turnaround (s)", default=0.0)
    network_bytes: int = col("network bytes", default=0)
    #: real (host) seconds the run took, as opposed to simulated seconds.
    #: Deliberately NOT a column of :meth:`as_rows`: rendered tables must be
    #: bit-reproducible across runs (DESIGN.md §6), so wall clock reaches
    #: the user via table *footers* (CLI, replication) instead of rows.
    wall_clock_seconds: float = 0.0

    def as_rows(self) -> list[list]:
        return key_values(self)


def collect_metrics(
    pool, jobs: list[Job], injector=None, wall_clock: float = 0.0
) -> RunMetrics:
    """Compute :class:`RunMetrics` for *jobs* run on *pool*.

    When *injector* is given, its ground truth refines the incidental
    count: a completion whose result differs from the job's expectation,
    with a fault overlapping the decisive attempt, counts as an incidental
    error the user was wrongly shown.
    """
    if injector is not None:
        injector.stamp_attempts(jobs)
    metrics = RunMetrics(jobs=len(jobs), wall_clock_seconds=wall_clock)
    turnarounds = []
    for job in jobs:
        metrics.total_attempts += job.attempt_count
        for attempt in job.attempts:
            duration = max(0.0, attempt.ended - attempt.started)
            if (
                attempt.error_scope is not None
                and not attempt.error_scope.within_program_contract
            ):
                metrics.wasted_attempts += 1
                metrics.badput_seconds += duration
            elif attempt.succeeded:
                metrics.goodput_seconds += duration
        if job.state is JobState.COMPLETED:
            metrics.completed += 1
            turnarounds.append(
                (job.attempts[-1].ended if job.attempts else job.submitted_at)
                - job.submitted_at
            )
            expected = job.expected_result
            delivered = job.final_result
            if expected is None or (delivered is not None and delivered.same_outcome(expected)):
                metrics.correct_results += 1
            else:
                # The user got a "result" that is not the program's result.
                metrics.postmortems_required += 1
                decisive = job.attempts[-1] if job.attempts else None
                if decisive is not None and decisive.truth_scope is not None:
                    metrics.user_visible_incidental += 1
        elif job.state is JobState.HELD:
            metrics.held += 1
            metrics.postmortems_required += 1
            if not job.hold_reason.startswith("unexecutable"):
                # Holds for job-scope errors are correct deliveries; holds
                # for anything else expose environmental junk to the user.
                metrics.user_visible_incidental += 1
        else:
            metrics.unfinished += 1
    metrics.makespan = pool.sim.now
    metrics.mean_turnaround = (
        sum(turnarounds) / len(turnarounds) if turnarounds else 0.0
    )
    metrics.network_bytes = pool.net.total_traffic()
    return metrics
