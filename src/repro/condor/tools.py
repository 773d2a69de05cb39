"""Operator-facing views of a pool: the condor_status / condor_q analogues.

Pure rendering over live pool state; used by the examples and handy in
interactive exploration.
"""

from __future__ import annotations

from repro.condor.job import JobState
from repro.harness.report import Table

__all__ = [
    "condor_q",
    "condor_status",
    "error_scope_report",
    "timeline",
]


def condor_status(pool) -> str:
    """One row per slot: the startd's current advertisements."""
    table = Table(
        ["name", "state", "memory(MB)", "cpu", "java", "claims", "rejections"],
        title=f"condor_status @ t={pool.sim.now:.1f}",
    )
    for name in sorted(pool.startds):
        startd = pool.startds[name]
        machine = pool.machines[name]
        for slot in range(machine.slots):
            if not machine.online:
                state = "offline"
            elif startd.slot_claimed[slot]:
                state = "claimed"
            else:
                state = "unclaimed"
            table.add_row([
                startd.slot_name(slot),
                state,
                machine.memory_total // machine.slots // 2**20,
                machine.cpu_speed,
                startd.java_advertised,
                startd.claims_granted,
                startd.claims_rejected,
            ])
    return table.render()


def condor_q(pool) -> str:
    """One row per job in the schedd's queue."""
    table = Table(
        ["id", "owner", "universe", "state", "attempts", "result / reason"],
        title=f"condor_q @ t={pool.sim.now:.1f}",
    )
    for schedd in pool.schedds.values():
        for job_id in sorted(schedd.jobs):
            job = schedd.jobs[job_id]
            if job.state is JobState.COMPLETED:
                outcome = str(job.final_result)
            elif job.state is JobState.HELD:
                outcome = job.hold_reason
            else:
                outcome = "-"
            table.add_row([
                job.job_id, job.owner, job.universe.value, job.state.value,
                job.attempt_count, outcome,
            ])
    return table.render()


def timeline(pool, width: int = 64) -> str:
    """An ASCII Gantt chart of every attempt (# = result, x = error).

    One row per job; time scaled to *width* columns across the
    simulation's span.
    """
    attempts = [
        (job, a)
        for schedd in pool.schedds.values()
        for job in schedd.jobs.values()
        for a in job.attempts
    ]
    if not attempts:
        return "(no attempts recorded)"
    horizon = max(
        (a.ended if a.ended >= 0 else pool.sim.now) for _, a in attempts
    )
    horizon = max(horizon, 1e-9)
    lines = [f"timeline 0 .. {horizon:.1f}s  (each column ~{horizon / width:.1f}s)"]
    label_width = max(len(j.job_id) for j, _ in attempts)
    for schedd in pool.schedds.values():
        for job_id in sorted(schedd.jobs):
            job = schedd.jobs[job_id]
            row = [" "] * width
            for attempt in job.attempts:
                end = attempt.ended if attempt.ended >= 0 else pool.sim.now
                lo = min(width - 1, int(attempt.started / horizon * width))
                hi = min(width - 1, max(lo, int(end / horizon * width) - 1))
                mark = "x" if attempt.error_scope is not None else "#"
                for col in range(lo, hi + 1):
                    row[col] = mark
            lines.append(f"{job.job_id.ljust(label_width)} |{''.join(row)}|")
    return "\n".join(lines)


def error_scope_report(pool) -> str:
    """Per-scope counts of environmental errors seen across all attempts."""
    counts: dict[str, int] = {}
    for schedd in pool.schedds.values():
        for job in schedd.jobs.values():
            for attempt in job.attempts:
                if attempt.error_scope is not None:
                    key = f"{attempt.error_scope} ({attempt.error_name})"
                    counts[key] = counts.get(key, 0) + 1
    table = Table(["scope (error)", "occurrences"],
                  title=f"error scopes observed @ t={pool.sim.now:.1f}")
    for key in sorted(counts):
        table.add_row([key, counts[key]])
    if not counts:
        table.add_row(["(none)", 0])
    return table.render()
