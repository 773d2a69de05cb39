"""pool_backlog: a whole pool with a deep queue.

Sixteen machines, 150 jobs all queued at t=0, run until every job is
terminal.  Every daemon and protocol runs: schedd advertise, matchmaker,
claim, shadow, starter, JVM wrapper; 30 % of the jobs do chirp/remote
I/O and 20 % end in a program exception or a nonzero exit code (wanted
results, not failures).  It leans on the matchmaker and ClassAds
differently from ``negotiate_scale``: parse-heavy, narrow pool, deep
queue, where that one is match-heavy with a wide pool.
"""

from __future__ import annotations

import random
from time import perf_counter

from benchmarks.gridbench.layers import CLASSADS, EVERY, REMOTE_IO, SIM

WHY = (
    "16 machines, 150 jobs queued at t=0: every daemon and protocol, parse-heavy deep "
    "queue (schedd re-advertises every idle job); bypasses match scale and the service"
)

FULL = {"machines": 16, "jobs": 150}
SMOKE = {"machines": 4, "jobs": 12}

CROSSES = (
    *SIM, *CLASSADS, *REMOTE_IO, *EVERY,
    "pool.build_s", "pool.run_busy_s", "pool.jobs", "pool.attempts_per_job",
    "pool.events_per_job", "pool.sim_makespan_s", "pool.host_ms_per_job",
    "matchmaker.cycles", "matchmaker.matches",
)
ZERO_OK = ()
PROBES = ()


def _jobs(seed: int, n_jobs: int, home_fs) -> list:
    from repro.harness.workloads import WorkloadSpec, make_workload

    return make_workload(WorkloadSpec(n_jobs=n_jobs), random.Random(seed), home_fs)


def setup(seed: int, smoke: bool, rec, tmp: str) -> dict:
    from repro.condor.pool import Pool, PoolConfig

    size = SMOKE if smoke else FULL
    t0 = perf_counter()
    with rec.span("pool.build"):
        pool = Pool(PoolConfig(n_machines=size["machines"], seed=seed))
    build_s = perf_counter() - t0
    jobs = _jobs(seed, size["jobs"], pool.home_fs)
    with rec.span("pool.submit"):
        for job in jobs:
            pool.submit(job)
    return {"pool": pool, "jobs": jobs, "build_s": build_s}


def run(state: dict, rec) -> None:
    with rec.span("pool.run_until_done"):
        state["pool"].run_until_done()


def finish(state: dict, rec, traced: bool) -> dict:
    pool, jobs = state["pool"], state["jobs"]
    wrong = [
        job.job_id for job in jobs
        if job.final_result is None or not job.final_result.same_outcome(job.expected_result)
    ]
    attempts = sum(job.attempt_count for job in jobs)
    mm = pool.matchmaker
    return {
        "attempted": len(jobs),
        "failed": len(wrong),
        "checks": {
            "every_job_terminal": all(job.is_terminal for job in jobs),
            "every_result_is_the_expected_one": not wrong,
        },
        "fingerprint": {
            "jobs": [
                [job.job_id, job.state.name, job.attempt_count,
                 None if job.final_result is None else str(job.final_result)]
                for job in jobs
            ],
            "sim_now": pool.sim.now,
        },
        "layer": {
            "pool.build_s": state["build_s"],
            "pool.run_busy_s": state["run_s"],
            "pool.jobs": len(jobs),
            "pool.attempts_per_job": attempts / len(jobs),
            "pool.sim_makespan_s": pool.sim.now,
            "pool.host_ms_per_job": state["run_s"] / len(jobs) * 1e3,
            "matchmaker.cycles": mm.cycles_run,
            "matchmaker.matches": mm.matches_made,
        },
        "samples": {},
    }
