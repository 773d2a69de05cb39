#!/usr/bin/env python3
"""A whole grid community in one script (§2.1's "community of computers").

Puts every subsystem on stage at once:

- a heterogeneous pool: PC-cluster machines plus one 4-slot SMP;
- two submission sites (two schedds) with fair-share negotiation;
- jobs written in the Condor submit language;
- one prized machine whose owner prefers (and preempts for) one user;
- a misconfigured machine caught by the startd self-test;
- operator views: condor_status, condor_q, the error-scope report, and
  the scope -> handler map read off the run's error-journey spans.

Run:  python examples/grid_community.py
"""

from repro.condor import Pool, PoolConfig
from repro.condor.daemons.config import CondorConfig
from repro.condor.submit import parse_submit
from repro.condor.tools import condor_q, condor_status, error_scope_report, timeline
from repro.jvm.program import JavaProgram, Step
from repro.obs import ObservationSession
from repro.sim.machine import JavaInstallation, OwnerPolicy

MB = 2**20


def community() -> tuple[Pool, list]:
    """Build the community, run it to completion; return (pool, bob's jobs)."""
    condor = CondorConfig(
        error_mode="scoped",
        startd_self_test=True,
        schedd_avoidance=True,
        fair_share=True,
        preemption=True,
    )
    pool = Pool(PoolConfig(n_machines=3, condor=condor))
    pool.add_machine("bigsmp", slots=4, memory=2048 * MB, cpu_speed=2.0)
    pool.add_machine(
        "prized",
        policy=OwnerPolicy(rank_expr='ifThenElse(TARGET.owner == "carol", 10, 1)'),
    )
    pool.add_machine("brokenjvm", java=JavaInstallation(classpath_ok=False))

    # Alice's sweep, written as a submit file.
    sweep = JavaProgram(steps=[Step.compute(30.0)])
    alice_jobs = parse_submit(
        """
        universe     = java
        executable   = Sweep.class
        owner        = alice
        rank         = TARGET.cpuspeed
        queue 8
        """,
        cluster=1,
        programs={"Sweep.class": sweep},
    )
    for job in alice_jobs:
        pool.submit(job)

    # Bob submits from his own site, a bit later.
    bob_schedd = pool.add_schedd("bobs-site")
    bob_jobs = parse_submit(
        "universe = java\nexecutable = B.class\nowner = bob\nqueue 3\n",
        cluster=2,
        programs={"B.class": JavaProgram(steps=[Step.compute(20.0)])},
    )
    for job in bob_jobs:
        pool.sim.call_at(60.0, lambda j=job: bob_schedd.submit(j))

    # Carol's urgent job preempts whatever squats on her prized machine.
    carol_jobs = parse_submit(
        """
        universe = java
        executable = Urgent.class
        owner = carol
        requirements = TARGET.machine == "prized"
        queue 1
        """,
        cluster=3,
        programs={"Urgent.class": JavaProgram(steps=[Step.compute(15.0)])},
    )
    for job in carol_jobs:
        pool.sim.call_at(90.0, lambda j=job: pool.submit(j))

    pool.run_until_done(max_time=100_000, expected_jobs=12)
    return pool, bob_jobs


def main() -> None:
    with ObservationSession() as session:  # the pool attaches to its bus
        pool, bob_jobs = community()

    print(condor_status(pool))
    print()
    print(condor_q(pool))
    print()
    print("bob's queue:")
    for job in bob_jobs:
        print(f"  {job.job_id}: {job.state.value} {job.final_result}")
    print()
    print(error_scope_report(pool))
    print()
    print(timeline(pool, width=60))
    print()
    print("observed scope -> handler map (cf. Figure 3):")
    handled = session.spans.scope_to_handlers()
    for scope, handlers in sorted(handled.items()):
        print(f"  {scope}: {', '.join(sorted(handlers))}")
    if not handled:
        print("  (no error reached a handler)")
    print()
    evicted = any(
        a.error_name.startswith("Evicted")
        for schedd in pool.schedds.values()
        for job in schedd.jobs.values()
        for a in job.attempts
    )
    print("notes:")
    print(" - brokenjvm advertised no Java capability (self-test), so no job died there;")
    if evicted:
        print(" - carol's job preempted the squatter on 'prized';")
    else:
        print(" - 'prized' happened to be free when carol arrived (no preemption needed);")
    print(" - bob's small batch was not starved by alice's sweep (fair share).")


if __name__ == "__main__":
    main()
