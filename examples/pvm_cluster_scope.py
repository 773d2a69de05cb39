#!/usr/bin/env python3
"""A node failure in PVM has cluster scope (paper §3.3).

    "If one node crashes, then the whole cluster of nodes is obliged to
    fail. ...  The creator of a PVM cluster is capable of handling an
    error of cluster scope."

The same four-node PVM job runs twice on a two-machine pool:

1. healthy: the four nodes compute side by side under one starter and
   the job completes on its first machine;
2. exec000 starved of memory: one node's allocation fails there, so the
   starter -- the cluster's creator -- kills the survivors and reports a
   CLUSTER-scope ``PvmNodeFailed``; the schedd retries the whole cluster
   on exec001, where it completes.

The second run keeps a GridConsole on the pool's telemetry bus: its
error-hops panel shows every hop of that error at CLUSTER scope.

Run:  python examples/pvm_cluster_scope.py
"""

from repro.condor import Job, Pool, PoolConfig, ProgramImage, Universe
from repro.faults import FaultInjector, MemoryPressure
from repro.jvm.program import JavaProgram, Step
from repro.obs.bus import Topic
from repro.obs.console import GridConsole
from repro.pvm import PvmProgram

MB = 2**20


def cluster_job() -> Job:
    """Four nodes, each allocating 4 MB and computing for 30 s."""
    nodes = [
        JavaProgram(name=f"node{i}", steps=[Step.allocate(4 * MB), Step.compute(30.0)])
        for i in range(4)
    ]
    job = Job(
        "1.0",
        owner="thain",
        universe=Universe.PVM,
        image=ProgramImage("cluster.bin", program=PvmProgram(name="cluster", nodes=nodes)),
    )
    job.heap_request = 64 * MB  # 16 MB per node
    return job


def run(starve: bool) -> None:
    pool = Pool(PoolConfig(n_machines=2, seed=1))
    console = GridConsole(pool.bus)
    errors = []
    pool.bus.subscribe(errors.append, topic=Topic.ERROR)
    if starve:
        # Leave exec000 12 MB: three nodes fit, the fourth cannot allocate.
        exec000 = pool.machines["exec000"]
        FaultInjector(pool).schedule(MemoryPressure("exec000", exec000.memory_total - 12 * MB))
    job = cluster_job()
    pool.submit(job)
    pool.run_until_done(max_time=100_000)
    console.detach()

    print(f"=== {'exec000 starved' if starve else 'healthy cluster'} ===")
    print(pool.userlog.render())
    for n, attempt in enumerate(job.attempts, 1):
        outcome = "completed" if attempt.error_scope is None else (
            f"{attempt.error_name} at {attempt.error_scope.name} scope"
        )
        print(f"attempt {n} on {attempt.site}: {outcome}")
    for event in errors:
        print(f"  {event.name:<10} {event.attr('error')} scope={event.attr('scope')} "
              f"managed by {event.attr('manager')}")
    print(f"job {job.job_id}: {job.state.name}")
    if starve:
        print()
        print(console.render())
    print()


def main() -> None:
    run(starve=False)
    run(starve=True)


if __name__ == "__main__":
    main()
