"""The PVM universe: cluster-scope errors (paper §3.3)."""

import pytest

from repro.condor import Job, JobState, Pool, PoolConfig, ProgramImage, Universe
from repro.core.scope import ErrorScope
from repro.faults import FaultInjector, MemoryPressure
from repro.jvm.program import JavaProgram, Step
from repro.pvm import PvmProgram

MB = 2**20


def pvm_job(job_id="1.0", n_nodes=4, node_steps=None, heap=64 * MB):
    nodes = [
        JavaProgram(name=f"node{i}", steps=list(node_steps or [Step.compute(10.0)]))
        for i in range(n_nodes)
    ]
    program = PvmProgram(name="cluster", nodes=nodes)
    job = Job(job_id, owner="thain", universe=Universe.PVM,
              image=ProgramImage("pvm.bin", program=program))
    job.heap_request = heap
    return job


class TestPvmProgram:
    def test_needs_nodes(self):
        with pytest.raises(ValueError):
            PvmProgram(nodes=[])

    def test_n_nodes(self):
        assert pvm_job(n_nodes=3).image.program.n_nodes == 3


class TestPvmExecution:
    def test_healthy_cluster_completes(self):
        pool = Pool(PoolConfig(n_machines=2))
        job = pvm_job()
        pool.submit(job)
        pool.run_until_done(max_time=50_000)
        assert job.state is JobState.COMPLETED
        assert job.final_result.exit_code == 0

    def test_nodes_run_concurrently(self):
        pool = Pool(PoolConfig(n_machines=1))
        job = pvm_job(n_nodes=4, node_steps=[Step.compute(40.0)])
        pool.submit(job)
        pool.run_until_done(max_time=50_000)
        assert job.state is JobState.COMPLETED
        attempt = job.attempts[0]
        # Four 40s nodes in parallel: well under 4 x 40s.
        assert attempt.ended - attempt.started < 100.0

    def test_node_failure_is_cluster_scope(self):
        """'If one node crashes, then the whole cluster of nodes is
        obliged to fail.'"""
        pool = Pool(PoolConfig(n_machines=2))
        injector = FaultInjector(pool)
        # Starve the first machine: one node's allocation fails there.
        injector.schedule(
            MemoryPressure("exec000", pool.machines["exec000"].memory_total - 12 * MB)
        )
        job = pvm_job(
            n_nodes=2,
            node_steps=[Step.allocate(8 * MB), Step.compute(10.0)],
            heap=32 * MB,
        )
        pool.submit(job)
        pool.run_until_done(max_time=100_000)
        assert job.state is JobState.COMPLETED  # retried on the good machine
        failed = [a for a in job.attempts if a.error_scope is not None]
        assert failed and failed[0].error_scope is ErrorScope.CLUSTER
        assert failed[0].error_name.startswith("PvmNodeFailed")
        assert failed[0].site == "exec000"

    def test_cluster_scope_is_retried_not_delivered(self):
        """Cluster scope sits between PROGRAM and JOB: retry elsewhere."""
        assert ErrorScope.CLUSTER.retry_elsewhere
        assert not ErrorScope.CLUSTER.within_program_contract

    def test_surviving_nodes_killed_on_failure(self):
        pool = Pool(PoolConfig(n_machines=1))
        # Node 0 dies quickly; node 1 would run 500s if left alone.
        nodes = [
            JavaProgram(name="dies", steps=[Step.throw("NullPointerException")]),
            JavaProgram(name="longhaul", steps=[Step.compute(500.0)]),
        ]
        job = Job("1.0", owner="t", universe=Universe.PVM,
                  image=ProgramImage("p.bin", program=PvmProgram(nodes=nodes)))
        pool.submit(job)
        pool.run(until=200.0)
        # The long node was killed with the cluster, well before 500s:
        # the machine is already free again (claim released).
        startd = pool.startds["exec000"]
        assert set(startd.slot_claimed.values()) == {None}

    def test_all_scopes_now_have_producers(self):
        """With PVM in place, every interior scope of the taxonomy is
        produced by some subsystem (FILE..JOB)."""
        from repro.core.classify import DEFAULT_CLASSIFIER

        producible = {
            ErrorScope.FILE: ("fs", "ENOENT"),
            ErrorScope.PROGRAM: ("java", "NullPointerException"),
            ErrorScope.PROCESS: ("net", "ECONNRESET"),
            ErrorScope.VIRTUAL_MACHINE: ("java", "OutOfMemoryError"),
            ErrorScope.CLUSTER: ("condor", "PvmNodeFailed"),
            ErrorScope.REMOTE_RESOURCE: ("condor", "JvmMisconfigured"),
            ErrorScope.LOCAL_RESOURCE: ("condor", "HomeFilesystemOffline"),
            ErrorScope.JOB: ("condor", "CorruptProgramImage"),
            ErrorScope.POOL: ("condor", "MatchmakerUnreachable"),
        }
        for scope, (ns, name) in producible.items():
            assert DEFAULT_CLASSIFIER.classify(ns, name).scope is scope
