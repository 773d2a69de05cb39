"""Standard Universe checkpointing and eviction (§2.1: Condor's
"transparent checkpointing" and "process migration")."""

import pytest

from repro.condor import Job, JobState, Pool, PoolConfig, ProgramImage, Universe
from repro.condor.daemons.config import CondorConfig
from repro.core.scope import ErrorScope
from repro.faults import FaultInjector, OwnerActivity
from repro.jvm.program import JavaProgram, Step

MB = 2**20


def standard_job(job_id="1.0", n_steps=20, step_work=5.0):
    program = JavaProgram(steps=[Step.compute(step_work) for _ in range(n_steps)])
    return Job(
        job_id,
        owner="thain",
        universe=Universe.STANDARD,
        image=ProgramImage(f"job{job_id}.bin", program=program),
    )


def make_pool(checkpointing=True, n=2):
    condor = CondorConfig(error_mode="scoped", checkpointing=checkpointing)
    return Pool(PoolConfig(n_machines=n, condor=condor))


class TestCheckpointing:
    def test_clean_run_completes_and_counts_steps(self):
        pool = make_pool()
        job = standard_job(n_steps=10)
        pool.submit(job)
        pool.run_until_done(max_time=50_000)
        assert job.state is JobState.COMPLETED
        assert job.steps_executed == 10
        assert job.checkpoint == 10

    def test_eviction_is_remote_resource_scope(self):
        pool = make_pool()
        job = standard_job(n_steps=40, step_work=5.0)
        pool.submit(job)
        injector = FaultInjector(pool)
        injector.schedule(OwnerActivity("exec000"), at=60.0, until=200.0)
        injector.schedule(OwnerActivity("exec001"), at=60.0, until=200.0)
        pool.run_until_done(max_time=100_000)
        assert job.state is JobState.COMPLETED
        evictions = [a for a in job.attempts if a.error_name.startswith("Evicted")]
        assert evictions
        assert evictions[0].error_scope is ErrorScope.REMOTE_RESOURCE

    def test_checkpoint_resumes_where_it_left_off(self):
        """With checkpointing, an evicted job re-executes almost nothing."""
        pool = make_pool(checkpointing=True)
        job = standard_job(n_steps=30, step_work=5.0)
        pool.submit(job)
        injector = FaultInjector(pool)
        injector.schedule(OwnerActivity("exec000"), at=60.0, until=120.0)
        injector.schedule(OwnerActivity("exec001"), at=60.0, until=120.0)
        pool.run_until_done(max_time=100_000)
        assert job.state is JobState.COMPLETED
        # Each step checkpoints, so at most one step is re-executed per
        # eviction.
        evictions = sum(1 for a in job.attempts if a.error_name.startswith("Evicted"))
        assert job.steps_executed <= 30 + evictions

    def test_without_checkpointing_work_is_lost(self):
        pool = make_pool(checkpointing=False)
        job = standard_job(n_steps=30, step_work=5.0)
        pool.submit(job)
        injector = FaultInjector(pool)
        injector.schedule(OwnerActivity("exec000"), at=60.0, until=120.0)
        injector.schedule(OwnerActivity("exec001"), at=60.0, until=120.0)
        pool.run_until_done(max_time=100_000)
        assert job.state is JobState.COMPLETED
        assert job.checkpoint == 0 or job.checkpoint == 30  # never used to resume
        # The evicted attempt's progress was thrown away and re-executed.
        assert job.steps_executed > 30

    def test_checkpointing_beats_no_checkpointing(self):
        """The ablation shape: same eviction schedule, less wasted work."""

        def run(checkpointing):
            pool = make_pool(checkpointing=checkpointing)
            job = standard_job(n_steps=30, step_work=5.0)
            pool.submit(job)
            injector = FaultInjector(pool)
            injector.schedule(OwnerActivity("exec000"), at=60.0, until=120.0)
            injector.schedule(OwnerActivity("exec001"), at=60.0, until=120.0)
            pool.run_until_done(max_time=100_000)
            assert job.state is JobState.COMPLETED
            return job.steps_executed

        assert run(True) < run(False)

    def test_machine_with_owner_active_not_matched(self):
        pool = make_pool(n=1)
        FaultInjector(pool).schedule(OwnerActivity("exec000"), at=0.0, until=500.0)
        job = standard_job(n_steps=2, step_work=1.0)
        pool.submit(job)
        pool.run(until=300.0)
        assert job.state is JobState.IDLE  # policy FALSE refuses matches
        pool.run_until_done(max_time=50_000)
        assert job.state is JobState.COMPLETED  # owner left; job ran

    def test_resume_restores_heap_state(self):
        """A resumed program re-acquires the heap its checkpoint held."""
        from repro.jvm.machine import Jvm
        from repro.chirp.client import LocalIoLibrary
        from repro.sim.engine import Simulator
        from repro.sim.machine import Machine

        sim = Simulator()
        machine = Machine(sim, "m")
        machine.scratch.mkdir("/scratch/j", parents=True)
        program = JavaProgram(
            steps=[Step.allocate(8 * MB), Step.compute(1.0), Step.free(8 * MB),
                   Step.compute(1.0)]
        )
        jvm = Jvm(sim, machine)
        io = LocalIoLibrary(machine.scratch, "/scratch/j")
        image = ProgramImage("x", program=program)
        proc = machine.processes.spawn(
            "resume", jvm.run_bare(image, program, io, 32 * MB, start_at=2)
        )
        sim.run()
        assert proc.status.code == 0
        assert machine.memory_used == 0  # freed the restored heap + base
