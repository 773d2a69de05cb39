"""Integration tests of the Condor kernel: Figure 1's protocols end to end."""

import pytest

from repro.condor import Job, JobState, Pool, PoolConfig, ProgramImage, Universe
from repro.condor.daemons.config import CondorConfig
from repro.core.result import ResultStatus
from repro.jvm.program import JavaProgram, Step

MB = 2**20


def java_job(job_id="1.0", steps=None, handles=None, **kw):
    program = JavaProgram(steps=steps or [Step.compute(5.0)], handles=handles or set())
    return Job(
        job_id=job_id,
        owner="thain",
        universe=Universe.JAVA,
        image=ProgramImage(f"job{job_id}.class", program=program),
        **kw,
    )


@pytest.fixture
def pool():
    return Pool(PoolConfig(n_machines=2, condor=CondorConfig(error_mode="scoped")))


class TestHealthyKernel:
    def test_single_job_completes(self, pool):
        job = java_job()
        pool.submit(job)
        pool.run_until_done(max_time=10_000)
        assert job.state is JobState.COMPLETED
        assert job.final_result.status is ResultStatus.COMPLETED
        assert job.final_result.exit_code == 0

    def test_protocol_sequence_in_userlog(self, pool):
        from repro.condor.userlog import UserLogEventType

        job = java_job()
        pool.submit(job)
        pool.run_until_done(max_time=10_000)
        kinds = [e.type for e in pool.userlog.events if e.job_id == job.job_id]
        assert kinds == [
            UserLogEventType.SUBMIT,
            UserLogEventType.EXECUTE,
            UserLogEventType.TERMINATED,
        ]

    def test_matchmaker_saw_both_parties(self, pool):
        job = java_job()
        pool.submit(job)
        pool.run_until_done(max_time=10_000)
        assert pool.matchmaker.matches_made >= 1
        assert len(pool.matchmaker.machine_ads) == 2

    def test_multiple_jobs_spread_over_machines(self):
        pool = Pool(PoolConfig(n_machines=4))
        jobs = [java_job(f"1.{i}", steps=[Step.compute(50.0)]) for i in range(4)]
        for job in jobs:
            pool.submit(job)
        pool.run_until_done(max_time=50_000)
        assert all(j.state is JobState.COMPLETED for j in jobs)
        sites = {j.attempts[0].site for j in jobs}
        assert len(sites) == 4  # one claim per machine at a time

    def test_more_jobs_than_machines_queue(self):
        pool = Pool(PoolConfig(n_machines=2))
        jobs = [java_job(f"1.{i}", steps=[Step.compute(10.0)]) for i in range(6)]
        for job in jobs:
            pool.submit(job)
        pool.run_until_done(max_time=100_000)
        assert all(j.state is JobState.COMPLETED for j in jobs)

    def test_system_exit_code_reaches_user(self, pool):
        job = java_job(steps=[Step.exit(17)])
        pool.submit(job)
        pool.run_until_done(max_time=10_000)
        assert job.state is JobState.COMPLETED
        assert job.final_result.exit_code == 17

    def test_program_exception_reaches_user_as_result(self, pool):
        """'Users wanted to see program generated errors' (§2.3)."""
        job = java_job(steps=[Step.throw("ArrayIndexOutOfBoundsException")])
        pool.submit(job)
        pool.run_until_done(max_time=10_000)
        assert job.state is JobState.COMPLETED
        assert job.final_result.status is ResultStatus.EXCEPTION
        assert job.final_result.exception_name == "ArrayIndexOutOfBoundsException"

    def test_job_with_remote_io(self, pool):
        pool.home_fs.write_file("/home/user/data.in", b"payload")
        job = java_job(
            steps=[
                Step.read("/home/user/data.in"),
                Step.write("/home/user/data.out", b"processed"),
            ]
        )
        pool.submit(job)
        pool.run_until_done(max_time=10_000)
        assert job.state is JobState.COMPLETED
        assert pool.home_fs.read_file("/home/user/data.out") == b"processed"

    def test_input_file_transfer(self, pool):
        pool.home_fs.write_file("/home/user/table.dat", b"table")
        job = java_job()
        job.input_files = {"table.dat": "/home/user/table.dat"}
        pool.submit(job)
        pool.run_until_done(max_time=10_000)
        assert job.state is JobState.COMPLETED
        # The file landed in some starter scratch directory.
        site = job.attempts[0].site
        scratch = pool.machines[site].scratch
        assert any(path.endswith("/table.dat") for path in scratch._files)

    def test_vanilla_universe_job(self, pool):
        program = JavaProgram(steps=[Step.compute(1.0), Step.exit(5)])
        job = Job(
            "2.0",
            owner="thain",
            universe=Universe.VANILLA,
            image=ProgramImage("a.out", program=program),
        )
        pool.submit(job)
        pool.run_until_done(max_time=10_000)
        assert job.state is JobState.COMPLETED
        assert job.final_result.exit_code == 5

    def test_determinism_same_seed_same_trace(self):
        def run_once():
            pool = Pool(PoolConfig(n_machines=3, seed=11))
            jobs = [java_job(f"1.{i}", steps=[Step.compute(7.0)]) for i in range(5)]
            for job in jobs:
                pool.submit(job)
            end = pool.run_until_done(max_time=50_000)
            return (
                end,
                [(e.time, e.job_id, e.type.value) for e in pool.userlog.events],
                [(j.job_id, j.attempts[0].site) for j in jobs],
            )

        assert run_once() == run_once()

    def test_claimed_machine_not_rematched(self):
        pool = Pool(PoolConfig(n_machines=1))
        long_job = java_job("1.0", steps=[Step.compute(100.0)])
        second = java_job("1.1", steps=[Step.compute(1.0)])
        pool.submit(long_job)
        pool.submit(second)
        pool.run_until_done(max_time=50_000)
        assert long_job.state is JobState.COMPLETED
        assert second.state is JobState.COMPLETED
        # Runs must not have overlapped on the single machine.
        spans = sorted(
            (j.attempts[0].started, j.attempts[0].ended) for j in (long_job, second)
        )
        assert spans[0][1] <= spans[1][0] + 1e-9


class TestOwnerPolicy:
    def test_policy_rejects_mismatched_job(self):
        from repro.sim.machine import OwnerPolicy

        pool = Pool(PoolConfig(n_machines=0))
        pool.add_machine(
            "picky",
            policy=OwnerPolicy(start_expr='TARGET.owner == "boss"'),
        )
        job = java_job()
        pool.submit(job)
        pool.run(until=200.0)
        assert job.state is JobState.IDLE  # never matched

    def test_policy_accepts_matching_owner(self):
        from repro.sim.machine import OwnerPolicy

        pool = Pool(PoolConfig(n_machines=0))
        pool.add_machine(
            "picky",
            policy=OwnerPolicy(start_expr='TARGET.owner == "thain"'),
        )
        job = java_job()
        pool.submit(job)
        pool.run_until_done(max_time=10_000)
        assert job.state is JobState.COMPLETED

    def test_job_requirements_respected(self):
        pool = Pool(PoolConfig(n_machines=0))
        pool.add_machine("small", memory=64 * MB)
        pool.add_machine("big", memory=1024 * MB)
        job = java_job(requirements="TARGET.memory >= 512")
        pool.submit(job)
        pool.run_until_done(max_time=10_000)
        assert job.state is JobState.COMPLETED
        assert job.attempts[0].site == "big"

    def test_rank_prefers_better_machine(self):
        pool = Pool(PoolConfig(n_machines=0))
        pool.add_machine("slow", cpu_speed=0.5)
        pool.add_machine("fast", cpu_speed=4.0)
        job = java_job(rank="TARGET.cpuspeed")
        pool.submit(job)
        pool.run_until_done(max_time=10_000)
        assert job.attempts[0].site == "fast"
