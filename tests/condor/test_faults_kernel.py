"""Fault-path integration tests: the paper's §2.3/§4 story end to end.

Each test injects one fault from the catalogue and checks where the
resulting error lands under the naive and the scoped configurations.
"""

import pytest

from repro.condor import Job, JobState, Pool, PoolConfig, ProgramImage, Universe
from repro.condor.daemons.config import CondorConfig
from repro.core.result import ResultFile, ResultStatus
from repro.core.scope import ErrorScope
from repro.faults import (
    CorruptProgramImage,
    CredentialExpiry,
    FaultInjector,
    HomeDiskFull,
    HomeFilesystemOffline,
    JvmBinaryMissing,
    MemoryPressure,
    MisconfiguredJvm,
    MissingInputFile,
    ScratchDiskFull,
)
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


def make_pool(mode="scoped", n=3, **condor_kw):
    condor = CondorConfig(error_mode=mode, **condor_kw)
    return Pool(PoolConfig(n_machines=n, condor=condor))


class TestScopedPropagation:
    """Under the fixed system, each fault lands at its Figure-3 scope."""

    def test_misconfigured_jvm_retried_elsewhere(self):
        pool = make_pool()
        injector = FaultInjector(pool)
        injector.schedule(MisconfiguredJvm("exec000"))
        job = java_job()
        pool.submit(job)
        pool.run_until_done(max_time=50_000)
        assert job.state is JobState.COMPLETED  # retried and succeeded
        failed = [a for a in job.attempts if a.error_scope is not None]
        assert failed and failed[0].site == "exec000"
        assert failed[0].error_scope is ErrorScope.REMOTE_RESOURCE

    def test_memory_pressure_is_vm_scope_and_retried(self):
        pool = make_pool()
        injector = FaultInjector(pool)
        injector.schedule(MemoryPressure("exec000", 250 * MB))
        job = java_job(
            steps=[Step.allocate(64 * MB), Step.compute(1.0)],
            heap_request=128 * MB,
        )
        pool.submit(job)
        pool.run_until_done(max_time=50_000)
        assert job.state is JobState.COMPLETED
        failed = [a for a in job.attempts if a.error_scope is not None]
        assert failed and failed[0].error_scope is ErrorScope.VIRTUAL_MACHINE
        assert failed[0].error_name == "OutOfMemoryError"

    def test_corrupt_image_held_as_unexecutable(self):
        pool = make_pool()
        job = java_job()
        pool.submit(job)
        FaultInjector(pool).schedule(CorruptProgramImage(job.job_id))
        pool.run_until_done(max_time=50_000)
        assert job.state is JobState.HELD
        assert "unexecutable" in job.hold_reason
        assert len(job.attempts) == 1  # no pointless retries for job scope

    def test_missing_input_held_as_unexecutable(self):
        pool = make_pool()
        job = java_job()
        pool.submit(job)
        FaultInjector(pool).schedule(MissingInputFile(job.job_id))
        pool.run_until_done(max_time=50_000)
        assert job.state is JobState.HELD
        assert len(job.attempts) == 1

    def test_jvm_binary_missing_retried_elsewhere(self):
        pool = make_pool()
        FaultInjector(pool).schedule(JvmBinaryMissing("exec000"))
        job = java_job()
        pool.submit(job)
        pool.run_until_done(max_time=50_000)
        assert job.state is JobState.COMPLETED
        failed = [a for a in job.attempts if a.error_scope is not None]
        assert failed and failed[0].site == "exec000"
        assert failed[0].error_name.startswith("JvmBinaryMissing")
        assert failed[0].error_scope is ErrorScope.REMOTE_RESOURCE

    def test_scratch_disk_full_retried_elsewhere(self):
        pool = make_pool()
        FaultInjector(pool).schedule(ScratchDiskFull("exec000"))
        job = java_job()
        pool.submit(job)
        pool.run_until_done(max_time=50_000)
        assert job.state is JobState.COMPLETED
        failed = [a for a in job.attempts if a.error_scope is not None]
        assert failed[0].error_scope is ErrorScope.REMOTE_RESOURCE

    def test_transient_home_fs_outage_retried_until_it_heals(self):
        pool = make_pool()
        injector = FaultInjector(pool)
        pool.home_fs.write_file("/home/user/in.dat", b"x")
        injector.schedule(HomeFilesystemOffline(), at=0.0, until=400.0)
        job = java_job(steps=[Step.read("/home/user/in.dat"), Step.exit(0)])
        pool.submit(job)
        pool.run_until_done(max_time=50_000)
        assert job.state is JobState.COMPLETED
        assert any(
            a.error_scope is ErrorScope.LOCAL_RESOURCE for a in job.attempts[:-1]
        )

    def test_credential_expiry_is_local_resource(self):
        pool = make_pool()
        injector = FaultInjector(pool)
        pool.home_fs.write_file("/home/user/in.dat", b"x")
        injector.schedule(CredentialExpiry(), at=0.0, until=400.0)
        job = java_job(steps=[Step.read("/home/user/in.dat"), Step.exit(0)])
        pool.submit(job)
        pool.run_until_done(max_time=50_000)
        assert job.state is JobState.COMPLETED
        failed = [a for a in job.attempts if a.error_scope is not None]
        assert failed and failed[0].error_scope is ErrorScope.LOCAL_RESOURCE
        assert failed[0].error_name == "CredentialExpiredError"

    def test_home_disk_full_is_program_result(self):
        """DiskFull is *within* the I/O contract: the program sees it."""
        pool = make_pool()
        FaultInjector(pool).schedule(HomeDiskFull())
        job = java_job(steps=[Step.write("/home/user/out", b"data")])
        pool.submit(job)
        pool.run_until_done(max_time=50_000)
        assert job.state is JobState.COMPLETED
        assert job.final_result.status is ResultStatus.EXCEPTION
        assert job.final_result.exception_name == "DiskFullException"

    def test_user_visible_errors_scoped_is_zero_for_transients(self):
        pool = make_pool()
        FaultInjector(pool).schedule(MisconfiguredJvm("exec000"))
        jobs = [java_job(f"1.{i}") for i in range(5)]
        for job in jobs:
            pool.submit(job)
        pool.run_until_done(max_time=100_000)
        assert all(j.state is JobState.COMPLETED for j in jobs)
        assert not any(e.error for e in pool.userlog.events)


class TestNaivePropagation:
    """Under the §2.3 system, the same faults land on the user."""

    def test_misconfigured_jvm_returned_to_user(self):
        pool = make_pool(mode="naive", n=1)
        FaultInjector(pool).schedule(MisconfiguredJvm("exec000"))
        job = java_job()
        job.expected_result = ResultFile.completed(0)
        pool.submit(job)
        pool.run_until_done(max_time=50_000)
        # The bare JVM exits 1; the naive system sells it as a result.
        assert job.state is JobState.COMPLETED
        assert job.final_result.exit_code == 1
        assert len(job.attempts) == 1  # no retry: the user got the mess

    def test_memory_pressure_returned_to_user(self):
        pool = make_pool(mode="naive", n=1)
        FaultInjector(pool).schedule(MemoryPressure("exec000", 250 * MB))
        job = java_job(steps=[Step.allocate(64 * MB)], heap_request=128 * MB)
        job.expected_result = ResultFile.completed(0)
        pool.submit(job)
        pool.run_until_done(max_time=50_000)
        assert job.state is JobState.COMPLETED
        assert job.final_result.exit_code == 1

    def test_naive_p1_violation_detected_by_auditor(self):
        from repro.core.principles import PrincipleAuditor

        pool = make_pool(mode="naive", n=1)
        injector = FaultInjector(pool)
        injector.schedule(MisconfiguredJvm("exec000"))
        job = java_job()
        job.expected_result = ResultFile.completed(0)
        pool.submit(job)
        pool.run_until_done(max_time=50_000)
        auditor = PrincipleAuditor()
        violations = auditor.audit_outcomes(injector.audit_outcomes([job]))
        assert len(violations) == 1
        assert violations[0].principle == 1

    def test_scoped_produces_no_p1_violation(self):
        from repro.core.principles import PrincipleAuditor

        pool = make_pool(mode="scoped")
        injector = FaultInjector(pool)
        injector.schedule(MisconfiguredJvm("exec000"))
        job = java_job()
        job.expected_result = ResultFile.completed(0)
        pool.submit(job)
        pool.run_until_done(max_time=50_000)
        auditor = PrincipleAuditor()
        violations = auditor.audit_outcomes(injector.audit_outcomes([job]))
        assert violations == []

    def test_naive_p3_misdelivery_recorded(self):
        from repro.core.propagation import EventType

        pool = make_pool(mode="naive", n=1)
        FaultInjector(pool).schedule(ScratchDiskFull("exec000"))
        job = java_job()
        pool.submit(job)
        pool.run_until_done(max_time=50_000)
        # Starter-detected error -> naive schedd returns it to the user.
        assert job.state is JobState.HELD
        assert pool.trace.count(EventType.MISHANDLED) == 1

    def test_scoped_trace_shows_correct_delivery(self):
        from repro.core.propagation import EventType

        pool = make_pool(mode="scoped")
        FaultInjector(pool).schedule(MisconfiguredJvm("exec000"))
        job = java_job(rank='ifThenElse(TARGET.machine == "exec000", 10, 0)')
        pool.submit(job)
        pool.run_until_done(max_time=50_000)
        assert pool.trace.count(EventType.DELIVERED) >= 1
        assert pool.trace.count(EventType.MISHANDLED) == 0


class TestInjectorMechanics:
    def test_schedule_future_fault(self):
        pool = make_pool()
        injector = FaultInjector(pool)
        fault = HomeFilesystemOffline()
        injector.schedule(fault, at=100.0, until=200.0)
        assert pool.home_fs.online
        pool.run(until=150.0)
        assert not pool.home_fs.online
        pool.run(until=250.0)
        assert pool.home_fs.online

    def test_truth_for_attempt_overlap(self):
        pool = make_pool()
        injector = FaultInjector(pool)
        injector.schedule(MisconfiguredJvm("exec000"), at=10.0, until=20.0)
        assert injector.truth_for_attempt("exec000", "j", 15.0, 25.0) is ErrorScope.REMOTE_RESOURCE
        assert injector.truth_for_attempt("exec000", "j", 30.0, 40.0) is None
        assert injector.truth_for_attempt("exec001", "j", 15.0, 25.0) is None

    def test_truth_widest_scope_wins(self):
        pool = make_pool()
        injector = FaultInjector(pool)
        injector.schedule(MisconfiguredJvm("exec000"))
        job = java_job("9.9")
        pool.submit(job)
        injector.schedule(CorruptProgramImage("9.9"))
        truth = injector.truth_for_attempt("exec000", "9.9", 0.0, 10.0)
        assert truth is ErrorScope.JOB
