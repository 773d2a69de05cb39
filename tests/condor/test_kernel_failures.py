"""Kernel-level failure injection: crashes, partitions, matchmaker loss.

These are the "failures in Condor itself" (§5): the components of
Figure 1 dying underneath running jobs.
"""

import pytest

from repro.condor import Job, JobState, Pool, PoolConfig, ProgramImage, Universe
from repro.condor.daemons.avoidance import AVOIDANCE_THRESHOLD
from repro.condor.daemons.config import CondorConfig
from repro.core.scope import ErrorScope
from repro.faults import FaultInjector, MachineCrash, MisconfiguredJvm, NetworkPartition
from repro.jvm.program import JavaProgram, Step

MB = 2**20


def java_job(job_id="1.0", steps=None, **kw):
    program = JavaProgram(steps=steps or [Step.compute(5.0)])
    return Job(job_id, owner="thain", universe=Universe.JAVA,
               image=ProgramImage(f"j{job_id}.class", program=program), **kw)


class TestMachineCrash:
    def test_crash_mid_run_retried_elsewhere(self):
        pool = Pool(PoolConfig(n_machines=3))
        injector = FaultInjector(pool)
        job = java_job(steps=[Step.compute(200.0)])
        pool.submit(job)
        # Crash whichever machine gets the job, mid-execution.
        pool.run(until=60.0)
        assert job.state is JobState.RUNNING
        site = job.attempts[0].site
        injector.schedule(MachineCrash(site), at=60.0)
        pool.run_until_done(max_time=100_000)
        assert job.state is JobState.COMPLETED
        failed = [a for a in job.attempts if a.error_scope is not None]
        assert failed and failed[0].site == site
        assert failed[0].error_scope is ErrorScope.REMOTE_RESOURCE
        # The retry landed somewhere else (the dead machine is silent).
        assert job.attempts[-1].site != site

    def test_rebooted_machine_rejoins_pool(self):
        pool = Pool(PoolConfig(n_machines=1))
        injector = FaultInjector(pool)
        injector.schedule(MachineCrash("exec000"), at=0.0, until=300.0)
        job = java_job(steps=[Step.compute(5.0)])
        pool.submit(job)
        pool.run(until=250.0)
        assert job.state is JobState.IDLE  # nowhere to run
        pool.run_until_done(max_time=100_000)
        assert job.state is JobState.COMPLETED
        assert job.attempts[-1].started >= 300.0


class TestPartitions:
    def test_partition_during_execution_is_claim_lost(self):
        pool = Pool(PoolConfig(n_machines=2))
        job = java_job(steps=[Step.compute(300.0)])
        pool.submit(job)
        pool.run(until=60.0)
        assert job.state is JobState.RUNNING
        site = job.attempts[0].site
        injector = FaultInjector(pool)
        injector.schedule(NetworkPartition("submit", site), at=60.0, until=2000.0)
        pool.run_until_done(max_time=200_000)
        assert job.state is JobState.COMPLETED
        lost = [a for a in job.attempts if a.error_name == "ClaimLost"]
        assert lost and lost[0].error_scope is ErrorScope.REMOTE_RESOURCE

    def test_partition_of_central_manager_only_delays(self):
        """Matchmaker unreachable: jobs wait idle, then proceed on heal --
        pool-scope symptoms never reach the user."""
        pool = Pool(PoolConfig(n_machines=2))
        injector = FaultInjector(pool)
        for host in ("submit", "exec000", "exec001"):
            injector.schedule(NetworkPartition(host, "central"), at=0.0, until=400.0)
        job = java_job()
        pool.submit(job)
        pool.run(until=350.0)
        assert job.state is JobState.IDLE
        pool.run_until_done(max_time=100_000)
        assert job.state is JobState.COMPLETED
        assert not any(e.error for e in pool.userlog.events)


class TestScheddPolicies:
    def test_max_retries_exhaustion_holds_job(self):
        condor = CondorConfig(error_mode="scoped", max_retries=3)
        pool = Pool(PoolConfig(n_machines=2, condor=condor))
        injector = FaultInjector(pool)
        injector.schedule(MisconfiguredJvm("exec000"))
        injector.schedule(MisconfiguredJvm("exec001"))  # nowhere good
        job = java_job()
        pool.submit(job)
        pool.run_until_done(max_time=200_000)
        assert job.state is JobState.HELD
        assert "too many retries" in job.hold_reason
        env_failures = sum(1 for a in job.attempts if a.error_scope is not None)
        assert env_failures == 4  # max_retries + the one that tripped it

    def test_avoidance_set_grows_and_is_respected(self):
        condor = CondorConfig(error_mode="scoped", schedd_avoidance=True)
        pool = Pool(PoolConfig(n_machines=3, condor=condor))
        FaultInjector(pool).schedule(MisconfiguredJvm("exec000"))
        jobs = [java_job(f"1.{i}") for i in range(6)]
        for job in jobs:
            pool.submit(job)
        pool.run_until_done(max_time=200_000)
        assert all(j.state is JobState.COMPLETED for j in jobs)
        assert "exec000" in pool.schedd.avoided_sites
        # After avoidance kicked in, exec000 got no more work.
        attempts_on_bad = [
            a for j in jobs for a in j.attempts if a.site == "exec000"
        ]
        assert len(attempts_on_bad) <= AVOIDANCE_THRESHOLD

    def test_duplicate_submit_rejected(self):
        pool = Pool(PoolConfig(n_machines=1))
        job = java_job()
        pool.submit(job)
        with pytest.raises(ValueError):
            pool.submit(java_job())  # same id


class TestPeriodicSelfTest:
    def test_breakage_after_boot_detected_by_periodic_retest(self):
        condor = CondorConfig(
            error_mode="scoped", startd_self_test=True, self_test_interval=50.0
        )
        pool = Pool(PoolConfig(n_machines=1, condor=condor))
        startd = pool.startds["exec000"]
        assert startd.java_advertised  # healthy at boot
        FaultInjector(pool).schedule(MisconfiguredJvm("exec000"), at=10.0)
        pool.run(until=100.0)
        assert not startd.java_advertised  # periodic probe caught it

    def test_repair_readmits_machine(self):
        condor = CondorConfig(
            error_mode="scoped", startd_self_test=True, self_test_interval=50.0
        )
        pool = Pool(PoolConfig(n_machines=1, condor=condor))
        FaultInjector(pool).schedule(MisconfiguredJvm("exec000"), at=10.0, until=200.0)
        job = java_job()
        pool.submit(job)
        pool.run(until=150.0)
        assert job.state is JobState.IDLE  # no java capability anywhere
        pool.run_until_done(max_time=100_000)
        assert job.state is JobState.COMPLETED
        # Periodic testing has a detection lag: an attempt may land in the
        # window before the first retest (t < interval + ad propagation),
        # but never after detection.
        detection_horizon = 50.0 + 30.0  # retest interval + advertise interval
        failed = [a for a in job.attempts if a.error_scope is not None]
        assert all(a.started <= detection_horizon for a in failed)
        # The successful attempt waited for the repair.
        assert job.attempts[-1].started >= 200.0

    def test_startup_self_test_blocks_black_hole(self):
        condor = CondorConfig(error_mode="scoped", startd_self_test=True)
        pool = Pool(PoolConfig(n_machines=0, condor=condor))
        from repro.sim.machine import JavaInstallation

        pool.add_machine("broken", java=JavaInstallation(classpath_ok=False))
        startd = pool.startds["broken"]
        assert startd.self_test_result is False
        assert not startd.java_advertised
        ad = startd.build_ad()
        assert ad.value("hasjava") is False
