"""Machine churn: the leave/rejoin lifecycle and the defenses under it.

A grid is a community of machines that come and go (§2.1); this file
pins the whole churn story: graceful leaves retract ads at the
matchmaker, crash-leaves surface as *explicit* REMOTE_RESOURCE errors at
the schedd (satellite 2), schedds forget a departed site's avoidance
record (satellite 1), the startd's periodic self-test re-admits a
repaired black hole (satellite 3), and the deterministic
:class:`ChurnGenerator` drives all of it reproducibly.
"""

from repro.condor import Job, JobState, Pool, PoolConfig, ProgramImage, Universe
from repro.condor.daemons.config import CondorConfig
from repro.condor.grid import ChurnGenerator, Grid, GridConfig, GridPoolSpec
from repro.core.scope import ErrorScope
from repro.faults import FaultInjector, MisconfiguredJvm
from repro.jvm.program import JavaProgram, Step


def java_job(job_id="1.0", work=5.0, **kw):
    program = JavaProgram(steps=[Step.compute(work)], handles=set())
    return Job(
        job_id=job_id,
        owner="thain",
        universe=Universe.JAVA,
        image=ProgramImage(f"job{job_id}.class", program=program),
        **kw,
    )


def make_pool(n=3, **condor_kw):
    condor = CondorConfig(error_mode="scoped", **condor_kw)
    return Pool(PoolConfig(n_machines=n, condor=condor))


def run_until_running(pool, job, step=1.0, max_time=300.0):
    """Advance the simulation until *job* has a live attempt somewhere."""
    while pool.sim.now < max_time:
        pool.run(pool.sim.now + step)
        if job.state is JobState.RUNNING and job.attempts:
            return job.attempts[-1].site
    raise AssertionError(f"job never started running by t={max_time}")


class TestLeaveLifecycle:
    def test_graceful_leave_retracts_ads_and_parks_the_machine(self):
        pool = make_pool(n=2)
        pool.run(30.0)  # let the startds advertise
        assert "exec000" in pool.matchmaker.machine_ads
        pool.remove_machine("exec000", graceful=True)
        pool.run(pool.sim.now + 5.0)  # the InvalidateAd reaches the matchmaker
        assert "exec000" not in pool.matchmaker.machine_ads
        assert "exec000" not in pool.machines
        assert "exec000" in pool.parked

    def test_crash_leave_ads_age_out_instead(self):
        pool = make_pool(n=2, ad_lifetime=40.0)
        pool.run(10.0)
        assert "exec000" in pool.matchmaker.machine_ads
        pool.remove_machine("exec000", graceful=False)
        # A crashed machine cannot retract its own ads; expiry cleans up.
        pool.run(pool.sim.now + 100.0)
        assert "exec000" not in pool.matchmaker.machine_ads

    def test_rejoin_restores_capacity_under_the_same_name(self):
        pool = make_pool(n=1)
        pool.remove_machine("exec000", graceful=True)
        pool.rejoin_machine("exec000")
        assert "exec000" in pool.machines and not pool.parked
        job = java_job()
        pool.submit(job)
        pool.run_until_done(max_time=50_000)
        assert job.state is JobState.COMPLETED
        assert job.attempts[-1].site == "exec000"

    def test_rejoined_machine_keeps_its_configuration(self):
        """A black hole that churns is still a black hole: rejoin brings
        the same Machine object back, broken Java and all."""
        pool = make_pool(n=2)
        pool.machines["exec000"].java.classpath_ok = False
        pool.remove_machine("exec000", graceful=True)
        machine = pool.rejoin_machine("exec000")
        assert machine is pool.machines["exec000"]
        assert not machine.java.classpath_ok


class TestCrashMidClaim:
    """Satellite 2: a claimed machine vanishing is an explicit
    REMOTE_RESOURCE error at the schedd -- never a silent hang."""

    def test_crash_mid_claim_is_explicit_claim_lost(self):
        pool = make_pool(n=2)
        job = java_job(work=100.0)
        pool.submit(job)
        site = run_until_running(pool, job)
        pool.remove_machine(site, graceful=False)
        pool.run_until_done(max_time=50_000)
        assert job.state is JobState.COMPLETED  # retried on the survivor
        lost = [a for a in job.attempts if a.error_name == "ClaimLost"]
        assert lost, f"no ClaimLost attempt in {[a.error_name for a in job.attempts]}"
        assert lost[0].error_scope is ErrorScope.REMOTE_RESOURCE
        assert lost[0].site == site
        assert job.attempts[-1].site != site

    def test_graceful_leave_mid_claim_is_explicit_eviction(self):
        pool = make_pool(n=2)
        job = java_job(work=100.0)
        pool.submit(job)
        site = run_until_running(pool, job)
        pool.remove_machine(site, graceful=True)
        pool.run_until_done(max_time=50_000)
        assert job.state is JobState.COMPLETED
        evicted = [a for a in job.attempts if a.error_scope is not None]
        assert evicted and evicted[0].site == site
        assert evicted[0].error_scope is ErrorScope.REMOTE_RESOURCE


class TestForgetSiteOnLeave:
    """Satellite 1: a departed machine's avoidance record is evicted, so
    the schedd's strike tables cannot grow without bound under churn."""

    def test_strikes_and_windows_are_dropped_on_removal(self):
        pool = make_pool(n=2, schedd_avoidance=True, avoidance_threshold=1,
                         avoidance_base=1000.0)
        schedd = pool.schedd
        for _ in range(3):
            schedd._note_site_failure("exec000")
        assert "exec000" in schedd.site_failures
        assert "exec000" in schedd.avoided_sites
        pool.remove_machine("exec000", graceful=True)
        assert "exec000" not in schedd.site_failures
        assert "exec000" not in schedd.avoided_sites

    def test_every_schedd_forgets_not_just_the_first(self):
        pool = make_pool(n=2, avoidance_threshold=1)
        second = pool.add_schedd("submit001")
        for schedd in (pool.schedd, second):
            schedd._note_site_failure("exec001")
        pool.remove_machine("exec001", graceful=False)
        assert "exec001" not in pool.schedd.site_failures
        assert "exec001" not in second.site_failures

    def test_rejoined_site_starts_with_a_clean_record(self):
        pool = make_pool(n=2, avoidance_threshold=1)
        pool.schedd._note_site_failure("exec000")
        pool.remove_machine("exec000", graceful=True)
        pool.rejoin_machine("exec000")
        assert "exec000" not in pool.schedd.site_failures


class TestSelfTestReprobe:
    """Satellite 3: the §5 startd self-test re-probes on an interval, so
    a black hole repaired mid-run re-advertises Java and takes work."""

    def test_repaired_black_hole_readmits_and_completes(self):
        pool = make_pool(
            n=1, startd_self_test=True, self_test_interval=30.0,
        )
        injector = FaultInjector(pool)
        # Broken from t=0, repaired at t=100: only the periodic re-probe
        # can notice the repair.
        injector.schedule(MisconfiguredJvm("exec000"), at=0.0, until=100.0)
        job = java_job()
        pool.submit(job)
        pool.run(50.0)
        startd = pool.startds["exec000"]
        assert startd.self_test_result is False
        assert not startd.java_advertised
        assert job.state is not JobState.COMPLETED
        pool.run_until_done(max_time=50_000)
        assert startd.self_test_result is True
        assert startd.java_advertised
        assert job.state is JobState.COMPLETED
        assert job.attempts[-1].site == "exec000"

    def test_without_reprobe_the_boot_result_goes_stale(self):
        """Interval 0 restores the paper's boot-only self-test: a break
        after boot is never noticed, so the startd keeps advertising
        Java it cannot actually run -- the black hole in §5."""
        pool = make_pool(
            n=1, startd_self_test=True, self_test_interval=0.0,
        )
        injector = FaultInjector(pool)
        injector.schedule(MisconfiguredJvm("exec000"), at=0.0)
        job = java_job()
        pool.submit(job)
        pool.run(500.0)
        assert pool.startds["exec000"].java_advertised  # stale boot verdict
        assert job.state is not JobState.COMPLETED


class TestChurnGenerator:
    def _grid(self, seed=0):
        return Grid(GridConfig(
            pools=(GridPoolSpec("a", n_machines=4),),
            seed=seed, flocking=False,
        ))

    def _counts(self, seed):
        grid = self._grid(seed)
        churn = ChurnGenerator(
            grid, grid.rngs.stream("churn"),
            mean_interval=30.0, mean_downtime=20.0, stop=600.0,
        )
        grid.run(1000.0)
        return churn.leaves, churn.joins, churn.crashes

    def test_same_seed_same_churn_schedule(self):
        assert self._counts(7) == self._counts(7)

    def test_different_seeds_differ(self):
        schedules = {self._counts(seed) for seed in range(5)}
        assert len(schedules) > 1

    def test_machines_leave_and_rejoin(self):
        leaves, joins, crashes = self._counts(0)
        assert leaves > 0
        assert joins > 0
        assert crashes <= leaves

    def test_min_alive_floor_is_respected(self):
        grid = self._grid()
        ChurnGenerator(
            grid, grid.rngs.stream("churn"),
            mean_interval=5.0, mean_downtime=500.0, min_alive=2,
        )
        for _ in range(50):
            grid.run(grid.sim.now + 20.0)
            assert len(grid.machines) >= 2

    def test_jobs_complete_through_churn(self):
        grid = self._grid()
        ChurnGenerator(
            grid, grid.rngs.stream("churn"),
            mean_interval=40.0, mean_downtime=30.0, min_alive=1,
        )
        jobs = [java_job(job_id=f"{i}.0", work=20.0) for i in range(8)]
        for i, job in enumerate(jobs):
            grid.submit_at(job, when=5.0 * i)
        grid.run_until_done(max_time=100_000)
        assert all(job.state is JobState.COMPLETED for job in jobs)

    def test_a_flocking_grid_completes_a_burst_while_both_pools_churn(self):
        """48 jobs over 2 + 6 machines, churn on both pools, the flock link
        carrying the overflow: everything completes, some of it remotely."""
        grid = Grid(GridConfig(
            pools=(GridPoolSpec("a", n_machines=2), GridPoolSpec("b", n_machines=6)),
            seed=0,
            condor=CondorConfig(error_mode="scoped", flock_after=30.0, schedd_avoidance=True),
        ))
        churn = ChurnGenerator(
            grid, grid.rngs.stream("bench-churn"),
            mean_interval=90.0, mean_downtime=60.0, min_alive=3,
        )
        jobs = [java_job(job_id=f"{i}.0", work=45.0) for i in range(48)]
        for i, job in enumerate(jobs):
            grid.submit_at(job, when=5.0 * i)
        grid.run_until_done(max_time=500_000, expected_jobs=len(jobs))
        assert all(job.state is JobState.COMPLETED for job in jobs)
        assert churn.leaves > 0 and churn.joins > 0
        assert grid.schedd.jobs_flocked > 0
        assert any(job.attempts[-1].site.startswith("b-") for job in jobs)
