"""Scale and whole-experiment determinism tests."""

import pytest

from repro.condor import Job, JobState, Pool, PoolConfig, ProgramImage, Universe
from repro.faults import FaultInjector, MisconfiguredJvm
from repro.harness.workloads import WorkloadSpec, make_workload
from repro.sim.rng import RngRegistry


class TestScale:
    def test_large_pool_many_jobs(self):
        """20 machines x 60 jobs, with a couple of bad machines mixed in:
        the kernel keeps every promise at (modest) scale."""
        pool = Pool(PoolConfig(n_machines=20, seed=2))
        injector = FaultInjector(pool)
        injector.schedule(MisconfiguredJvm("exec003"))
        injector.schedule(MisconfiguredJvm("exec011"))
        rngs = RngRegistry(2)
        jobs = make_workload(
            WorkloadSpec(n_jobs=60, io_fraction=0.3, exception_fraction=0.1,
                         exit_code_fraction=0.1, mean_work=6.0),
            rngs.stream("scale"),
            home_fs=pool.home_fs,
        )
        for job in jobs:
            pool.submit(job)
        pool.run_until_done(max_time=500_000)
        states = {job.state for job in jobs}
        assert states == {JobState.COMPLETED}
        # Every delivered result matches its expectation.
        for job in jobs:
            assert job.final_result.same_outcome(job.expected_result)

    def test_smp_heavy_pool(self):
        pool = Pool(PoolConfig(n_machines=0, seed=3))
        for i in range(4):
            pool.add_machine(f"smp{i}", slots=4, memory=2048 * 2**20)
        rngs = RngRegistry(3)
        jobs = make_workload(
            WorkloadSpec(n_jobs=32, io_fraction=0.0, exception_fraction=0.0,
                         exit_code_fraction=0.0, mean_work=10.0),
            rngs.stream("smp"),
        )
        for job in jobs:
            pool.submit(job)
        pool.run_until_done(max_time=500_000)
        assert all(j.state is JobState.COMPLETED for j in jobs)
        # 16 slots total: substantial overlap must have happened.
        spans = sorted((j.attempts[0].started, j.attempts[0].ended) for j in jobs)
        overlapping = sum(
            1 for (s1, e1), (s2, _) in zip(spans, spans[1:]) if s2 < e1
        )
        assert overlapping > 10


class TestExperimentDeterminism:
    def test_naive_vs_scoped_reproducible(self):
        from repro.harness import experiments as E

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(E, "NAIVE_JOBS", 10)
            patch.setattr(E, "NAIVE_MACHINES", 3)
            a = E.run_naive_vs_scoped(seed=4)
            b = E.run_naive_vs_scoped(seed=4)
        assert a.table().render() == b.table().render()

    def test_black_hole_reproducible(self):
        from repro.harness import experiments as E

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(E, "BLACK_HOLE_JOBS", 8)
            patch.setattr(E, "BLACK_HOLE_MACHINES", 4)
            patch.setattr(E, "BLACK_HOLES", 1)
            a = E.run_black_hole(seed=4)
            b = E.run_black_hole(seed=4)
        assert a.table().render() == b.table().render()

    def test_different_seeds_differ_somewhere(self):
        from repro.harness import experiments as E

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(E, "FIG1_JOBS", 6)
            patch.setattr(E, "FIG1_MACHINES", 3)
            a = E.run_fig1_kernel(seed=0)
            b = E.run_fig1_kernel(seed=9)
        # Workload draws differ, so some observable must differ (makespan
        # snaps to negotiation-cycle granularity; matches/ads need not).
        assert (a.matches, a.ads_sent, a.makespan) != (b.matches, b.ads_sent, b.makespan)
