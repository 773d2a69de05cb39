"""Rank-based preemption: the owner's Rank expression decides who runs."""

import pytest

from repro.condor import Job, JobState, Pool, PoolConfig, ProgramImage, Universe
from repro.condor.daemons.config import CondorConfig
from repro.jvm.program import JavaProgram, Step
from repro.sim.machine import OwnerPolicy

from tests.condor.test_match_index import job_ad, machine_ad, make_matchmaker

MB = 2**20

BOSS_FIRST = OwnerPolicy(rank_expr='ifThenElse(TARGET.owner == "boss", 10, 1)')


def job(job_id, owner, work=100.0, universe=Universe.JAVA, n_steps=1):
    steps = [Step.compute(work / n_steps) for _ in range(n_steps)]
    return Job(job_id, owner=owner, universe=universe,
               image=ProgramImage(f"{job_id}.bin", program=JavaProgram(steps=steps)))


def preemptive_pool(n_extra_machines=0, checkpointing=True):
    condor = CondorConfig(error_mode="scoped", preemption=True,
                          checkpointing=checkpointing)
    pool = Pool(PoolConfig(n_machines=n_extra_machines, condor=condor))
    pool.add_machine("prized", policy=BOSS_FIRST, memory=1024 * MB)
    return pool


class TestPreemption:
    def test_boss_job_preempts_peon(self):
        pool = preemptive_pool()
        peon = job("1.0", "peon", work=500.0)
        pool.submit(peon)
        pool.run(until=60.0)
        assert peon.state is JobState.RUNNING
        boss = job("2.0", "boss", work=20.0)
        pool.submit(boss)
        pool.run_until_done(max_time=200_000)
        assert boss.state is JobState.COMPLETED
        assert peon.state is JobState.COMPLETED
        evictions = [a for a in peon.attempts if a.error_name.startswith("Evicted")]
        assert evictions, "the peon should have been preempted"
        # The boss ran while the peon was out.
        assert boss.attempts[0].ended < peon.attempts[-1].ended

    def test_no_preemption_without_config(self):
        condor = CondorConfig(error_mode="scoped", preemption=False)
        pool = Pool(PoolConfig(n_machines=0, condor=condor))
        pool.add_machine("prized", policy=BOSS_FIRST, memory=1024 * MB)
        peon = job("1.0", "peon", work=200.0)
        pool.submit(peon)
        pool.run(until=60.0)
        boss = job("2.0", "boss", work=20.0)
        pool.submit(boss)
        pool.run_until_done(max_time=200_000)
        # Boss waited: no eviction happened.
        assert all(not a.error_name.startswith("Evicted") for a in peon.attempts)
        assert boss.attempts[0].started >= peon.attempts[0].ended

    def test_equal_rank_does_not_churn(self):
        """Strictly-greater rank is required: equals never preempt."""
        pool = preemptive_pool()
        first = job("1.0", "peon", work=200.0)
        pool.submit(first)
        pool.run(until=60.0)
        second = job("2.0", "peon2", work=20.0)  # same rank (1) as peon
        pool.submit(second)
        pool.run_until_done(max_time=200_000)
        assert all(not a.error_name.startswith("Evicted") for a in first.attempts)

    def test_preempted_standard_job_resumes_from_checkpoint(self):
        pool = preemptive_pool()
        peon = job("1.0", "peon", work=400.0, universe=Universe.STANDARD, n_steps=20)
        pool.submit(peon)
        pool.run(until=150.0)
        assert peon.state is JobState.RUNNING
        boss = job("2.0", "boss", work=20.0)
        pool.submit(boss)
        pool.run_until_done(max_time=500_000)
        assert peon.state is JobState.COMPLETED
        # Checkpointing bounded the loss: at most one step re-executed
        # per eviction.
        evictions = sum(1 for a in peon.attempts if a.error_name.startswith("Evicted"))
        assert evictions >= 1
        assert peon.steps_executed <= 20 + evictions

    def test_preempted_job_finds_another_machine(self):
        pool = preemptive_pool(n_extra_machines=1)  # exec000 has rank 0
        peon = job("1.0", "peon", work=300.0)
        peon.rank = 'ifThenElse(TARGET.machine == "prized", 5, 0)'
        pool.submit(peon)
        pool.run(until=60.0)
        assert peon.attempts[0].site == "prized"
        boss = job("2.0", "boss", work=300.0)
        boss.requirements = 'TARGET.machine == "prized"'
        pool.submit(boss)
        pool.run_until_done(max_time=500_000)
        assert peon.state is JobState.COMPLETED
        assert boss.state is JobState.COMPLETED
        # The peon's final home was the ordinary machine.
        assert peon.attempts[-1].site == "exec000"


class TestMalformedCurrentRank:
    def test_a_non_numeric_current_rank_counts_as_zero(self):
        """CurrentRank is foreign input like a port: a string must not
        raise out of the negotiation loop (it once ended it after one
        cycle), and it ranks like a missing value."""
        sim, mm = make_matchmaker(preemption=True, negotiation_interval=10)
        job = job_ad("TRUE", scheddhost="sub", scheddport=9600)
        for current, preempts in ((0.0, True), (1.0, False), ("high", True)):
            claimed = machine_ad("prized", state="claimed", currentrank=current, rank=1)
            mm.receive_ad("machine", "prized", claimed)
            assert (mm._best_machine(job) is not None) is preempts, current
        mm.receive_ad("job", "sub#1", job)
        sim.run(until=50.0)
        assert mm.cycles_run == 5
