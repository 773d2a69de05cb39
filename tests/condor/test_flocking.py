"""Flocking: overflow to remote pools, link discipline, and GRID scope.

The federation story: a saturated schedd advertises its long-idle jobs
to other pools' matchmakers; a dead remote pool is a POOL-scope error
the grid-aware schedd *masks* by flocking elsewhere; only when the local
pool and every flock link are gone does the error widen to GRID scope
and reach the user.
"""

import pytest

from repro.condor import Job, JobState, ProgramImage, Universe
from repro.condor.daemons import schedd as schedd_mod
from repro.condor.daemons.config import CondorConfig
from repro.condor.daemons.schedd import FlockLink
from repro.condor.grid import Grid, GridConfig, GridPoolSpec
from repro.condor.pool import figure3_chain
from repro.core.propagation import EventType
from repro.core.scope import ErrorScope
from repro.faults import FaultInjector, FlockLinkDown
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


def make_grid(home=1, remote=4, flocking=True, **condor_kw):
    condor_kw.setdefault("flock_after", 20.0)
    condor = CondorConfig(error_mode="scoped", **condor_kw)
    return Grid(GridConfig(
        pools=(GridPoolSpec("a", n_machines=home),
               GridPoolSpec("b", n_machines=remote)),
        condor=condor, flocking=flocking,
    ))


@pytest.fixture
def flock_discipline(monkeypatch):
    """Set the schedd's flock-link retry budget and backoff schedule."""
    def set_discipline(budget, base=schedd_mod.FLOCK_BACKOFF_BASE,
                       cap=schedd_mod.FLOCK_BACKOFF_CAP):
        monkeypatch.setattr(schedd_mod, "FLOCK_RETRY_BUDGET", budget)
        monkeypatch.setattr(schedd_mod, "FLOCK_BACKOFF_BASE", base)
        monkeypatch.setattr(schedd_mod, "FLOCK_BACKOFF_CAP", cap)
    return set_discipline


class TestFlockLinkUnit:
    @pytest.fixture(autouse=True)
    def _discipline(self, flock_discipline):
        flock_discipline(budget=3, base=10.0, cap=80.0)

    def _link(self):
        return FlockLink("central-b")

    def test_starts_up_and_ready(self):
        link = self._link()
        assert not link.down
        assert link.ready(0.0)

    def test_down_only_after_budget_exhausted(self):
        link = self._link()
        assert not link.note_failure(0.0)
        assert not link.note_failure(10.0)
        assert link.note_failure(30.0)  # third strike: newly down
        assert link.down
        assert link.times_down == 1
        assert not link.note_failure(70.0)  # already down: no re-transition

    def test_backoff_doubles_to_the_cap(self):
        link = self._link()
        now, gaps = 0.0, []
        for _ in range(5):
            link.note_failure(now)
            gaps.append(link.next_attempt - now)
            now = link.next_attempt
        assert gaps == [10.0, 20.0, 40.0, 80.0, 80.0]

    def test_not_ready_inside_the_backoff_window(self):
        link = self._link()
        link.note_failure(0.0)
        assert not link.ready(5.0)
        assert link.ready(10.0)

    def test_success_resets_everything_but_times_down(self):
        link = self._link()
        for t in (0.0, 10.0, 30.0):
            link.note_failure(t)
        assert link.down and link.times_down == 1
        assert link.note_success(100.0)  # up-transition reported
        assert not link.down
        assert link.consecutive_failures == 0
        assert link.ready(100.0)
        assert link.times_down == 1  # cumulative: reporting survives recovery


class TestOverflow:
    def test_saturated_home_pool_overflows_to_remote(self):
        grid = make_grid(home=1, remote=4)
        jobs = [java_job(job_id=f"{i}.0", work=60.0) for i in range(8)]
        for job in jobs:
            grid.submit(job)
        grid.run_until_done(max_time=100_000)
        assert all(job.state is JobState.COMPLETED for job in jobs)
        assert grid.schedd.jobs_flocked > 0
        remote = [j for j in jobs if j.attempts[-1].site.startswith("b-")]
        assert remote, "no job ever completed on the remote pool"

    def test_idle_threshold_gates_flocking(self):
        """A briefly idle job is not flocked: only jobs idle for at
        least ``flock_after`` overflow."""
        grid = make_grid(home=2, remote=2, flock_after=10_000.0)
        jobs = [java_job(job_id=f"{i}.0", work=5.0) for i in range(4)]
        for job in jobs:
            grid.submit(job)
        grid.run_until_done(max_time=100_000)
        assert all(job.state is JobState.COMPLETED for job in jobs)
        assert grid.schedd.jobs_flocked == 0
        assert all(j.attempts[-1].site.startswith("a-") for j in jobs)

    def test_no_flocking_flag_keeps_pools_solitary(self):
        grid = make_grid(home=1, remote=4, flocking=False)
        assert grid.schedd.flock_links == []
        jobs = [java_job(job_id=f"{i}.0", work=10.0) for i in range(4)]
        for job in jobs:
            grid.submit(job)
        grid.run_until_done(max_time=100_000)
        assert all(j.attempts[-1].site.startswith("a-") for j in jobs)


    def test_every_ready_link_is_offered_the_same_ads(self):
        """Two links, one batch: both remote matchmakers receive the
        same jobs under the same ads, round after round."""
        condor = CondorConfig(error_mode="scoped", flock_after=20.0)
        grid = Grid(GridConfig(
            pools=tuple(GridPoolSpec(name, n_machines=1) for name in "abc"),
            condor=condor, flocking=True,
        ))
        received = {"b": [], "c": []}
        for name, log in received.items():
            matchmaker = grid.pools[name].matchmaker
            deliver = matchmaker.receive_ad

            def spy(kind, ad_name, ad, log=log, deliver=deliver):
                if kind == "job":
                    log.append((ad_name, ad.render()))
                deliver(kind, ad_name, ad)

            matchmaker.receive_ad = spy
        # Nothing can run these, so they stay idle and keep flocking.
        for i in range(3):
            grid.submit(java_job(job_id=f"{i}.0", requirements="TARGET.memory < 0"))
        grid.sim.run(until=200.0)
        assert len(received["b"]) >= 6  # at least two rounds of three jobs
        assert received["b"] == received["c"]
        assert {name for name, _ in received["b"]} == {
            f"submit-a#{i}.0" for i in range(3)
        }


class TestLinkOutage:
    def test_link_outage_is_masked_and_recovers(self, flock_discipline):
        flock_discipline(budget=2, base=15.0, cap=60.0)
        grid = make_grid(home=1, remote=4)
        injector = FaultInjector(grid)
        injector.schedule(FlockLinkDown(), at=0.0, until=150.0)
        jobs = [java_job(job_id=f"{i}.0", work=60.0) for i in range(6)]
        for job in jobs:
            grid.submit(job)
        grid.run_until_done(max_time=100_000)
        (link,) = grid.schedd.flock_links
        assert link.times_down >= 1  # the outage was detected...
        assert not link.down  # ...and the backoff probe found the heal
        assert grid.schedd.jobs_flocked > 0
        assert all(job.state is JobState.COMPLETED for job in jobs)

    def test_dead_remote_pool_is_pool_scope_not_user_facing(self, flock_discipline):
        """FlockLinkDown errors carry POOL scope, and the federated
        chain delivers POOL to the schedd, which masks by flocking."""
        flock_discipline(budget=2)
        grid = make_grid(home=1, remote=2)
        injector = FaultInjector(grid)
        injector.schedule(FlockLinkDown(), at=0.0)
        # A long queue keeps flock attempts coming while the link is cut.
        jobs = [java_job(job_id=f"{i}.0", work=60.0) for i in range(6)]
        for job in jobs:
            grid.submit(job)
        grid.run_until_done(max_time=100_000)
        assert all(job.state is JobState.COMPLETED for job in jobs)
        flock_events = [ev for ev in grid.trace if ev.error.name == "FlockLinkDown"]
        delivered = [ev for ev in flock_events if ev.event is EventType.DELIVERED]
        assert delivered, "no FlockLinkDown error reached a manager"
        assert all(ev.manager == "schedd" for ev in delivered)
        # POOL scope stops at the grid-aware schedd: nothing escalates
        # past it, and the local pool was fine so GRID never fires.
        assert all(ev.manager != "user" for ev in flock_events)
        assert not any(ev.error.scope is ErrorScope.GRID for ev in grid.trace)


class TestGridScope:
    def test_scope_ladder_tops_out_at_grid(self):
        assert ErrorScope.POOL < ErrorScope.GRID
        assert ErrorScope.GRID.managing_program == "user"
        assert ErrorScope.GRID.terminal_for_job

    def test_federated_chain_moves_pool_to_the_schedd(self):
        solitary = figure3_chain(federated=False)
        federated = figure3_chain(federated=True)
        assert solitary["user"].manages(ErrorScope.POOL)
        assert federated["schedd"].manages(ErrorScope.POOL)
        assert not federated["user"].manages(ErrorScope.POOL)
        for chain in (solitary, federated):
            assert chain["user"].manages(ErrorScope.GRID)

    def test_total_matchmaker_loss_escalates_to_grid_scope(self, flock_discipline):
        """Local matchmaker down AND every flock link down: the schedd
        has nowhere left to place work, and says so at GRID scope."""
        flock_discipline(budget=2, base=10.0, cap=40.0)
        grid = make_grid(home=1, remote=2)
        grid.net.set_host_down("central-a")
        grid.net.set_host_down("central-b")
        grid.submit(java_job())
        grid.sim.run(until=600.0)
        reported = [
            ev for ev in grid.trace
            if ev.error.name == "GridUnreachable"
            and ev.event is EventType.REPORTED
        ]
        assert reported, "GridUnreachable never reached the user"
        assert reported[0].manager == "user"
        assert reported[0].error.scope is ErrorScope.GRID

    def test_one_live_link_prevents_grid_escalation(self, flock_discipline):
        flock_discipline(budget=2)
        grid = make_grid(home=1, remote=2)
        grid.net.set_host_down("central-a")  # local matchmaker only
        job = java_job(work=10.0)
        grid.submit(job)
        grid.run_until_done(max_time=100_000)
        assert job.state is JobState.COMPLETED
        assert job.attempts[-1].site.startswith("b-")
        assert not any(ev.error.scope is ErrorScope.GRID for ev in grid.trace)


class TestGridDeterminism:
    def _signature(self, seed):
        grid = Grid(GridConfig(
            pools=(GridPoolSpec("a", n_machines=1),
                   GridPoolSpec("b", n_machines=3)),
            seed=seed,
            condor=CondorConfig(error_mode="scoped", flock_after=20.0),
        ))
        jobs = [java_job(job_id=f"{i}.0", work=40.0) for i in range(6)]
        for job in jobs:
            grid.submit(job)
        grid.run_until_done(max_time=100_000)
        return tuple(
            (j.job_id, j.attempts[-1].site, j.attempts[-1].ended) for j in jobs
        )

    def test_same_seed_same_schedule(self):
        assert self._signature(3) == self._signature(3)
