"""Pool assembly: wire a whole Condor pool over the simulation substrate.

A :class:`Pool` owns the simulator, the network, the submit machine with
its schedd and home file system, the central manager, and any number of
execution machines with startds.  It also owns the Figure-3
:class:`~repro.core.propagation.ManagementChain` into which the daemons
record error journeys.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.condor.daemons.config import CondorConfig
from repro.condor.daemons.matchmaker import Matchmaker
from repro.condor.daemons.schedd import Schedd
from repro.condor.daemons.startd import Startd
from repro.condor.job import Job
from repro.core.propagation import ManagementChain, ScopeManager
from repro.core.scope import ErrorScope
from repro.obs.bus import ambient_bus
from repro.remoteio.server import SyncFsAdapter
from repro.sim.engine import Simulator
from repro.sim.filesystem import LocalFileSystem
from repro.sim.machine import JavaInstallation, Machine, OwnerPolicy
from repro.sim.network import Network
from repro.sim.rng import RngRegistry

__all__ = ["Pool", "PoolConfig", "figure3_chain"]


def figure3_chain(federated: bool = False) -> ManagementChain:
    """The Java Universe management chain of Figure 3.

    With *federated*, the schedd is grid-aware: it also manages
    POOL-scope errors (a dead pool is masked by flocking the job to
    another one), and only GRID scope -- every pool gone -- reaches the
    user.  A solitary pool keeps the paper's original ladder, where POOL
    scope is already the user's problem.
    """
    schedd_scopes = {ErrorScope.LOCAL_RESOURCE, ErrorScope.JOB}
    user_scopes = {ErrorScope.POOL, ErrorScope.GRID}
    if federated:
        schedd_scopes = schedd_scopes | {ErrorScope.POOL}
        user_scopes = {ErrorScope.GRID}
    return ManagementChain(
        [
            ScopeManager("program", {ErrorScope.FILE, ErrorScope.FUNCTION}),
            ScopeManager("wrapper", {ErrorScope.PROGRAM, ErrorScope.PROCESS}),
            ScopeManager("starter", {ErrorScope.VIRTUAL_MACHINE, ErrorScope.CLUSTER}),
            ScopeManager("shadow", {ErrorScope.REMOTE_RESOURCE}),
            ScopeManager("schedd", schedd_scopes),
            ScopeManager("user", user_scopes),
        ]
    )


@dataclass
class PoolConfig:
    """Shape of the pool to build."""

    n_machines: int = 4
    seed: int = 0
    condor: CondorConfig = field(default_factory=CondorConfig)
    submit_host: str = "submit"
    central_host: str = "central"
    #: execution-machine name prefix; a federation gives each pool its
    #: own prefix so machine (= host) names stay globally unique
    machine_prefix: str = "exec"


#: Heap entries run between two completion polls of ``run_until_done``.
CHECK_EVERY = 256


def run_until_terminal(
    sim: Simulator, pools: Iterable["Pool"], max_time: float, expected_jobs: int | None,
) -> float:
    """Poll every schedd of *pools*, run :data:`CHECK_EVERY` heap entries, repeat.

    Stops at the first poll that finds every arrived job terminal (and at
    least *expected_jobs* arrived), when the queue drains, or once the
    clock has reached *max_time*.
    """
    while sim.now < max_time:
        schedds = [s for pool in pools for s in pool.schedds.values()]
        arrived = sum(len(s.jobs) for s in schedds)
        if (
            arrived > 0
            and (expected_jobs is None or arrived >= expected_jobs)
            and all(s.all_terminal() for s in schedds)
        ):
            break
        if sim.run_steps(CHECK_EVERY, max_time) < CHECK_EVERY:
            break
    return sim.now


class Pool:
    """A complete simulated Condor pool."""

    def __init__(
        self,
        config: PoolConfig | None = None,
        sim: Simulator | None = None,
        net: Network | None = None,
        chain: ManagementChain | None = None,
        rngs: RngRegistry | None = None,
    ):
        """Build a pool, normally self-contained.

        A federation (:class:`~repro.condor.grid.Grid`) passes a shared
        *sim*, *net*, *chain* and *rngs* so several pools live on one
        simulated substrate and error journeys share one ladder.
        """
        self.config = config or PoolConfig()
        condor = self.config.condor
        self.sim = sim if sim is not None else Simulator()
        self.rngs = rngs if rngs is not None else RngRegistry(self.config.seed)
        self.net = net if net is not None else Network(
            self.sim, rng=self.rngs.stream("network.loss")
        )
        self.chain = chain if chain is not None else figure3_chain()
        # Telemetry: attach the ambient bus (an ObservationSession's, if
        # one is active; otherwise a fresh inert one).  The simulator and
        # the management chain feed it by duck typing; the daemons reach
        # it through ``self.sim.telemetry``.
        self.bus = ambient_bus()
        self.sim.telemetry = self.bus
        self.chain.bus = self.bus
        if self.bus.active:
            self.bus.emit(
                self.sim.now,
                "daemon",
                "pool_created",
                machines=self.config.n_machines,
                seed=self.config.seed,
                submit=self.config.submit_host,
            )
        # Submit side.
        self.net.register_host(self.config.submit_host)
        self.home_fs = LocalFileSystem("home", sim=self.sim)
        self.home_fs.mkdir("/home/user", parents=True)
        # Central manager.
        self.matchmaker = Matchmaker(self.sim, self.net, self.config.central_host, condor)
        self.schedd = Schedd(
            self.sim,
            self.net,
            self.config.submit_host,
            SyncFsAdapter(self.home_fs),
            self.config.central_host,
            condor,
            chain=self.chain,
        )
        self.schedds: dict[str, Schedd] = {self.config.submit_host: self.schedd}
        # Execution machines.
        self.machines: dict[str, Machine] = {}
        self.startds: dict[str, Startd] = {}
        #: machines that left (churn) and may rejoin under the same name
        self._parked: dict[str, Machine] = {}
        for i in range(self.config.n_machines):
            self.add_machine(f"{self.config.machine_prefix}{i:03d}")

    # -- construction -----------------------------------------------------------
    def add_machine(
        self,
        name: str,
        memory: int = 256 * 2**20,
        cpu_speed: float = 1.0,
        java: JavaInstallation | None = None,
        policy: OwnerPolicy | None = None,
        slots: int = 1,
    ) -> Machine:
        """Add one execution machine (and its startd) to the pool."""
        machine = Machine(
            self.sim,
            name,
            memory=memory,
            cpu_speed=cpu_speed,
            java=java,
            policy=policy,
            slots=slots,
        )
        self.machines[name] = machine
        self.startds[name] = Startd(
            self.sim, self.net, machine, self.config.central_host, self.config.condor
        )
        return machine

    # -- machine churn ----------------------------------------------------------
    def remove_machine(self, name: str, graceful: bool = True) -> Machine:
        """One machine leaves the pool mid-run.

        *graceful* leave: the startd evicts its visiting jobs (explicit
        remote-resource eviction errors; the jobs retry elsewhere),
        retracts its ads at the matchmaker, and stops listening.
        Crash-leave (``graceful=False``): the machine loses power --
        every local process dies, the host drops off the network, and a
        claimed machine's shadow surfaces an explicit REMOTE_RESOURCE
        ``ClaimLost`` error at the schedd (never an implicit loss).

        Either way every schedd forgets the site's avoidance record
        (the strike tables must not grow without bound under churn) and
        the machine is parked for a possible :meth:`rejoin_machine`.
        """
        machine = self.machines.pop(name)
        startd = self.startds.pop(name)
        if graceful:
            startd.shutdown(graceful=True)
            machine.online = False
        else:
            machine.crash()
            self.net.set_host_down(name)
            startd.shutdown(graceful=False)
        for schedd in self.schedds.values():
            schedd.forget_site(name)
        self._parked[name] = machine
        if self.bus.active:
            self.bus.emit(
                self.sim.now, "daemon", "machine_leave",
                machine=name, graceful=graceful,
            )
        return machine

    def rejoin_machine(self, name: str) -> Machine:
        """A previously removed machine comes back under the same name.

        The parked :class:`~repro.sim.machine.Machine` object returns
        with its configuration intact -- including a broken Java
        installation, so a black hole that churns is still a black hole
        until someone repairs it -- and a fresh startd takes over the
        (freed) listener port.
        """
        machine = self._parked.pop(name)
        machine.boot()
        self.net.set_host_down(name, down=False)
        self.machines[name] = machine
        self.startds[name] = Startd(
            self.sim, self.net, machine, self.config.central_host, self.config.condor
        )
        if self.bus.active:
            self.bus.emit(self.sim.now, "daemon", "machine_join", machine=name)
        return machine

    def add_schedd(self, submit_host: str) -> Schedd:
        """Add another submission site (its own schedd and home file system).

        A "community of computers" (§2.1) usually has many submitters; the
        matchmaker arbitrates between them (fair share).
        """
        if submit_host in self.schedds:
            raise ValueError(f"schedd already exists on {submit_host}")
        self.net.register_host(submit_host)
        home_fs = LocalFileSystem(f"home:{submit_host}", sim=self.sim)
        home_fs.mkdir("/home/user", parents=True)
        schedd = Schedd(
            self.sim,
            self.net,
            submit_host,
            SyncFsAdapter(home_fs),
            self.config.central_host,
            self.config.condor,
            chain=self.chain,
        )
        schedd.home_fs_local = home_fs  # handy for tests/workloads
        self.schedds[submit_host] = schedd
        return schedd

    # -- operation ------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Submit *job* to the pool's schedd."""
        self.schedd.submit(job)

    def run(self, until: float) -> float:
        """Advance the simulation to time *until*."""
        return self.sim.run(until=until)

    def submit_at(self, job: Job, when: float) -> None:
        """Schedule *job* for submission at simulated time *when*."""
        self.sim.call_at(when, self.schedd.submit, job)

    def run_until_done(
        self, max_time: float = 100_000.0, expected_jobs: int | None = None
    ) -> float:
        """Run until every job is terminal (or *max_time* passes).

        With staggered submissions (:meth:`submit_at`), pass
        *expected_jobs* so the loop does not stop before late arrivals
        enter the queue.  The daemons' periodic loops keep the event queue
        alive forever, so completion is detected by polling the schedd
        between event batches.
        """
        return run_until_terminal(self.sim, (self,), max_time, expected_jobs)

    # -- introspection ----------------------------------------------------------
    @property
    def parked(self) -> dict[str, Machine]:
        """Machines that left (churn) and have not rejoined yet."""
        return self._parked

    @property
    def userlog(self):
        return self.schedd.userlog

    @property
    def trace(self):
        return self.chain.trace

    def job(self, job_id: str) -> Job:
        return self.schedd.jobs[job_id]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Pool machines={len(self.machines)} jobs={len(self.schedd.jobs)} "
            f"t={self.sim.now:.1f}>"
        )
