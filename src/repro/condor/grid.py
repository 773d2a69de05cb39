"""The grid: a pool of pools, plus the machine churn that makes it earn
its keep.

ROADMAP item 4 and the paper's §5: a single pool is the paper's unit of
analysis, but the *grid* is a community of pools whose schedds flock
work to each other when their own pool is saturated or sick.  This
module assembles several :class:`~repro.condor.pool.Pool` instances on
one shared simulator/network/management-chain substrate, wires every
schedd to every other pool's matchmaker, and exposes a pool-compatible
surface (``machines``, ``schedd``, ``home_fs``, ``net``, ...) so the
fault catalogue and the metric collectors work against a federation
unchanged.

:class:`ChurnGenerator` drives the other half of the robustness story:
machines leaving (gracefully or by crash) and rejoining mid-run, at
deterministic RNG-stream-driven times, against either a Pool or a Grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.condor.daemons.config import CondorConfig
from repro.condor.daemons.schedd import Schedd
from repro.condor.job import Job
from repro.condor.pool import Pool, PoolConfig, figure3_chain, run_until_terminal
from repro.obs.bus import ambient_bus
from repro.sim.engine import Simulator
from repro.sim.machine import Machine
from repro.sim.network import Network
from repro.sim.rng import RngRegistry

__all__ = ["ChurnGenerator", "Grid", "GridConfig", "GridPoolSpec"]


@dataclass
class GridPoolSpec:
    """Shape of one member pool."""

    name: str
    n_machines: int = 4


@dataclass
class GridConfig:
    """Shape of the federation.  The first pool is *home*: jobs enter
    there and overflow outward."""

    pools: tuple[GridPoolSpec, ...] = (
        GridPoolSpec("a", n_machines=2),
        GridPoolSpec("b", n_machines=4),
    )
    seed: int = 0
    condor: CondorConfig = field(default_factory=CondorConfig)
    #: wire every schedd to every other pool's matchmaker
    flocking: bool = True


class Grid:
    """Several pools on one simulated substrate, flocked together."""

    def __init__(self, config: GridConfig | None = None):
        self.config = config or GridConfig()
        if not self.config.pools:
            raise ValueError("a grid needs at least one pool")
        self.sim = Simulator()
        self.rngs = RngRegistry(self.config.seed)
        self.net = Network(self.sim, rng=self.rngs.stream("network.loss"))
        self.chain = figure3_chain(federated=self.config.flocking)
        self.bus = ambient_bus()
        self.sim.telemetry = self.bus
        self.chain.bus = self.bus
        self.pools: dict[str, Pool] = {}
        for spec in self.config.pools:
            pool_config = PoolConfig(
                n_machines=spec.n_machines,
                seed=self.config.seed,
                condor=self.config.condor,
                submit_host=f"submit-{spec.name}",
                central_host=f"central-{spec.name}",
                machine_prefix=f"{spec.name}-exec",
            )
            self.pools[spec.name] = Pool(
                pool_config,
                sim=self.sim,
                net=self.net,
                chain=self.chain,
                rngs=self.rngs,
            )
        self.home = self.pools[self.config.pools[0].name]
        if self.config.flocking:
            for name, pool in self.pools.items():
                for other_name, other in self.pools.items():
                    if other_name != name:
                        pool.schedd.add_flock_target(other.config.central_host)
        if self.bus.active:
            self.bus.emit(
                self.sim.now, "daemon", "grid_created",
                pools=len(self.pools), seed=self.config.seed,
                flocking=self.config.flocking,
            )

    # -- pool-compatible surface (faults and metrics see one big pool) ---------
    @property
    def machines(self) -> dict[str, Machine]:
        merged: dict[str, Machine] = {}
        for pool in self.pools.values():
            merged.update(pool.machines)
        return merged

    @property
    def schedds(self) -> dict[str, Schedd]:
        merged: dict[str, Schedd] = {}
        for pool in self.pools.values():
            merged.update(pool.schedds)
        return merged

    @property
    def parked(self) -> dict[str, Machine]:
        merged: dict[str, Machine] = {}
        for pool in self.pools.values():
            merged.update(pool.parked)
        return merged

    @property
    def schedd(self) -> Schedd:
        return self.home.schedd

    @property
    def home_fs(self):
        return self.home.home_fs

    @property
    def trace(self):
        return self.chain.trace

    def pool_of(self, machine_name: str) -> Pool:
        """The member pool owning *machine_name* (live or parked)."""
        for pool in self.pools.values():
            if machine_name in pool.machines or machine_name in pool._parked:
                return pool
        raise KeyError(machine_name)

    # -- churn (delegated to the owning pool) -----------------------------------
    def remove_machine(self, name: str, graceful: bool = True) -> Machine:
        return self.pool_of(name).remove_machine(name, graceful=graceful)

    def rejoin_machine(self, name: str) -> Machine:
        return self.pool_of(name).rejoin_machine(name)

    # -- operation --------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Submit *job* to the home pool's schedd."""
        self.home.submit(job)

    def submit_at(self, job: Job, when: float) -> None:
        self.sim.call_at(when, self.home.schedd.submit, job)

    def run_until_done(
        self, max_time: float = 100_000.0, expected_jobs: int | None = None
    ) -> float:
        """Run until every job in every member pool is terminal."""
        return run_until_terminal(self.sim, self.pools.values(), max_time, expected_jobs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Grid pools={len(self.pools)} machines={len(self.machines)} t={self.sim.now:.1f}>"


class ChurnGenerator:
    """Deterministic machine churn against a Pool or a Grid.

    Draws leave times, leave styles (graceful vs crash) and downtimes
    from one dedicated RNG stream, so a seeded run churns identically
    every time (DESIGN §6).  Machines below ``min_alive`` are never
    removed -- churn degrades the pool, it must not empty it.
    """

    def __init__(
        self,
        pool,
        rng,
        machines: tuple[str, ...] | None = None,
        mean_interval: float = 120.0,
        mean_downtime: float = 90.0,
        graceful_fraction: float = 0.5,
        min_alive: int = 1,
    ):
        self.pool = pool
        self.rng = rng
        self.eligible = tuple(sorted(machines if machines is not None else pool.machines))
        self.mean_interval = mean_interval
        self.mean_downtime = mean_downtime
        self.graceful_fraction = graceful_fraction
        self.min_alive = min_alive
        self.leaves = 0
        self.joins = 0
        self.crashes = 0
        self._proc = pool.sim.spawn(self._run(), name="churn-generator")
        self._proc.defuse()

    def _run(self):
        sim = self.pool.sim
        while True:
            yield sim.timeout(self.rng.expovariate(1.0 / self.mean_interval))
            live = self.pool.machines
            candidates = [name for name in self.eligible if name in live]
            if len(live) <= self.min_alive or not candidates:
                continue
            name = self.rng.choice(candidates)
            graceful = self.rng.random() < self.graceful_fraction
            downtime = self.rng.expovariate(1.0 / self.mean_downtime)
            self.pool.remove_machine(name, graceful=graceful)
            self.leaves += 1
            if not graceful:
                self.crashes += 1
            rejoiner = sim.spawn(
                self._rejoin_later(name, downtime), name=f"churn-rejoin:{name}"
            )
            rejoiner.defuse()

    def _rejoin_later(self, name: str, downtime: float):
        yield self.pool.sim.timeout(downtime)
        self.pool.rejoin_machine(name)
        self.joins += 1
