"""Campaign cell specifications: the enumerable, replayable fault matrix.

Everything here is built from frozen dataclasses over primitives, for
three load-bearing reasons:

- **hashable** -- the :class:`~repro.harness.parallel.ParallelRunner`
  keys its merge on the work item, so a cell spec must hash;
- **picklable** -- cells cross process boundaries under ``--jobs N``;
- **JSON-round-trippable** -- a shrunken reproducer spec is just a cell
  spec written to disk, and replaying it rebuilds the identical cell.

A :class:`FaultSpec` names a catalogue fault by kind plus its target
(site or job index) and injection window; :func:`build_fault` is the
single place that turns one into a live :class:`~repro.faults.Fault`
against a pool.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.faults import (
    BlackHoleChurn,
    CorruptProgramImage,
    CredentialExpiry,
    Fault,
    FlockLinkDown,
    HomeDiskFull,
    HomeFilesystemOffline,
    JvmBinaryMissing,
    MachineChurn,
    MachineCrash,
    MemoryPressure,
    MisconfiguredJvm,
    MissingInputFile,
    NetworkPartition,
    ScratchDiskFull,
)

__all__ = [
    "CATALOGUE",
    "CampaignConfig",
    "CellSpec",
    "FaultSpec",
    "build_fault",
    "enumerate_cells",
]

MB = 2**20


@dataclass(frozen=True)
class KindInfo:
    """Catalogue metadata for one fault kind."""

    kind: str
    #: "site" (per-machine), "job" (per-job), or "pool" (global)
    target: str
    #: False for faults whose arm() is irreversible -- such kinds only
    #: get the open-ended window (a bounded window would call disarm()).
    disarmable: bool = True
    #: True for faults that only make sense against a federation (a
    #: flock link cannot go down on a solitary pool).
    needs_federation: bool = False


#: The explicit-fault catalogue the campaign sweeps (faults.py table).
#: SilentDataCorruption is deliberately absent: it produces *implicit*
#: errors the P1 audit excludes by design (only the end-to-end layer can
#: catch those), so a campaign cell could never judge it.
CATALOGUE: tuple[KindInfo, ...] = (
    KindInfo("MisconfiguredJvm", "site"),
    KindInfo("JvmBinaryMissing", "site"),
    KindInfo("ScratchDiskFull", "site"),
    KindInfo("MachineCrash", "site"),
    KindInfo("NetworkPartition", "site"),
    KindInfo("MemoryPressure", "site"),
    KindInfo("HomeFilesystemOffline", "pool"),
    KindInfo("CredentialExpiry", "pool"),
    KindInfo("CorruptProgramImage", "job"),
    KindInfo("MissingInputFile", "job", disarmable=False),
    KindInfo("HomeDiskFull", "pool"),
    # Federation-era kinds (PR 8): machine churn works against any pool;
    # a flock link can only fail where flock links exist.
    KindInfo("MachineChurn", "site"),
    KindInfo("BlackHoleChurn", "site"),
    KindInfo("FlockLinkDown", "pool", needs_federation=True),
)

_KIND_INFO: dict[str, KindInfo] = {info.kind: info for info in CATALOGUE}


@dataclass(frozen=True)
class FaultSpec:
    """One catalogue fault with its target and injection window."""

    kind: str
    site: str | None = None
    job_index: int | None = None
    at: float = 0.0
    until: float | None = None

    def describe(self) -> str:
        target = self.site or (
            f"job{self.job_index}" if self.job_index is not None else "pool"
        )
        window = f"t{self.at:g}-" + (f"{self.until:g}" if self.until is not None else "end")
        return f"{self.kind}@{target}[{window}]"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "site": self.site,
            "job_index": self.job_index,
            "at": self.at,
            "until": self.until,
        }

    @classmethod
    def from_dict(cls, data: dict) -> FaultSpec:
        return cls(
            kind=data["kind"],
            site=data.get("site"),
            job_index=data.get("job_index"),
            at=float(data.get("at", 0.0)),
            until=None if data.get("until") is None else float(data["until"]),
        )


@dataclass(frozen=True)
class CellSpec:
    """One campaign cell: a mode, a seed, and an injection set."""

    cell_id: str
    mode: str
    seed: int
    injections: tuple[FaultSpec, ...]

    def with_injections(self, injections: tuple[FaultSpec, ...]) -> CellSpec:
        """The same cell restricted to *injections* (for shrinking)."""
        label = "+".join(spec.describe() for spec in injections) or "clean"
        return CellSpec(
            cell_id=f"{self.mode}/s{self.seed}/{label}",
            mode=self.mode,
            seed=self.seed,
            injections=injections,
        )

    @property
    def order(self) -> int:
        """The cell's fault order (number of simultaneous injections)."""
        return len(self.injections)

    @property
    def key(self) -> tuple:
        """What the simulation reads from this cell, and nothing else.

        Two cells with equal keys run the identical simulation under one
        :class:`CampaignConfig`: the mode, the seed and the injections
        *in order* (the injector schedules them in order, which is their
        same-instant event order).  ``cell_id`` is a label and stays out.
        This is the one identity rule -- the fuzzer's dedup sets and the
        shrinker's record mapping both key on it.
        """
        return (self.mode, self.seed, self.injections)

    def as_dict(self) -> dict:
        return {
            "cell_id": self.cell_id,
            "mode": self.mode,
            "seed": self.seed,
            "injections": [spec.as_dict() for spec in self.injections],
        }

    @classmethod
    def from_dict(cls, data: dict) -> CellSpec:
        return cls(
            cell_id=str(data["cell_id"]),
            mode=str(data["mode"]),
            seed=int(data["seed"]),
            injections=tuple(FaultSpec.from_dict(d) for d in data["injections"]),
        )


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that shapes a campaign, frozen so cells pickle with it."""

    mode: str = "scoped"
    seed: int = 0
    n_jobs: int = 4
    n_machines: int = 3
    #: maximum number of simultaneous faults per cell (1 = singles only)
    max_order: int = 1
    #: injection windows swept per fault: (at, until); None = open-ended
    windows: tuple[tuple[float, float | None], ...] = ((0.0, None), (90.0, 420.0))
    #: restrict to these kinds (None = the full catalogue)
    kinds: tuple[str, ...] | None = None
    #: machines targeted by site faults
    sites: tuple[str, ...] = ("exec000",)
    #: workload indices targeted by job faults
    job_indices: tuple[int, ...] = (0,)
    max_retries: int = 6
    max_time: float = 100_000.0
    fail_fast: bool = False
    #: run every cell against a two-pool Grid (flocking on) instead of a
    #: solitary Pool; required by federation-only fault kinds
    federation: bool = False
    #: machines in the remote pool when ``federation`` is on
    remote_machines: int = 3
    #: turn on the §5 defenses (startd self-test with periodic re-probe,
    #: schedd backoff avoidance) in every cell
    defenses: bool = False

    def catalogue(self) -> tuple[KindInfo, ...]:
        if self.kinds is None:
            return tuple(
                info for info in CATALOGUE
                if self.federation or not info.needs_federation
            )
        unknown = set(self.kinds) - set(_KIND_INFO)
        if unknown:
            raise ValueError(
                f"unknown fault kind(s) {sorted(unknown)}; "
                f"catalogue: {sorted(_KIND_INFO)}"
            )
        needy = [
            k for k in self.kinds
            if _KIND_INFO[k].needs_federation and not self.federation
        ]
        if needy:
            raise ValueError(
                f"fault kind(s) {sorted(needy)} need --federation "
                "(a solitary pool has no flock links)"
            )
        return tuple(info for info in CATALOGUE if info.kind in self.kinds)


def _targets(info: KindInfo, config: CampaignConfig) -> tuple[dict, ...]:
    """The (site/job_index) bindings this kind sweeps."""
    if info.target == "site":
        return tuple({"site": site} for site in config.sites)
    if info.target == "job":
        return tuple({"job_index": index} for index in config.job_indices)
    return ({},)


def _single_specs(config: CampaignConfig) -> list[FaultSpec]:
    """Every single-fault spec in the matrix, catalogue order."""
    specs = []
    for info in config.catalogue():
        for target in _targets(info, config):
            for at, until in config.windows:
                if until is not None and not info.disarmable:
                    continue
                specs.append(FaultSpec(kind=info.kind, at=at, until=until, **target))
    return specs


def enumerate_cells(config: CampaignConfig) -> tuple[CellSpec, ...]:
    """The full cell matrix: singles, then combos up to ``max_order``.

    Combinations pair *distinct kinds*, each at its first target with the
    open-ended window -- pairing every window x target x kind squares the
    matrix for little extra coverage (the shrinker reduces any violating
    combo back to its essential subset anyway).
    """

    def cell(injections: tuple[FaultSpec, ...]) -> CellSpec:
        label = "+".join(spec.describe() for spec in injections)
        return CellSpec(
            cell_id=f"{config.mode}/s{config.seed}/{label}",
            mode=config.mode,
            seed=config.seed,
            injections=injections,
        )

    cells = [cell((spec,)) for spec in _single_specs(config)]
    if config.max_order >= 2:
        combo_pool = []
        seen_kinds: set[str] = set()
        for spec in _single_specs(config):
            if spec.kind not in seen_kinds and spec.until is None:
                seen_kinds.add(spec.kind)
                combo_pool.append(spec)
        for order in range(2, config.max_order + 1):
            for combo in itertools.combinations(combo_pool, order):
                cells.append(cell(combo))
    return tuple(cells)


def _resolve_site(site: str | None, pool) -> str | None:
    """Map a spec's site name onto *pool*'s machine namespace.

    Cell specs name sites in solitary-pool terms ("exec000"); a
    federation prefixes machine names with the member pool ("a-exec000").
    Matching by suffix keeps one spec replayable against either, and the
    sorted scan keeps the choice deterministic.
    """
    if site is None or site in pool.machines:
        return site
    for name in sorted(pool.machines):
        if name.endswith(site):
            return name
    return site


def build_fault(spec: FaultSpec, pool, jobs) -> Fault:
    """Instantiate *spec* against *pool* and the workload *jobs*."""
    kind = spec.kind
    site = _resolve_site(spec.site, pool)
    if kind == "MisconfiguredJvm":
        return MisconfiguredJvm(site)
    if kind == "JvmBinaryMissing":
        return JvmBinaryMissing(site)
    if kind == "ScratchDiskFull":
        return ScratchDiskFull(site)
    if kind == "MachineCrash":
        return MachineCrash(site)
    if kind == "NetworkPartition":
        # Exec-side partition: the submit machine cannot reach the site.
        return NetworkPartition(pool.schedd.submit_host, site)
    if kind == "MemoryPressure":
        machine = pool.machines[site]
        return MemoryPressure(site, machine.memory_total - 10 * MB)
    if kind == "MachineChurn":
        return MachineChurn(site, graceful=False)
    if kind == "BlackHoleChurn":
        return BlackHoleChurn(site)
    if kind == "FlockLinkDown":
        return FlockLinkDown()
    if kind == "HomeFilesystemOffline":
        return HomeFilesystemOffline()
    if kind == "CredentialExpiry":
        return CredentialExpiry()
    if kind == "CorruptProgramImage":
        return CorruptProgramImage(jobs[spec.job_index])
    if kind == "MissingInputFile":
        return MissingInputFile(jobs[spec.job_index])
    if kind == "HomeDiskFull":
        return HomeDiskFull()
    raise ValueError(f"unknown fault kind {kind!r}")
