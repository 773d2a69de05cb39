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
against a pool.  :class:`CampaignConfig` is the one codec of a campaign's
shape: it validates itself and owns its dict form (DESIGN.md §3.6e).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import ClassVar

from repro import faults
from repro.boundary import BOOL, FLOAT, INT, STR, ConfigError, Spec, list_of, optional
from repro.condor.daemons.config import CondorConfig
from repro.obs.canonical import to_jsonable

__all__ = [
    "CATALOGUE",
    "CampaignConfig",
    "CellSpec",
    "ConfigError",
    "FaultSpec",
    "MutationSpace",
    "build_fault",
    "enumerate_cells",
    "validate_injections",
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


#: The explicit-fault catalogue the campaign sweeps; each kind is the name
#: of its :mod:`repro.faults` class (:func:`build_fault`).
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
class FaultSpec(Spec):
    """One catalogue fault with its target and injection window."""

    kind: str
    site: str | None = None
    job_index: int | None = None
    at: float = 0.0
    until: float | None = None

    READERS: ClassVar = {"kind": STR, "site": optional(STR), "job_index": optional(INT),
                         "at": FLOAT, "until": optional(FLOAT)}

    def describe(self) -> str:
        target = self.site or (
            f"job{self.job_index}" if self.job_index is not None else "pool"
        )
        window = f"t{self.at:g}-" + (f"{self.until:g}" if self.until is not None else "end")
        return f"{self.kind}@{target}[{window}]"


@dataclass(frozen=True)
class CellSpec(Spec):
    """One campaign cell: a mode, a seed, and an injection set."""

    cell_id: str
    mode: str
    seed: int
    injections: tuple[FaultSpec, ...]

    READERS: ClassVar = {"cell_id": STR, "mode": STR, "seed": INT,
                         "injections": list_of(FaultSpec.from_dict)}

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


def _window(pair) -> tuple[float, float | None]:
    """One ``[at, until]`` injection window; ``until`` may be null."""
    at, until = list_of(optional(FLOAT))(pair)
    return FLOAT(at), until


@dataclass(frozen=True)
class CampaignConfig(Spec):
    """Everything that shapes a campaign, frozen so cells pickle with it;
    constructing one validates it (a :class:`ConfigError` per problem).
    ``from_dict`` reads any subset of :meth:`as_dict`'s keys back; the rest
    take their defaults.  Every stored campaign shape is read there."""

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

    #: The keys of :meth:`as_dict`, each with how ``from_dict`` reads its value back.
    READERS: ClassVar = {
        "mode": STR,
        **dict.fromkeys(("seed", "n_jobs", "n_machines", "max_order", "max_retries"), INT),
        "max_time": FLOAT,
        "windows": list_of(_window),
        "kinds": optional(list_of(STR)),
        "sites": list_of(STR),
        "job_indices": list_of(INT),
        "federation": BOOL,
        "defenses": BOOL,
    }

    def __post_init__(self):
        try:
            CondorConfig(error_mode=self.mode)
        except ValueError as exc:
            raise ConfigError("mode", str(exc)) from None
        for name, least in (("n_jobs", 1), ("n_machines", 1), ("max_order", 1),
                            ("remote_machines", 1), ("max_retries", 0)):
            if getattr(self, name) < least:
                raise ConfigError(name, f"must be >= {least}, got {getattr(self, name)}")
        if not self.max_time > 0:
            raise ConfigError("max_time", f"must be > 0, got {self.max_time}")
        for at, until in self.windows:
            if at < 0 or (until is not None and until <= at):
                raise ConfigError("windows", f"[{at}, {until}] is negative or empty")
        if self.kinds is not None and not self.kinds:
            raise ConfigError("kinds", "must name at least one fault kind")
        unknown = sorted(set(self.kinds or ()) - set(_KIND_INFO))
        if unknown:
            raise ConfigError("kinds", f"unknown fault kind(s) {unknown}; "
                                       f"catalogue: {sorted(_KIND_INFO)}")
        needy = sorted(k for k in self.kinds or () if _KIND_INFO[k].needs_federation)
        if needy and not self.federation:
            raise ConfigError("kinds", f"fault kind(s) {needy} need --federation "
                                       "(a solitary pool has no flock links)")

    def as_dict(self) -> dict:
        """The ``campaign`` header of every campaign and fuzz report and
        checkpoint; ``fail_fast`` and ``remote_machines`` are not in it."""
        return {key: to_jsonable(getattr(self, key)) for key in self.READERS}

    def catalogue(self) -> tuple[KindInfo, ...]:
        """The kinds this campaign sweeps, in catalogue order."""
        if self.kinds is None:
            return tuple(
                info for info in CATALOGUE
                if self.federation or not info.needs_federation
            )
        return tuple(info for info in CATALOGUE if info.kind in self.kinds)


@dataclass(frozen=True)
class MutationSpace:
    """The valid fault space of one campaign: what a mutant or a replayed
    reproducer may inject."""

    kinds: tuple[KindInfo, ...]
    sites: tuple[str, ...]
    job_indices: tuple[int, ...]
    order_max: int
    federation: bool

    @classmethod
    def from_config(cls, config: CampaignConfig, order_max: int) -> MutationSpace:
        return cls(
            kinds=config.catalogue(),
            sites=tuple(f"exec{i:03d}" for i in range(config.n_machines)),
            job_indices=tuple(range(config.n_jobs)),
            order_max=order_max,
            federation=config.federation,
        )

    @functools.cached_property
    def kind_info(self) -> dict[str, KindInfo]:
        return {info.kind: info for info in self.kinds}


def validate_injections(
    injections: tuple[FaultSpec, ...], space: MutationSpace
) -> list[str]:
    """Every way *injections* leaves the valid space (empty = valid).

    This is the mutator contract the hypothesis property tests pin, and
    what ``replay`` checks a reproducer against: kinds from the space's
    catalogue only (a federation-only kind named as such), non-negative
    windows with ``until > at``, open-ended windows on non-disarmable
    kinds, targets inside the pool and matching the kind's target type,
    distinct kinds, order within bounds.
    """
    problems = []
    if len(injections) > space.order_max:
        problems.append(f"order {len(injections)} exceeds max {space.order_max}")
    kinds = [spec.kind for spec in injections]
    if len(set(kinds)) != len(kinds):
        problems.append(f"duplicate kinds in {kinds}")
    for spec in injections:
        info = space.kind_info.get(spec.kind)
        if info is None:
            known = _KIND_INFO.get(spec.kind)
            if known is not None and known.needs_federation and not space.federation:
                problems.append(f"fault kind {spec.kind!r} would need --federation")
            else:
                problems.append(f"unknown fault kind {spec.kind!r}")
            continue
        if spec.at < 0:
            problems.append(f"{spec.kind}: negative at {spec.at}")
        if spec.until is not None:
            if spec.until <= spec.at:
                problems.append(f"{spec.kind}: empty window {spec.at}..{spec.until}")
            if not info.disarmable:
                problems.append(f"{spec.kind}: bounded window on non-disarmable kind")
        if info.target == "site":
            if spec.site not in space.sites or spec.job_index is not None:
                problems.append(f"{spec.kind}: bad site target {spec.site!r}")
        elif info.target == "job":
            if spec.job_index not in space.job_indices or spec.site is not None:
                problems.append(f"{spec.kind}: bad job target {spec.job_index!r}")
        elif spec.site is not None or spec.job_index is not None:
            problems.append(f"{spec.kind}: pool kind must be untargeted")
    return problems


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
    base = CellSpec(cell_id="", mode=config.mode, seed=config.seed, injections=())
    cells = [base.with_injections((spec,)) for spec in _single_specs(config)]
    if config.max_order >= 2:
        combo_pool = []
        seen_kinds: set[str] = set()
        for spec in _single_specs(config):
            if spec.kind not in seen_kinds and spec.until is None:
                seen_kinds.add(spec.kind)
                combo_pool.append(spec)
        for order in range(2, config.max_order + 1):
            for combo in itertools.combinations(combo_pool, order):
                cells.append(base.with_injections(combo))
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


def build_fault(spec: FaultSpec, pool, jobs) -> faults.Fault:
    """Instantiate *spec* against *pool* and the workload *jobs*.

    A catalogue kind names its :mod:`repro.faults` class, built from its
    target (the resolved site, the job, or nothing for a pool kind);
    three kinds take more than that.
    """
    info = _KIND_INFO.get(spec.kind)
    if info is None:
        raise ValueError(f"unknown fault kind {spec.kind!r}")
    site = _resolve_site(spec.site, pool)
    if spec.kind == "NetworkPartition":
        # Exec-side partition: the submit machine cannot reach the site.
        return faults.NetworkPartition(pool.schedd.submit_host, site)
    if spec.kind == "MemoryPressure":
        return faults.MemoryPressure(site, pool.machines[site].memory_total - 10 * MB)
    if spec.kind == "MachineChurn":
        return faults.MachineChurn(site, graceful=False)
    fault = getattr(faults, spec.kind)
    if info.target == "site":
        return fault(site)
    return fault(jobs[spec.job_index]) if info.target == "job" else fault()
