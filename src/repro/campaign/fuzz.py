"""Coverage-guided fault-space fuzzing: the campaign engine, steered.

The exhaustive matrix (:func:`repro.campaign.spec.enumerate_cells`)
stops scaling around order 2-3: every added fault kind multiplies the
sweep.  This module replaces enumeration with an evolutionary loop in
the AFL tradition, driven by the observability layer's own feedback:

1. every executed cell yields a **coverage signature**
   (:func:`repro.obs.signature.signature`): normalized principle
   violations, error-journey hop sequences by scope, job-span shapes,
   terminal outcome states;
2. a cell that produces a feature no earlier cell produced joins the
   :class:`~repro.campaign.corpus.Corpus`;
3. each batch, a rarity-weighted **power schedule** picks corpus
   parents and a seeded :class:`MutationEngine` proposes children
   (add/drop/swap a fault kind, shift or resize an injection window,
   retarget, cross over two parents, escalate the order);
4. the batch fans out over the
   :class:`~repro.harness.parallel.ParallelRunner` (one persistent
   worker pool for the whole campaign), and the merge is serial and
   in batch order -- so ``--jobs N`` output is byte-identical to serial.

Determinism contract: the whole campaign is a function of
(:class:`FuzzConfig`, seed).  Batch randomness derives from
``sha256(seed, batch index)``, never from global state or wall clock;
the report carries no timing; and every piece of campaign state
(coverage, corpus, hit counts, records) round-trips exactly through the
JSON checkpoint, so a ``--resume`` from mid-flight finishes with the
byte-identical report of an uninterrupted run.

Violations are shrunk **per signature**: the ddmin predicate is "this
subset still produces *this* normalized violation", so a violation that
only exists at order 3 yields a 1-minimal *order-3* reproducer instead
of collapsing onto an unrelated single-fault violation.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass, field

from repro.boundary import INT, STR, list_of, read_fields
from repro.campaign.corpus import Corpus, CorpusEntry
from repro.campaign.coverage import CoverageMap, FirstSeen
from repro.campaign.engine import run_cell_record, violation_totals
from repro.campaign.spec import (
    CampaignConfig,
    CellSpec,
    ConfigError,
    FaultSpec,
    KindInfo,
    MutationSpace,
)
from repro.harness.parallel import ParallelRunner
from repro.obs.signature import violation_features

__all__ = [
    "FORMAT",
    "FuzzConfig",
    "MutationEngine",
    "load_checkpoint",
    "run_fuzz",
]

#: Format tag of the fuzz report (bump on incompatible change).
FORMAT = "repro-campaign-fuzz/1"
#: Format tag of the mid-campaign checkpoint.
CHECKPOINT_FORMAT = "repro-campaign-fuzz-checkpoint/1"

#: Injection-start instants the mutators sample (simulated seconds).
AT_GRID = (0.0, 30.0, 60.0, 90.0, 150.0, 200.0, 300.0, 420.0)
#: Window durations the mutators sample.
DURATION_GRID = (30.0, 60.0, 120.0, 240.0, 330.0, 480.0)
#: Window-shift deltas.
SHIFT_GRID = (-120.0, -60.0, -30.0, 30.0, 60.0, 120.0)

#: (mutator name, selection weight).  Structural mutators dominate:
#: combining faults is where the un-enumerable part of the space lives.
MUTATORS = (
    ("add", 3),
    ("crossover", 3),
    ("escalate", 2),
    ("swap", 2),
    ("shift-window", 1),
    ("resize-window", 1),
    ("retarget", 1),
    ("drop", 1),
)

#: Proposal attempts per wanted child before a batch gives up (the
#: space around the corpus can be locally exhausted near small budgets).
PROPOSAL_PATIENCE = 40

#: Window starts/durations of the deterministic window probes enqueued
#: for violating cells (a deliberately coarse sub-grid of AT_GRID /
#: DURATION_GRID: the probes ask *whether* the window matters, the havoc
#: mutators then explore how).
PROBE_AT = (30.0, 60.0)
PROBE_DURATION = (120.0, 330.0)


#: The ``fuzz`` section's fields, each with how it is read back.
_FUZZ_READERS = dict.fromkeys(("budget_cells", "batch_size", "order_max"), INT)


@dataclass(frozen=True)
class FuzzConfig:
    """Everything that shapes a fuzzing campaign."""

    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    #: total cells the campaign may execute (bootstrap included)
    budget_cells: int = 200
    #: cells proposed (and fanned out) per generation
    batch_size: int = 16
    #: maximum simultaneous faults per mutated cell
    order_max: int = 3

    def __post_init__(self):
        for name in _FUZZ_READERS:
            if getattr(self, name) < 1:
                raise ConfigError(name, f"must be >= 1, got {getattr(self, name)}")

    def as_dict(self) -> dict:
        """The ``campaign`` and ``fuzz`` sections of the fuzz report and checkpoint."""
        return {
            "campaign": self.campaign.as_dict(),
            "fuzz": {
                **{name: getattr(self, name) for name in _FUZZ_READERS},
                "mutators": [name for name, _ in MUTATORS],
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> FuzzConfig:
        """Read :meth:`as_dict`'s two sections out of *data* (``mutators``
        is derived, not kept); a key either leaves out takes its default."""
        fuzz = read_fields(data.get("fuzz", {}), {**_FUZZ_READERS, "mutators": list_of(STR)})
        fuzz.pop("mutators", None)
        return cls(campaign=CampaignConfig.from_dict(data.get("campaign", {})), **fuzz)


def _canonical(injections: tuple[FaultSpec, ...]) -> tuple[FaultSpec, ...]:
    """Injections in canonical order, so equal sets dedup as equal cells."""
    return tuple(sorted(
        injections,
        key=lambda s: (
            s.kind,
            s.site or "",
            -1 if s.job_index is None else s.job_index,
            s.at,
            float("inf") if s.until is None else s.until,
        ),
    ))


class MutationEngine:
    """The seeded mutator pool over a :class:`MutationSpace`.

    Every method takes the caller's PRNG and returns a new injection
    tuple or ``None`` when the mutation does not apply (parent at max
    order, nothing to drop, no alternative target...).  Returned tuples
    are canonicalized and always valid (:func:`~repro.campaign.spec.validate_injections`).
    """

    def __init__(self, space: MutationSpace):
        self.space = space
        self._names = [name for name, _ in MUTATORS]
        self._weights = [weight for _, weight in MUTATORS]

    # -- building blocks -------------------------------------------------
    def _random_spec(self, rng: random.Random, info: KindInfo) -> FaultSpec:
        site = rng.choice(self.space.sites) if info.target == "site" else None
        job_index = (
            rng.choice(self.space.job_indices) if info.target == "job" else None
        )
        at = rng.choice(AT_GRID)
        until = None
        if info.disarmable and rng.random() < 0.5:
            until = at + rng.choice(DURATION_GRID)
        return FaultSpec(kind=info.kind, site=site, job_index=job_index,
                         at=at, until=until)

    def _unused_kinds(self, injections: tuple[FaultSpec, ...]) -> list[KindInfo]:
        used = {spec.kind for spec in injections}
        return [info for info in self.space.kinds if info.kind not in used]

    def fresh(self, rng: random.Random) -> tuple[FaultSpec, ...]:
        """A random single-fault injection set (empty-corpus fallback)."""
        return (self._random_spec(rng, rng.choice(list(self.space.kinds))),)

    # -- the mutators ----------------------------------------------------
    def _add(self, rng, injections):
        unused = self._unused_kinds(injections)
        if not unused or len(injections) >= self.space.order_max:
            return None
        return injections + (self._random_spec(rng, rng.choice(unused)),)

    def _drop(self, rng, injections):
        if not injections:
            return None
        index = rng.randrange(len(injections))
        return injections[:index] + injections[index + 1:]

    def _swap(self, rng, injections):
        unused = self._unused_kinds(injections)
        if not injections or not unused:
            return None
        index = rng.randrange(len(injections))
        old, info = injections[index], rng.choice(unused)
        site = rng.choice(self.space.sites) if info.target == "site" else None
        job_index = (
            rng.choice(self.space.job_indices) if info.target == "job" else None
        )
        until = old.until if info.disarmable else None
        if until is not None and until <= old.at:
            until = None
        new = FaultSpec(kind=info.kind, site=site, job_index=job_index,
                        at=old.at, until=until)
        return injections[:index] + (new,) + injections[index + 1:]

    def _shift_window(self, rng, injections):
        if not injections:
            return None
        index = rng.randrange(len(injections))
        old = injections[index]
        at = max(0.0, old.at + rng.choice(SHIFT_GRID))
        until = None if old.until is None else at + (old.until - old.at)
        new = FaultSpec(kind=old.kind, site=old.site, job_index=old.job_index,
                        at=at, until=until)
        return injections[:index] + (new,) + injections[index + 1:]

    def _resize_window(self, rng, injections):
        candidates = [
            i for i, spec in enumerate(injections)
            if self.space.kind_info[spec.kind].disarmable
        ]
        if not candidates:
            return None
        index = rng.choice(candidates)
        old = injections[index]
        if old.until is not None and rng.random() < 1 / 3:
            until = None  # widen all the way to open-ended
        else:
            until = old.at + rng.choice(DURATION_GRID)
        new = FaultSpec(kind=old.kind, site=old.site, job_index=old.job_index,
                        at=old.at, until=until)
        return injections[:index] + (new,) + injections[index + 1:]

    def _retarget(self, rng, injections):
        candidates = []
        for i, spec in enumerate(injections):
            info = self.space.kind_info[spec.kind]
            if info.target == "site" and len(self.space.sites) > 1:
                candidates.append(i)
            elif info.target == "job" and len(self.space.job_indices) > 1:
                candidates.append(i)
        if not candidates:
            return None
        index = rng.choice(candidates)
        old = injections[index]
        info = self.space.kind_info[old.kind]
        if info.target == "site":
            site = rng.choice([s for s in self.space.sites if s != old.site])
            new = FaultSpec(kind=old.kind, site=site, at=old.at, until=old.until)
        else:
            job_index = rng.choice(
                [j for j in self.space.job_indices if j != old.job_index]
            )
            new = FaultSpec(kind=old.kind, job_index=job_index,
                            at=old.at, until=old.until)
        return injections[:index] + (new,) + injections[index + 1:]

    def _crossover(self, rng, injections, partner):
        merged = list(injections)
        used = {spec.kind for spec in merged}
        for spec in partner:
            if spec.kind not in used:
                merged.append(spec)
                used.add(spec.kind)
        if len(merged) <= len(injections):
            return None  # the partner brought nothing new
        if len(merged) > self.space.order_max:
            merged = rng.sample(merged, self.space.order_max)
        return tuple(merged)

    def _escalate(self, rng, injections):
        """Jump straight to a higher order: add 1..k faults in one step.

        Reaching order 3 from a single-fault parent in one mutation is
        what lets the fuzzer probe deep combinations whose intermediate
        pairs never earn corpus membership.
        """
        room = self.space.order_max - len(injections)
        unused = self._unused_kinds(injections)
        if room < 1 or not unused:
            return None
        count = min(rng.randint(1, room), len(unused))
        added = tuple(
            self._random_spec(rng, info) for info in rng.sample(unused, count)
        )
        return injections + added

    # -- dispatch --------------------------------------------------------
    def propose(
        self,
        rng: random.Random,
        parent: tuple[FaultSpec, ...],
        partner: tuple[FaultSpec, ...],
    ) -> tuple[str, tuple[FaultSpec, ...]] | None:
        """One mutation attempt; ``(mutator name, canonical child)`` or None."""
        name = rng.choices(self._names, weights=self._weights, k=1)[0]
        if name == "add":
            child = self._add(rng, parent)
        elif name == "crossover":
            child = self._crossover(rng, parent, partner)
        elif name == "escalate":
            child = self._escalate(rng, parent)
        elif name == "swap":
            child = self._swap(rng, parent)
        elif name == "shift-window":
            child = self._shift_window(rng, parent)
        elif name == "resize-window":
            child = self._resize_window(rng, parent)
        elif name == "retarget":
            child = self._retarget(rng, parent)
        else:
            child = self._drop(rng, parent)
        if child is None:
            return None
        return name, _canonical(child)


# -- campaign state -----------------------------------------------------
@dataclass
class _FuzzState:
    """Everything the loop carries between batches (checkpointable)."""

    batch: int = 0
    records: list = field(default_factory=list)
    coverage: CoverageMap = field(default_factory=CoverageMap)
    corpus: Corpus = field(default_factory=Corpus)
    #: feature -> number of executed cells that produced it (additive,
    #: hence kept out of the idempotent CoverageMap)
    hits: dict = field(default_factory=dict)
    #: normalized violation feature -> discovery provenance
    violation_signatures: dict = field(default_factory=dict)
    first_violation_at: int | None = None
    all_principles_at: int | None = None
    #: :attr:`CellSpec.key` -> the record of that executed cell: the
    #: dedup set of the proposal loop and what the shrinker reads instead
    #: of simulating a cell the campaign already ran
    executed: dict = field(default_factory=dict)
    #: deterministic probe queue (FIFO): ``{"cell": CellSpec, "stage",
    #: "features"}`` entries drained ahead of havoc proposals
    probes: list = field(default_factory=list)
    #: cell key -> pending probe entry, so a window probe's outcome can
    #: trigger escalation probes when it *loses* the violation
    probe_meta: dict = field(default_factory=dict)

    def principles(self) -> list[int]:
        return sorted({
            int(feature.split(":", 2)[1][1:])
            for feature in self.violation_signatures
        })


def _batch_rng(seed: int, batch: int) -> random.Random:
    digest = hashlib.sha256(f"repro-fuzz:{seed}:{batch}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _bootstrap_cells(space: MutationSpace, base: CellSpec) -> list[CellSpec]:
    """Generation zero: the clean cell plus one open-window single per
    catalogue kind -- the corpus seed every later mutation descends from.
    """
    return [base.with_injections(())] + [
        base.with_injections((_first_target_spec(info, space),)) for info in space.kinds
    ]


# -- the deterministic probe stage --------------------------------------
#
# Random havoc finds violations; it is weak at answering the follow-up
# question "does this violation *depend* on the rest of the fault space"
# because that answer lives several correlated mutations away.  In the
# AFL tradition of a deterministic stage on interesting inputs, a cell
# that discovers a new violation signature enqueues structured probes:
#
# - **add** probes (parent + each unused kind): does a third party
#   change the finding?  These double as a systematic sweep of the
#   order-(k+1) neighbourhood of every violating cell.
# - **window** probes (each disarmable injection re-bounded over a
#   coarse grid): is the violation window-sensitive?
# - **escalate** probes, enqueued only when a window probe *loses* the
#   signature: losing-variant + each unused kind -- literally asking
#   "which extra fault brings the violation back under the bounded
#   window", i.e. hunting violations that are order-(k+1)-minimal.
#
# The queue is FIFO, deduplicated against executed cells, drained ahead
# of havoc proposals, and checkpointed -- all deterministic.


def _enqueue_probe(state: _FuzzState, cell: CellSpec, stage: str,
                   features: list[str]) -> None:
    key = cell.key
    if key in state.executed or key in state.probe_meta:
        return
    entry = {"cell": cell, "stage": stage, "features": features}
    state.probes.append(entry)
    state.probe_meta[key] = entry


def _first_target_spec(info: KindInfo, space: MutationSpace) -> FaultSpec:
    site = space.sites[0] if info.target == "site" else None
    job_index = space.job_indices[0] if info.target == "job" else None
    return FaultSpec(kind=info.kind, site=site, job_index=job_index,
                     at=0.0, until=None)


def _enqueue_add_probes(state: _FuzzState, space: MutationSpace,
                        base: CellSpec, injections: tuple[FaultSpec, ...],
                        features: list[str], stage: str) -> None:
    """*injections* plus each unused kind: the ``add`` and ``escalate`` probes."""
    if len(injections) >= space.order_max:
        return
    used = {spec.kind for spec in injections}
    for info in space.kinds:
        if info.kind in used:
            continue
        extra = _first_target_spec(info, space)
        cell = base.with_injections(_canonical(injections + (extra,)))
        _enqueue_probe(state, cell, stage, features)


def _enqueue_window_probes(state: _FuzzState, space: MutationSpace,
                           base: CellSpec, injections: tuple[FaultSpec, ...],
                           features: list[str]) -> None:
    for index, spec in enumerate(injections):
        if not space.kind_info[spec.kind].disarmable:
            continue
        for at in PROBE_AT:
            for duration in PROBE_DURATION:
                bounded = FaultSpec(kind=spec.kind, site=spec.site,
                                    job_index=spec.job_index,
                                    at=at, until=at + duration)
                variant = injections[:index] + (bounded,) + injections[index + 1:]
                cell = base.with_injections(_canonical(variant))
                _enqueue_probe(state, cell, "window", features)


def _propose_batch(
    rng: random.Random,
    state: _FuzzState,
    engine: MutationEngine,
    base: CellSpec,
    want: int,
) -> list[CellSpec]:
    batch: list[CellSpec] = []
    pending: set[tuple] = set()
    # Deterministic probes first: they answer a specific open question
    # about an existing find, which beats undirected exploration.
    while state.probes and len(batch) < want:
        entry = state.probes.pop(0)
        cell = entry["cell"]
        key = cell.key
        if key in state.executed or key in pending:
            state.probe_meta.pop(key, None)
            continue
        pending.add(key)
        batch.append(cell)
    attempts = 0
    while len(batch) < want and attempts < want * PROPOSAL_PATIENCE:
        attempts += 1
        if len(state.corpus):
            parent = state.corpus.select(rng, state.hits).cell.injections
            partner = state.corpus.select(rng, state.hits).cell.injections
            proposal = engine.propose(rng, parent, partner)
        else:
            proposal = ("fresh", _canonical(engine.fresh(rng)))
        if proposal is None:
            continue
        _, injections = proposal
        cell = base.with_injections(injections)
        key = cell.key
        if key in state.executed or key in pending or key in state.probe_meta:
            continue
        pending.add(key)
        batch.append(cell)
    return batch


def _absorb(state: _FuzzState, space: MutationSpace, base: CellSpec,
            cells: list[CellSpec], records: list[dict]) -> None:
    """Serially merge one executed batch into the campaign state.

    This is the deterministic half of the fan-out: records arrive in
    batch order regardless of ``--jobs``, and every coverage/corpus/hit/
    probe-queue update happens here, in that order.
    """
    for cell, record in zip(cells, records):
        index = len(state.records)
        key = cell.key
        probe = state.probe_meta.pop(key, None)
        signature = tuple(record["signature"])
        seen = FirstSeen(batch=state.batch, index=index, cell=cell.cell_id)
        novel = state.coverage.observe_all(signature, seen)
        for feature in signature:
            state.hits[feature] = state.hits.get(feature, 0) + 1
        record["batch"] = state.batch
        record["novel"] = list(novel)
        record["probe"] = None if probe is None else probe["stage"]
        state.records.append(record)
        state.executed[key] = record
        executed_now = len(state.records)
        if record["violations"] and state.first_violation_at is None:
            state.first_violation_at = executed_now
        new_violations = [f for f in novel if f.startswith("viol:")]
        for feature in new_violations:
            state.violation_signatures[feature] = {
                "batch": state.batch,
                "index": index,
                "cell": cell.cell_id,
                "cells_executed": executed_now,
                "order": cell.order,
            }
        if len(state.principles()) == 4 and state.all_principles_at is None:
            state.all_principles_at = executed_now
        if novel:
            state.corpus.add(CorpusEntry(
                cell=cell,
                signature=signature,
                novel=novel,
                batch=state.batch,
                violations=len(record["violations"]),
            ))
        # The deterministic stage: a fresh violation signature earns a
        # structured sweep of its neighbourhood...
        if new_violations:
            _enqueue_add_probes(state, space, base, cell.injections,
                                new_violations, "add")
            if cell.order >= 2:
                _enqueue_window_probes(state, space, base, cell.injections,
                                       new_violations)
        # ...and a window probe that *lost* its violation triggers the
        # escalation sweep: which extra fault re-arms the violation under
        # the bounded window (an order-(k+1)-minimal candidate)?
        if probe is not None and probe["stage"] == "window":
            lost = [f for f in probe["features"] if f not in signature]
            if lost:
                _enqueue_add_probes(state, space, base, cell.injections,
                                    lost, "escalate")


# -- checkpointing ------------------------------------------------------
def _checkpoint_dict(state: _FuzzState, config: FuzzConfig) -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        **config.as_dict(),
        "batch": state.batch,
        "records": state.records,
        "coverage": state.coverage.as_dict(),
        "corpus": state.corpus.as_dict(),
        "hits": state.hits,
        "violation_signatures": state.violation_signatures,
        "first_violation_at": state.first_violation_at,
        "all_principles_at": state.all_principles_at,
        "probes": [
            {
                "cell": entry["cell"].as_dict(),
                "stage": entry["stage"],
                "features": entry["features"],
            }
            for entry in state.probes
        ],
    }


def _check_format(data) -> None:
    """ValueError unless *data* is a fuzz checkpoint document."""
    found = data.get("format") if isinstance(data, dict) else type(data).__name__
    if found != CHECKPOINT_FORMAT:
        raise ValueError(f"not a fuzz checkpoint: format={found!r}")


def _check_config(data: dict, config: FuzzConfig) -> None:
    """ValueError unless *data*'s config sections are what *config* writes."""
    for section, expected in config.as_dict().items():
        if data.get(section) != expected:
            raise ValueError(
                f"checkpoint {section} config does not match: "
                f"checkpoint {data.get(section)!r}, campaign {expected!r}"
            )


def _state_from_checkpoint(data: dict, config: FuzzConfig, base: CellSpec) -> _FuzzState:
    _check_format(data)
    _check_config(data, config)
    state = _FuzzState(
        batch=int(data["batch"]),
        records=list(data["records"]),
        coverage=CoverageMap.from_dict(data["coverage"]),
        corpus=Corpus.from_dict(data["corpus"]),
        hits={str(k): int(v) for k, v in data["hits"].items()},
        violation_signatures=dict(data["violation_signatures"]),
        first_violation_at=data["first_violation_at"],
        all_principles_at=data["all_principles_at"],
    )
    for record in state.records:
        injections = tuple(FaultSpec.from_dict(d) for d in record["injections"])
        state.executed[base.with_injections(injections).key] = record
    for raw in data.get("probes", []):
        entry = {
            "cell": CellSpec.from_dict(raw["cell"]),
            "stage": str(raw["stage"]),
            "features": list(raw["features"]),
        }
        state.probes.append(entry)
        state.probe_meta[entry["cell"].key] = entry
    return state


def load_checkpoint(path: str) -> tuple[FuzzConfig, dict]:
    """Read a checkpoint file; return its (config, raw state dict).

    The file is outside input: unreadable, not JSON, not a checkpoint, or
    a config that is missing a field or that :meth:`FuzzConfig.from_dict`
    rejects -- each raises one ``ValueError("not a fuzz checkpoint: <reason>")``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"not a fuzz checkpoint: {exc}") from exc
    _check_format(data)
    try:
        config = FuzzConfig.from_dict(data)
        _check_config(data, config)  # a key a section leaves out is a bad checkpoint
    except (TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"not a fuzz checkpoint: config: {exc}") from exc
    return config, data


# -- shrinking ----------------------------------------------------------
#: ddmin invocations allowed per violation signature.  Every *incident*
#: of a signature that no confirmed minimal injection set explains is a
#: shrink candidate; the cap bounds total shrink cost on saturated
#: campaigns (classic mode violates in most cells) while leaving room
#: for the interesting case -- the same signature reachable through a
#: deeper minimal combination (an order-3-only window interplay) than
#: the one that discovered it.
SHRINK_ATTEMPTS_PER_SIGNATURE = 6


def _shrink_findings(state: _FuzzState, config: FuzzConfig, base: CellSpec) -> list[dict]:
    """Signature-preserving 1-minimal reproducers for the campaign's finds.

    Walks the executed cells in order.  A violating cell is *explained*
    if, for every violation feature it produced, some already-confirmed
    minimal injection set for that feature is a subset of the cell's
    injections (same specs, windows included).  Unexplained incidents
    are ddmin'd with the "still produces this signature" predicate --
    so a violation that is order-1-minimal under an open window *and*
    order-3-minimal under a bounded window yields both reproducers, each
    1-minimal for its own injection set.

    Every ddmin shares one record mapping, seeded with the campaign's
    own cells (``state.executed``, which a ``--resume`` rebuilds from the
    checkpoint): most probes -- the incident itself, its order-1 subsets,
    the subsets an earlier feature of the same cell already tried -- are
    cells that have been simulated, and are read instead.
    """
    from repro.campaign.shrink import minimize_cell

    #: feature -> list of confirmed minimal injection sets (spec tuples)
    confirmed: dict[str, list[frozenset]] = {}
    attempts: dict[str, int] = {}
    known = dict(state.executed)  # local: probes are not campaign cells
    reproducers = []
    for index, record in enumerate(state.records):
        features = [
            f for f in record.get("signature", ()) if f.startswith("viol:")
        ]
        if not features:
            continue
        injections = tuple(FaultSpec.from_dict(d) for d in record["injections"])
        have = frozenset(injections)
        for feature in features:
            if any(minimal <= have for minimal in confirmed.get(feature, [])):
                continue
            if attempts.get(feature, 0) >= SHRINK_ATTEMPTS_PER_SIGNATURE:
                continue
            attempts[feature] = attempts.get(feature, 0) + 1
            cell = base.with_injections(injections)

            def keeps_signature(probe_record: dict, feature=feature) -> bool:
                return feature in violation_features(probe_record["violations"])

            spec = minimize_cell(cell, config.campaign, keep=keeps_signature,
                                 records=known)
            minimal = frozenset(
                FaultSpec.from_dict(d) for d in spec["injections"]
            )
            if minimal in confirmed.get(feature, []):
                continue  # a different incident, the same minimal cell
            confirmed.setdefault(feature, []).append(minimal)
            reproducers.append({
                "signature": feature,
                "found_in": record["cell"],
                "cells_executed": index + 1,
                "order": len(spec["injections"]),
                "spec": spec,
            })
    return reproducers


# -- the campaign -------------------------------------------------------
def _report(state: _FuzzState, config: FuzzConfig, reproducers: list[dict]) -> dict:
    return {
        "format": FORMAT,
        **config.as_dict(),
        "cells": state.records,
        "coverage": {
            "features": len(state.coverage),
            "first_seen": state.coverage.as_dict(),
        },
        "corpus": state.corpus.as_dict(),
        "violations": {
            "signatures": state.violation_signatures,
            "first_violation_at": state.first_violation_at,
            "all_principles_at": state.all_principles_at,
            "principles": state.principles(),
        },
        "reproducers": reproducers,
        "totals": {
            **violation_totals(state.records),
            "batches": state.batch,
            "features": len(state.coverage),
            "corpus": len(state.corpus),
            "distinct_violations": len(state.violation_signatures),
            "errors": sum(1 for r in state.records if r["error"] is not None),
            "probe_cells": sum(
                1 for r in state.records if r.get("probe") is not None
            ),
            "max_order_violation": max(
                (f["order"] for f in state.violation_signatures.values()),
                default=0,
            ),
            "max_minimal_order": max(
                (repro["order"] for repro in reproducers), default=0
            ),
        },
    }


def run_fuzz(
    config: FuzzConfig,
    jobs: int = 1,
    shrink: bool = True,
    checkpoint: str | None = None,
    resume: dict | str | None = None,
    stop_after_batch: int | None = None,
) -> dict:
    """Run a coverage-guided campaign; return the JSON-ready report.

    With *checkpoint*, the full campaign state is written there after
    every batch; *resume* (a checkpoint path or its loaded dict) picks
    a campaign up mid-flight and -- because every state component
    round-trips exactly -- finishes with the byte-identical report of an
    uninterrupted run.  *stop_after_batch* ends the loop early after the
    given batch index completes (the test hook for interrupting a
    campaign at a known point).
    """
    from repro.obs.export import dump_json

    campaign = config.campaign
    # Every cell of the campaign is this one with injections.
    base = CellSpec(cell_id="", mode=campaign.mode, seed=campaign.seed,
                    injections=())
    if resume is not None:
        if isinstance(resume, str):
            with open(resume, encoding="utf-8") as fh:
                resume = json.load(fh)
        state = _state_from_checkpoint(resume, config, base)
    else:
        state = _FuzzState()
    space = MutationSpace.from_config(campaign, config.order_max)
    engine = MutationEngine(space)
    runner = ParallelRunner(
        functools.partial(
            run_cell_record, config=campaign, features=True, on_error="record"
        ),
        workers=jobs,
    )
    with runner:
        while len(state.records) < config.budget_cells:
            if stop_after_batch is not None and state.batch > stop_after_batch:
                break
            want = min(config.batch_size, config.budget_cells - len(state.records))
            if state.batch == 0 and not state.records:
                cells = _bootstrap_cells(space, base)[:want]
            else:
                rng = _batch_rng(campaign.seed, state.batch)
                cells = _propose_batch(rng, state, engine, base, want)
            if not cells:
                break  # the reachable space is exhausted
            results = runner.map(cells)
            _absorb(state, space, base, cells,
                    [outcome.value for outcome in results])
            state.batch += 1
            if checkpoint is not None:
                dump_json(checkpoint, _checkpoint_dict(state, config))
    reproducers = _shrink_findings(state, config, base) if shrink else []
    return _report(state, config, reproducers)
