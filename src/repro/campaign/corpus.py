"""The fuzzer's corpus: cells that taught us something, with energies.

A cell joins the corpus the moment it discovers at least one coverage
feature no earlier cell produced (:class:`~repro.campaign.coverage.CoverageMap`).
Corpus entries are the *parents* of the next generation: the mutation
engine draws one (or two, for crossover) per proposed child.

Selection follows a **power schedule** in the AFL tradition, adapted to
the fault space: an entry's energy is the summed rarity of its features
(``1 / global hit count``), with a flat bonus per violation feature it
*discovered* -- so parents sitting on rarely-exercised propagation paths
or fresh principle violations breed more, and parents whose behaviour
the campaign has seen a thousand times fade without ever being evicted.
Everything is driven by a caller-supplied seeded PRNG; the corpus itself
holds no randomness, which keeps checkpoint/resume byte-exact.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass
from typing import ClassVar

from repro.boundary import INT, STR, Spec, list_of
from repro.campaign.spec import CellSpec

__all__ = ["Corpus", "CorpusEntry"]

#: Flat energy bonus per *discovered* violation feature: violations are
#: the campaign's goal, so their neighbourhoods deserve extra children.
VIOLATION_BONUS = 2.0

#: Energy floor so no corpus entry is ever completely sterile.
MIN_ENERGY = 0.05


@dataclass(frozen=True)
class CorpusEntry(Spec):
    """One coverage-earning cell and what it contributed."""

    cell: CellSpec
    #: the cell's full signature (sorted feature strings)
    signature: tuple[str, ...]
    #: the subset of ``signature`` this cell was first to produce
    novel: tuple[str, ...]
    #: batch in which the cell executed
    batch: int
    #: violation count of the cell's record (raw, not deduplicated)
    violations: int

    READERS: ClassVar = {"cell": CellSpec.from_dict, "signature": list_of(STR),
                         "novel": list_of(STR), "batch": INT, "violations": INT}

    def as_dict(self) -> dict:
        return {
            "cell": self.cell.as_dict(),
            "signature": list(self.signature),
            "novel": list(self.novel),
            "batch": self.batch,
            "violations": self.violations,
        }


class Corpus:
    """Ordered collection of :class:`CorpusEntry` with energy selection."""

    def __init__(self, entries: list[CorpusEntry] | None = None):
        self.entries: list[CorpusEntry] = list(entries or [])

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def add(self, entry: CorpusEntry) -> None:
        self.entries.append(entry)

    # -- the power schedule ---------------------------------------------
    def energies(self, hits: Mapping[str, int]) -> list[float]:
        """One energy per entry: summed feature rarity + violation bonus.

        *hits* maps feature -> how many executed cells produced it
        (maintained by the campaign, not the corpus, because hit counts
        are additive across cells while coverage merge must stay
        idempotent).
        """
        energies = []
        for entry in self.entries:
            energy = sum(1.0 / max(1, hits.get(f, 1)) for f in entry.signature)
            energy += VIOLATION_BONUS * sum(
                1 for f in entry.novel if f.startswith("viol:")
            )
            energies.append(max(energy, MIN_ENERGY))
        return energies

    def select(self, rng: random.Random, hits: Mapping[str, int]) -> CorpusEntry:
        """Draw one parent, energy-weighted, via the caller's PRNG."""
        if not self.entries:
            raise IndexError("cannot select from an empty corpus")
        if len(self.entries) == 1:
            return self.entries[0]
        return rng.choices(self.entries, weights=self.energies(hits), k=1)[0]

    # -- serialization ---------------------------------------------------
    def as_dict(self) -> list[dict]:
        return [entry.as_dict() for entry in self.entries]

    @classmethod
    def from_dict(cls, data: list[dict]) -> Corpus:
        return cls(list(list_of(CorpusEntry.from_dict)(data)))
