"""The fuzzer's coverage map: which features exist, and who found them.

A :class:`CoverageMap` is a dictionary from feature string
(:func:`repro.obs.signature.signature` coordinates) to the
:class:`FirstSeen` provenance of its discovery.  The map is the fuzzer's
whole notion of progress: a cell that contributes no new key taught us
nothing and is discarded; a cell that does joins the corpus.

``merge`` is deliberately a *semilattice* operation -- elementwise
minimum of ``(batch, index, cell)`` provenance triples -- so it is
associative, commutative and idempotent.  That algebra is what lets a
``--jobs N`` campaign merge per-cell coverage in any grouping and still
produce the byte-identical map a serial campaign produces (pinned by
hypothesis in ``tests/campaign/test_fuzz_properties.py``).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import ClassVar

from repro.boundary import INT, STR, Spec

__all__ = ["CoverageMap", "FirstSeen"]


@dataclass(frozen=True, order=True)
class FirstSeen(Spec):
    """Provenance of a feature's discovery, ordered by execution time.

    Tuple ordering (batch, then index-within-campaign, then cell id)
    makes "earliest discovery wins" a total order, so merging two maps
    never depends on merge order.
    """

    batch: int
    index: int
    cell: str

    READERS: ClassVar = {"batch": INT, "index": INT, "cell": STR}


class CoverageMap:
    """Feature -> earliest :class:`FirstSeen`, with semilattice merge."""

    def __init__(self, features: dict[str, FirstSeen] | None = None):
        self.features: dict[str, FirstSeen] = dict(features or {})

    # -- queries ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.features)

    def __contains__(self, feature: str) -> bool:
        return feature in self.features

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CoverageMap) and self.features == other.features

    def novel(self, signature: Iterable[str]) -> tuple[str, ...]:
        """The features of *signature* this map has never seen."""
        return tuple(f for f in signature if f not in self.features)

    # -- growth ----------------------------------------------------------
    def observe(self, feature: str, seen: FirstSeen) -> bool:
        """Record *feature*; keep the earliest provenance.  True if new."""
        current = self.features.get(feature)
        if current is None:
            self.features[feature] = seen
            return True
        if seen < current:
            self.features[feature] = seen
        return False

    def observe_all(self, signature: Iterable[str], seen: FirstSeen) -> tuple[str, ...]:
        """Observe every feature of *signature*; return the new ones."""
        return tuple(f for f in signature if self.observe(f, seen))

    def merge(self, other: CoverageMap) -> CoverageMap:
        """The elementwise-minimum union of two maps (pure; no mutation)."""
        merged = dict(self.features)
        for feature, seen in other.features.items():
            current = merged.get(feature)
            if current is None or seen < current:
                merged[feature] = seen
        return CoverageMap(merged)

    # -- serialization ---------------------------------------------------
    def as_dict(self) -> dict:
        return {
            feature: seen.as_dict()
            for feature, seen in sorted(self.features.items())
        }

    @classmethod
    def from_dict(cls, data: dict) -> CoverageMap:
        return cls({
            feature: FirstSeen.from_dict(seen) for feature, seen in data.items()
        })
