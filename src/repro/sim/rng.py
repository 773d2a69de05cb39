"""Named, seeded random streams.

Every source of randomness in the reproduction draws from a stream
obtained here, keyed by a stable name (e.g. ``"faults.blackhole"`` or
``"workload.arrivals"``).  Streams are derived from a single experiment
seed with SHA-256, so:

- the same (seed, name) pair always yields the same stream, regardless of
  the order in which streams are created or used; and
- adding a new consumer of randomness does not perturb existing streams,
  which keeps experiments comparable across code revisions.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["RngRegistry", "derive_seed"]


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from *master_seed* and a stream *name*."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory and cache for named random streams.

    >>> rngs = RngRegistry(seed=42)
    >>> a = rngs.stream("arrivals")
    >>> b = rngs.stream("arrivals")
    >>> a is b
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """A :class:`random.Random` dedicated to *name*."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.seed, name))
        return self._streams[name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngRegistry seed={self.seed} streams={sorted(self._streams)}>"
