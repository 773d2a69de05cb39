"""Order statistics for wall-side numbers: median, quartiles, tail percentile.

Every timing gridbench reports is a median with its quartiles and its
sample count; a tail is reported only at a percentile that still has at
least ten samples beyond it, so one slow fsync cannot be the whole
number.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

__all__ = ["TAIL_CANDIDATES", "percentile", "summary", "tail_percentile"]

#: Percentiles a tail may be reported at, lowest first.
TAIL_CANDIDATES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile needs this many samples strictly beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile *p* (0 < p <= 100) of *values*."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values: Sequence[float]) -> dict | None:
    """The highest candidate percentile with >= 10 samples beyond it.

    Returns ``{"p", "value", "n", "beyond"}`` or ``None`` when even the
    median has fewer than ten samples above it (n < 20).
    """
    n = len(values)
    best = None
    for p in TAIL_CANDIDATES:
        beyond = n - math.ceil(p / 100.0 * n)
        if beyond >= MIN_BEYOND:
            best = {"p": p, "value": percentile(values, p), "n": n, "beyond": beyond}
    return best


def summary(values: Sequence[float]) -> dict:
    """``{"value": median, "q1", "q3", "n"}`` of *values*.

    Quartiles are :func:`statistics.quantiles` with ``n=4`` (the rule the
    acceptance check uses); with a single sample all three coincide.
    """
    if not values:
        raise ValueError("summary of no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}

