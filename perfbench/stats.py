"""Order statistics for the benchmark's latency samples."""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

# Candidate tail percentiles, highest first.  Every one lies above the
# median, so a tail is never a copy of p50.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``n`` samples."""
    # Rounded first so that e.g. 99.9% of 10,000 is rank 9,990, not 9,991.
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by the nearest-rank rule (an observed value)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return float(sorted(values)[_rank(q, len(values)) - 1])


def median(values: Sequence[float]) -> float:
    """Median with the usual midpoint rule for even sample counts."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail(values: Sequence[float], min_beyond: int = MIN_BEYOND) -> Optional[Dict[str, float]]:
    """The highest percentile with at least ``min_beyond`` samples above it.

    Returns ``{"percentile", "value", "n"}``, or ``None`` when the sample is
    too small for any candidate in :data:`TAIL_PERCENTILES` — the tail is
    then omitted rather than reported as some lower statistic.
    """
    n = len(values)
    for q in TAIL_PERCENTILES:
        if n - _rank(q, n) >= min_beyond:
            return {"percentile": q, "value": nearest_rank(values, q), "n": n}
    return None
