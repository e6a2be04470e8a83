"""Summary statistics for timings.

Percentiles use the nearest-rank rule, so every reported value is one of the
measured samples. A percentile is worth reporting only when at least ten
samples lie beyond it; the median is always reported, with its sample count.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank; rounding first keeps 99.9% of 10000 at rank 9990, not 9991."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the nearest-rank p-th percentile's rank."""
    return n - _rank(n, p)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2)
