"""Order statistics the benchmark reports: median, percentiles and the
quartile spread used to judge whether a metric is steady."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

# Percentiles offered as the "high" figure next to a median.
HIGH_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def percentile(values: Sequence[float], p: float) -> float:
    """Linearly interpolated p-th percentile (numpy's default method):
    rank p/100 * (n - 1) into the sorted values."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {p}")
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))


def high_percentile(n: int, beyond: int = 10) -> Optional[float]:
    """The highest of HIGH_PERCENTILES with at least `beyond` of n samples
    ranked above it (as percentile() ranks them), or None when n is too
    small for any."""
    for p in HIGH_PERCENTILES:
        if n - 1 - math.floor(p / 100.0 * (n - 1)) >= beyond:
            return p
    return None


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, with quartiles as statistics.quantiles(values, n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)
