"""Order statistics for the benchmark: medians, quartiles, percentiles.

A percentile is reported only when at least ten samples lie beyond it
(the p90 of 100 samples, the p50 of 20); below that the tail is a
handful of points and moves with every run.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_TAIL = 10


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        value = values[0]
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def reportable(n_samples: int, q: float) -> bool:
    """Whether the *q*-quantile of *n_samples* has ``MIN_TAIL`` beyond it."""
    beyond = n_samples - math.ceil(q * n_samples)
    return beyond >= MIN_TAIL


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank *q*-quantile, or None when the tail is too thin."""
    if not reportable(len(values), q):
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]
