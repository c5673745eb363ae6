"""Timing statistics: nearest-rank percentiles and the ten-samples-beyond rule.

A percentile is reported only when at least ten samples lie beyond it, so
p90 needs 100 samples and p99 needs 1000.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

MIN_BEYOND = 10


def samples_beyond(count: int, percentile: float) -> int:
    """Samples strictly above the nearest-rank ``percentile`` of ``count`` samples."""
    return count - math.ceil(percentile / 100.0 * count)


def supports(count: int, percentile: float) -> bool:
    return samples_beyond(count, percentile) >= MIN_BEYOND


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; raises unless ten samples lie beyond it."""
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    if not supports(len(values), p):
        raise ValueError(
            f"p{p:g} of {len(values)} samples has {samples_beyond(len(values), p)} "
            f"beyond it; at least {MIN_BEYOND} are needed"
        )
    return sorted(values)[math.ceil(p / 100.0 * len(values)) - 1]

