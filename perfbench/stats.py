"""Order statistics for latency samples."""

from __future__ import annotations

import math

MIN_TAIL = 10  # a percentile is reported only with this many samples beyond it


def rank(p: float, n: int) -> int:
    """1-based nearest-rank position of the p-th percentile of n samples."""
    return max(1, math.ceil(p * n / 100))


def samples_beyond(p: float, n: int) -> int:
    return n - rank(p, n)


def highest_percentile(n: int, candidates=(50, 90, 99, 99.9, 99.99)) -> float | None:
    """The highest candidate percentile with at least MIN_TAIL samples beyond it."""
    supported = [p for p in candidates if samples_beyond(p, n) >= MIN_TAIL]
    return max(supported) if supported else None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; refuses one with fewer than MIN_TAIL samples beyond it."""
    ordered = sorted(values)
    if samples_beyond(p, len(ordered)) < MIN_TAIL and p > 50:
        raise ValueError(f"p{p} of {len(ordered)} samples has fewer than {MIN_TAIL} samples beyond it")
    return ordered[rank(p, len(ordered)) - 1]
