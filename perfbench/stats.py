"""Tail latency and failure ratio, as the benchmark reports them."""
from __future__ import annotations

from typing import Sequence, Tuple

TAIL_MIN_BEYOND = 10


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """Highest percentile that has at least ten samples beyond it.

    Returns (value, percentile, sample count).  The value is the order
    statistic with exactly TAIL_MIN_BEYOND samples ranked above it; its
    percentile is the share of samples ranked at or below it.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_MIN_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_MIN_BEYOND} samples, got {n}")
    i = n - TAIL_MIN_BEYOND - 1
    return xs[i], 100.0 * (i + 1) / n, n


def failed_ratio(failed: int, attempted: int) -> float:
    """Ops that raised or failed their check, over ops attempted."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted
