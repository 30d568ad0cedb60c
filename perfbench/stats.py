"""The percentile rule of the benchmark report.

A timing is reported as its median and the highest percentile that has
at least ten samples beyond it, together with the sample count.
"""

from __future__ import annotations

import numpy as np

# (label, d): percentile 100 (1 - 1/d); n samples leave n / d beyond it.
# Kept as integers so the rule n / d >= 10 is exact.
TAIL_CANDIDATES = (("p50", 2), ("p90", 10), ("p99", 100), ("p99.9", 1000),
                   ("p99.99", 10000))
MIN_BEYOND = 10


def tail_label(n: int) -> tuple[str, float] | None:
    """Highest candidate percentile with at least ten of n samples beyond it.

    Returns (label, fraction) such as ("p99", 0.99), or None when even
    the median has fewer than ten samples above it.
    """
    best = None
    for label, d in TAIL_CANDIDATES:
        if n >= MIN_BEYOND * d:
            best = (label, 1.0 - 1.0 / d)
    return best


def summarize(values) -> dict:
    """Median, tail percentile (when one qualifies) and sample count."""
    out = {"n": len(values), "p50": float(np.median(values))}
    tail = tail_label(len(values))
    if tail is not None:
        out["tail"] = tail[0]
        out["tail_value"] = float(np.quantile(values, tail[1]))
    return out
