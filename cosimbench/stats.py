"""Order statistics with the benchmark's sample-count rule."""

from __future__ import annotations

import math

MIN_BEYOND = 10  # samples that must lie beyond a reported upper percentile


class TooFewSamples(ValueError):
    pass


def percentile(samples, q: float) -> float:
    """The q-quantile (0 < q < 1) by linear interpolation between order statistics.

    Above the median it is refused unless at least MIN_BEYOND samples lie
    beyond it, so p90 needs at least 100 samples. The median itself needs one.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    n = len(samples)
    if n == 0 or (q > 0.5 and n * (1.0 - q) < MIN_BEYOND - 1e-9):
        need = 1 if q <= 0.5 else math.ceil(MIN_BEYOND / (1.0 - q) - 1e-9)
        raise TooFewSamples(f"p{q * 100:g} needs at least {need} samples, got {n}")
    ordered = sorted(samples)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
