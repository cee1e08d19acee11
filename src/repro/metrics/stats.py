"""Across-seed aggregate statistics.

Every scorecard and BENCH_engine.json section summarizes a per-seed
metric the same way: the mean, a 95 % confidence half-width and the
sample count, with NaN samples (a repair that never happened, a window
with no traffic) dropped before aggregating.
"""

from __future__ import annotations

import math
from typing import Sequence

#: two-sided 95 % normal quantile used for every ``ci95`` half-width
Z95 = 1.96


def mean_ci(values: Sequence[float]) -> dict[str, float]:
    """``{"mean", "ci95", "n"}`` of the non-NaN ``values``.

    ``ci95`` is ``Z95`` times the standard error (sample standard
    deviation, ``n - 1`` denominator); it is 0 for a single sample.  No
    finite samples give ``mean`` NaN and ``n`` 0.
    """
    clean = [v for v in values if v == v]
    if not clean:
        return {"mean": float("nan"), "ci95": 0.0, "n": 0}
    mean = sum(clean) / len(clean)
    if len(clean) > 1:
        var = sum((v - mean) ** 2 for v in clean) / (len(clean) - 1)
        ci = Z95 * math.sqrt(var) / math.sqrt(len(clean))
    else:
        ci = 0.0
    return {"mean": mean, "ci95": ci, "n": len(clean)}
