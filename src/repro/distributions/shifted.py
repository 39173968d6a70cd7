"""Location-shifted distributions: ``R = shift + R0``.

Grid latency has a hard floor — credential delegation, match-making and
dispatch take a minimum number of round trips even on an idle
infrastructure (the paper counts ~10 machines on the submission path).  A
positive shift under a log-normal or Weibull body models that floor.
"""

from __future__ import annotations

import numpy as np

from repro.distributions.base import LatencyDistribution
from repro.util.validation import check_nonnegative

__all__ = ["ShiftedDistribution"]


class ShiftedDistribution(LatencyDistribution):
    """``R = shift + R0`` for a non-negative base variable ``R0``."""

    family = "shifted"

    def __init__(self, base: LatencyDistribution, shift: float) -> None:
        if not isinstance(base, LatencyDistribution):
            raise TypeError(
                f"base must be a LatencyDistribution, got {type(base).__name__}"
            )
        self.base = base
        self.shift = check_nonnegative("shift", shift)

    def pdf(self, t):
        t = np.asarray(t, dtype=np.float64)
        out = np.where(t >= self.shift, self.base.pdf(np.maximum(t - self.shift, 0.0)), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, t):
        t = np.asarray(t, dtype=np.float64)
        out = np.where(t >= self.shift, self.base.cdf(np.maximum(t - self.shift, 0.0)), 0.0)
        return out if out.ndim else float(out)

    def ppf(self, q):
        out = np.asarray(self.base.ppf(q), dtype=np.float64) + self.shift
        return out if out.ndim else float(out)
