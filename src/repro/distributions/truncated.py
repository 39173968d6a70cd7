"""Upper-truncated distributions: ``R | R <= upper``, renormalised.

The paper's probe jobs are cancelled at 10,000 s, so the *observed*
non-outlier latency is the base law conditioned on ``R <= 10,000``.
Synthetic trace calibration fits the truncated moments against Table 1's
``mean < 10^5`` and ``σ_R`` columns (see :mod:`repro.traces.calibration`).
"""

from __future__ import annotations

import numpy as np

from repro.distributions.base import LatencyDistribution
from repro.util.validation import check_positive

__all__ = ["TruncatedDistribution"]


class TruncatedDistribution(LatencyDistribution):
    """``R`` conditioned on ``R <= upper`` (right truncation)."""

    family = "truncated"

    def __init__(self, base: LatencyDistribution, upper: float) -> None:
        if not isinstance(base, LatencyDistribution):
            raise TypeError(
                f"base must be a LatencyDistribution, got {type(base).__name__}"
            )
        self.base = base
        self.upper = check_positive("upper", upper)
        self._mass = float(base.cdf(self.upper))
        if self._mass <= 0.0:
            raise ValueError(
                f"base distribution has no mass below upper={upper!r} "
                f"(cdf({upper}) = {self._mass})"
            )

    def cdf(self, t):
        t = np.asarray(t, dtype=np.float64)
        clipped = np.clip(t, 0.0, self.upper)
        out = np.asarray(self.base.cdf(clipped)) / self._mass
        out = np.clip(out, 0.0, 1.0)
        return out if out.ndim else float(out)

    def ppf(self, q):
        q = np.asarray(q, dtype=np.float64)
        out = np.asarray(self.base.ppf(q * self._mass), dtype=np.float64)
        out = np.clip(out, 0.0, self.upper)
        return out if out.ndim else float(out)
