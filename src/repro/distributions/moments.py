"""Truncated moments of latency distributions.

The paper reports, per trace set, the mean and standard deviation of
latencies *below the 10,000 s probe timeout* (Table 1, columns
``mean < 10^5`` and ``σ_R``).  Calibrating synthetic datasets against those
columns requires evaluating — and inverting — the truncated moments
``E[R^k | R <= T]`` of a (shifted) parametric family.  This module
provides the forward evaluation; :mod:`repro.traces.calibration`
performs the inversion.
"""

from __future__ import annotations

import numpy as np

from repro.distributions.base import LatencyDistribution
from repro.util.validation import check_int_at_least

__all__ = ["truncated_mean_std"]


def truncated_mean_std(
    dist: LatencyDistribution,
    upper: float,
    *,
    n_points: int = 20001,
) -> tuple[float, float]:
    """Mean and standard deviation of ``R | R <= upper``.

    Both moments share one evaluation of ``cdf(upper)``, the grid and the
    density (``t^k f(t)`` integrated by the trapezoid rule).  ``dist``
    must provide ``pdf``.
    """
    m1, m2 = _truncated_moments(dist, (1, 2), upper, n_points)
    var = max(0.0, m2 - m1 * m1)
    return m1, float(np.sqrt(var))


def _truncated_moments(
    dist: LatencyDistribution, ks: tuple[int, ...], upper: float, n_points: int
) -> list[float]:
    """``E[R^k | R <= upper]`` for each ``k`` from one density tabulation."""
    if upper <= 0:
        raise ValueError(f"upper must be > 0, got {upper}")
    n_points = check_int_at_least("n_points", n_points, 2)
    mass = float(dist.cdf(upper))
    if mass <= 0.0:
        raise ValueError(f"no probability mass below upper={upper}")
    t = np.linspace(0.0, float(upper), n_points)
    f = np.asarray(dist.pdf(t), dtype=np.float64)
    return [float(np.trapezoid((t**k) * f, t) / mass) for k in ks]
