"""Empirical latency distributions (ECDF) built from trace samples.

The paper works directly from probe traces: the "cumulative histogram"
``F̃_R`` of Fig. 1 is an ECDF normalised over *all* submitted jobs.  This
module provides the non-outlier part: a right-continuous step ECDF with an
optional piecewise-linear smoothing used for quantiles and sampling.
"""

from __future__ import annotations

import numpy as np

from repro.distributions.base import LatencyDistribution

__all__ = ["EmpiricalDistribution"]


class EmpiricalDistribution(LatencyDistribution):
    """ECDF over observed latency samples.

    Parameters
    ----------
    samples:
        Observed latencies (non-negative, finite).  Stored sorted.
    smooth:
        If true (default), ``cdf`` interpolates linearly between order
        statistics, yielding a continuous distribution whose density is a
        histogram spline — this is what grid evaluation and strategy
        optimisation need (the paper integrates ``F̃`` numerically, which
        equally presumes an integrable representation).  If false, the
        classic right-continuous step ECDF is used.
    """

    family = "empirical"

    def __init__(self, samples: np.ndarray, *, smooth: bool = True) -> None:
        arr = np.asarray(samples, dtype=np.float64).ravel()
        if arr.size == 0:
            raise ValueError("empirical distribution needs at least one sample")
        if not np.isfinite(arr).all():
            raise ValueError("samples must be finite")
        if (arr < 0).any():
            raise ValueError("latency samples must be non-negative")
        self._x = np.sort(arr)
        self.smooth = bool(smooth)

    @property
    def n_samples(self) -> int:
        """Number of samples backing the ECDF."""
        return int(self._x.size)

    # -- protocol --------------------------------------------------------

    def cdf(self, t):
        t = np.asarray(t, dtype=np.float64)
        if self.smooth:
            # piecewise-linear between (x_(k), k/n) knots, with cdf(0-) = 0
            n = self._x.size
            knots_x = np.concatenate(([0.0], self._x))
            knots_y = np.concatenate(([0.0], np.arange(1, n + 1) / n))
            # collapse duplicate x knots keeping the highest y (right limit)
            ux, idx = np.unique(knots_x[::-1], return_index=True)
            uy = knots_y[::-1][idx]
            out = np.interp(t, ux, uy, left=0.0, right=1.0)
        else:
            out = np.searchsorted(self._x, t, side="right") / self._x.size
            out = np.where(t < 0, 0.0, out)
        out = np.asarray(out, dtype=np.float64)
        return out if out.ndim else float(out)

    def ppf(self, q):
        q = np.asarray(q, dtype=np.float64)
        if ((q < 0) | (q > 1)).any():
            raise ValueError("quantile levels must be in [0, 1]")
        if self.smooth:
            n = self._x.size
            knots_y = np.arange(1, n + 1) / n
            out = np.interp(q, np.concatenate(([0.0], knots_y)),
                            np.concatenate(([0.0], self._x)))
        else:
            idx = np.minimum(
                (np.ceil(q * self._x.size) - 1).clip(0).astype(int),
                self._x.size - 1,
            )
            out = self._x[idx]
        out = np.asarray(out, dtype=np.float64)
        return out if out.ndim else float(out)

    # -- moments (exact from samples) ------------------------------------

    def mean(self) -> float:
        return float(self._x.mean())

    def std(self) -> float:
        return float(self._x.std())

    def describe(self) -> str:
        return (
            f"empirical(n={self.n_samples}, mean={self.mean():.4g}, "
            f"std={self.std():.4g}, smooth={self.smooth})"
        )
