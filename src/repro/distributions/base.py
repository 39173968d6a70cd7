"""The distribution protocol shared by all latency models.

Strategy computations in :mod:`repro.core` only require vectorised
``cdf``/``pdf`` evaluation on a time grid plus sampling for Monte-Carlo
validation, so the protocol is intentionally small.  Concrete families are
thin wrappers over frozen :mod:`scipy.stats` distributions; combinators
(shift, truncation) compose any implementations of the protocol.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from repro.util.rng import RngLike, as_rng

__all__ = ["LatencyDistribution"]


class LatencyDistribution(abc.ABC):
    """A non-negative continuous random variable modelling grid latency.

    Subclasses implement the vectorised primitives :meth:`pdf`,
    :meth:`cdf`, :meth:`ppf` and :meth:`rvs`; everything else has generic
    implementations.  All methods accept scalars or arrays and broadcast.
    """

    #: short family name used in fit reports, e.g. ``"lognormal"``
    family: str = "latency"

    # -- primitives ----------------------------------------------------

    @abc.abstractmethod
    def pdf(self, t: np.ndarray | float) -> np.ndarray | float:
        """Probability density at ``t`` (zero for ``t < 0``)."""

    @abc.abstractmethod
    def cdf(self, t: np.ndarray | float) -> np.ndarray | float:
        """``P(R <= t)``."""

    @abc.abstractmethod
    def ppf(self, q: np.ndarray | float) -> np.ndarray | float:
        """Quantile function (inverse cdf) for ``q`` in ``[0, 1]``."""

    def rvs(self, size: int, rng: RngLike = None) -> np.ndarray:
        """Draw ``size`` samples.

        The generic implementation uses inverse-transform sampling through
        :meth:`ppf`; subclasses override when scipy provides a faster
        sampler.
        """
        gen = as_rng(rng)
        return np.asarray(self.ppf(gen.random(size)), dtype=np.float64)

    # -- derived -------------------------------------------------------

    def sf(self, t: np.ndarray | float) -> np.ndarray | float:
        """Survival function ``P(R > t)``."""
        return 1.0 - np.asarray(self.cdf(t))

    def mean(self) -> float:
        """Expected value ``E[R]`` (may be ``inf`` for very heavy tails)."""
        return self._moment(1)

    def var(self) -> float:
        """Variance of ``R``."""
        m1 = self._moment(1)
        m2 = self._moment(2)
        if not (np.isfinite(m1) and np.isfinite(m2)):
            return float("inf")
        return max(0.0, m2 - m1 * m1)

    def std(self) -> float:
        """Standard deviation of ``R``."""
        return float(np.sqrt(self.var()))

    def median(self) -> float:
        """Median of ``R``."""
        return float(self.ppf(0.5))

    def _moment(self, k: int) -> float:
        """k-th raw moment via adaptive quantile integration.

        Generic fallback used by combinators; parametric families override
        with closed forms from scipy.
        """
        # integrate E[R^k] = ∫0^1 ppf(q)^k dq with refinement near q→1
        # where heavy tails concentrate the mass of the moment.
        qs = 1.0 - np.logspace(0, -12, 4097)  # dense near 1
        qs = np.concatenate(([0.0], qs, [1.0 - 1e-13]))
        qs = np.unique(qs)
        vals = np.asarray(self.ppf(qs), dtype=np.float64) ** k
        vals = np.nan_to_num(vals, nan=0.0, posinf=np.inf)
        if np.isinf(vals).any():
            return float("inf")
        return float(np.trapezoid(vals, qs))

    # -- misc ----------------------------------------------------------

    def params(self) -> dict[str, Any]:
        """Distribution parameters as a plain dict (for reports)."""
        return {}

    def describe(self) -> str:
        """One-line human-readable description."""
        params = ", ".join(f"{k}={v:.6g}" for k, v in self.params().items())
        return f"{self.family}({params})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()
