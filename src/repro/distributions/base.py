"""The distribution protocol shared by all latency models.

Strategy computations in :mod:`repro.core` only require vectorised
``cdf`` evaluation on a time grid plus sampling for Monte-Carlo
validation, so the protocol is intentionally small: ``cdf`` and ``ppf``,
with sampling by inverse transform.  Concrete families are thin wrappers
over :mod:`scipy.stats` generators and also provide ``pdf``, which the
truncated-moment calibration integrates; combinators (shift, truncation)
compose any implementations of the protocol.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from repro.util.rng import RngLike, as_rng

__all__ = ["LatencyDistribution"]


class LatencyDistribution(abc.ABC):
    """A non-negative continuous random variable modelling grid latency.

    Subclasses implement the vectorised primitives :meth:`cdf` and
    :meth:`ppf`; sampling and the one-line description are generic.  All
    methods accept scalars or arrays and broadcast.
    """

    #: short family name used in fit reports, e.g. ``"lognormal"``
    family: str = "latency"

    # -- primitives ----------------------------------------------------

    @abc.abstractmethod
    def cdf(self, t: np.ndarray | float) -> np.ndarray | float:
        """``P(R <= t)``."""

    @abc.abstractmethod
    def ppf(self, q: np.ndarray | float) -> np.ndarray | float:
        """Quantile function (inverse cdf) for ``q`` in ``[0, 1]``."""

    def rvs(self, size: int, rng: RngLike = None) -> np.ndarray:
        """Draw ``size`` samples by inverse-transform sampling through :meth:`ppf`."""
        gen = as_rng(rng)
        return np.asarray(self.ppf(gen.random(size)), dtype=np.float64)

    # -- misc ----------------------------------------------------------

    def params(self) -> dict[str, Any]:
        """Distribution parameters as a plain dict (for reports).

        The parametric families override it; combinators report none.
        """
        return {}

    def describe(self) -> str:
        """One-line human-readable description."""
        params = ", ".join(f"{k}={v:.6g}" for k, v in self.params().items())
        return f"{self.family}({params})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()
