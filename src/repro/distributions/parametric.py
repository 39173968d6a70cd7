"""Parametric latency families backed by scipy.stats distributions.

The families below are the standard candidates for grid latency bodies and
tails in the workload-modeling literature the paper builds on (Feitelson;
Li, Groep & Walters; Christodoulopoulos et al.): log-normal, Weibull,
gamma, exponential, Pareto and log-logistic.

Parameterisations are chosen to match the usual textbook forms (documented
per class) rather than scipy's ``(a, loc, scale)`` convention, so model
reports read naturally.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.distributions.base import LatencyDistribution
from repro.util.validation import check_positive

if TYPE_CHECKING:
    from scipy.stats import rv_continuous

__all__ = ["LogNormal", "Weibull", "Gamma", "Exponential", "Pareto", "LogLogistic"]


class _ScipyBacked(LatencyDistribution):
    """Common plumbing for families backed by a scipy distribution.

    Holds the shared scipy generator and its shape/scale keywords and
    forwards every call to it — exactly the call a frozen ``rv_frozen``
    makes, so the floats are the same, without the per-instance generator
    copy (and docstring formatting) that ``freeze`` pays.  The generator is
    looked up by name when a family is built, so :mod:`scipy.stats` loads
    only once a process builds one (the grid simulator never does).
    """

    def __init__(self, dist: str, **kwds: float) -> None:
        import scipy.stats

        self._dist: rv_continuous = getattr(scipy.stats, dist)
        self._kwds = kwds

    def _on_support(self, fn, t):
        """``fn`` (the generator's pdf or cdf) at the ``t >= 0`` entries, 0
        elsewhere (NaN included): scipy never sees a point off the
        support, such as a Weibull density's pole at 0 for shape < 1.
        ``maximum`` turns ``-0.0`` into ``+0.0``, whose density can differ
        in sign."""
        t = np.asarray(t, dtype=np.float64)
        inside = t >= 0
        out = np.zeros(t.shape)
        out[inside] = fn(np.maximum(t[inside], 0.0), **self._kwds)
        return out if out.ndim else float(out)

    def pdf(self, t):
        return self._on_support(self._dist.pdf, t)

    def cdf(self, t):
        return self._on_support(self._dist.cdf, t)

    def ppf(self, q):
        out = np.asarray(self._dist.ppf(q, **self._kwds), dtype=np.float64)
        return out if out.ndim else float(out)


class LogNormal(_ScipyBacked):
    """Log-normal: ``ln R ~ Normal(mu, sigma^2)``.

    The workhorse of grid-latency modeling — multiplicative service stages
    (match-making, queueing, transfer) compose into an approximately
    log-normal latency, and EGEE probe latencies are well fitted by it.
    """

    family = "lognormal"

    def __init__(self, mu: float, sigma: float) -> None:
        self.mu = float(mu)
        self.sigma = check_positive("sigma", sigma)
        super().__init__("lognorm", s=self.sigma, scale=np.exp(self.mu))

    @classmethod
    def from_mean_std(cls, mean: float, std: float) -> "LogNormal":
        """Construct from the mean and standard deviation of ``R`` itself."""
        mean = check_positive("mean", mean)
        std = check_positive("std", std)
        cv2 = (std / mean) ** 2
        sigma2 = np.log1p(cv2)
        mu = np.log(mean) - 0.5 * sigma2
        return cls(mu=float(mu), sigma=float(np.sqrt(sigma2)))

    def params(self) -> dict[str, Any]:
        return {"mu": self.mu, "sigma": self.sigma}


class Weibull(_ScipyBacked):
    """Weibull with shape ``k`` and scale ``lam``: ``F(t)=1-exp(-(t/lam)^k)``.

    ``k < 1`` gives the heavy-ish, decreasing-hazard latencies typical of
    batch queues.
    """

    family = "weibull"

    def __init__(self, shape: float, scale: float) -> None:
        self.shape = check_positive("shape", shape)
        self.scale = check_positive("scale", scale)
        super().__init__("weibull_min", c=self.shape, scale=self.scale)

    def params(self) -> dict[str, Any]:
        return {"shape": self.shape, "scale": self.scale}


class Gamma(_ScipyBacked):
    """Gamma with shape ``k`` and scale ``theta`` (mean ``k·theta``)."""

    family = "gamma"

    def __init__(self, shape: float, scale: float) -> None:
        self.shape = check_positive("shape", shape)
        self.scale = check_positive("scale", scale)
        super().__init__("gamma", a=self.shape, scale=self.scale)

    def params(self) -> dict[str, Any]:
        return {"shape": self.shape, "scale": self.scale}


class Exponential(_ScipyBacked):
    """Exponential with rate ``lam`` (mean ``1/lam``).

    The memoryless baseline: under an exponential latency, resubmission
    strategies cannot help — a useful control in experiments.
    """

    family = "exponential"

    def __init__(self, rate: float) -> None:
        self.rate = check_positive("rate", rate)
        super().__init__("expon", scale=1.0 / self.rate)

    def params(self) -> dict[str, Any]:
        return {"rate": self.rate}


class Pareto(_ScipyBacked):
    """Pareto (Lomax form): ``P(R > t) = (1 + t/scale)^(-alpha)`` for t >= 0.

    A pure power tail starting at zero; models the outlier-prone component
    of grid latency.  For ``alpha <= 1`` the mean is infinite — strategy
    expectations remain finite because timeouts truncate the tail, which is
    exactly the paper's argument for resubmission.
    """

    family = "pareto"

    def __init__(self, alpha: float, scale: float) -> None:
        self.alpha = check_positive("alpha", alpha)
        self.scale = check_positive("scale", scale)
        super().__init__("lomax", c=self.alpha, scale=self.scale)

    def params(self) -> dict[str, Any]:
        return {"alpha": self.alpha, "scale": self.scale}


class LogLogistic(_ScipyBacked):
    """Log-logistic (Fisk) with shape ``beta`` and scale ``alpha``.

    ``F(t) = 1 / (1 + (t/alpha)^(-beta))`` — log-normal-like body with a
    power-law tail; a frequent best fit for queue waiting times.
    """

    family = "loglogistic"

    def __init__(self, shape: float, scale: float) -> None:
        self.shape = check_positive("shape", shape)
        self.scale = check_positive("scale", scale)
        super().__init__("fisk", c=self.shape, scale=self.scale)

    def params(self) -> dict[str, Any]:
        return {"shape": self.shape, "scale": self.scale}
