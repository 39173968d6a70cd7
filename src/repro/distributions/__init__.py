"""Heavy-tailed latency distributions and fitting.

The paper models grid latency as a heavy-tailed random variable ``R``
observed through traces.  This package provides:

* a small distribution protocol (:class:`LatencyDistribution`) exposing the
  cdf / quantile / sampling interface the strategy models need;
* the parametric families commonly fitted to grid latencies (log-normal,
  Weibull, Pareto, gamma, exponential, log-logistic);
* combinators — location shift and upper truncation — used to build
  realistic latency laws (e.g. a shifted log-normal body for the
  middleware floor, truncated at the probe timeout);
* the empirical distribution (ECDF) used when working directly from
  traces, as the paper does;
* maximum-likelihood fitting with AIC/BIC/Kolmogorov-Smirnov model
  selection, and the truncated moments the Table 1 calibration inverts.
"""

from repro.distributions.base import LatencyDistribution
from repro.distributions.empirical import EmpiricalDistribution
from repro.distributions.fitting import (
    FitResult,
    fit_distribution,
    select_model,
)
from repro.distributions.moments import truncated_mean_std
from repro.distributions.parametric import (
    Exponential,
    Gamma,
    LogLogistic,
    LogNormal,
    Pareto,
    Weibull,
)
from repro.distributions.shifted import ShiftedDistribution
from repro.distributions.truncated import TruncatedDistribution

__all__ = [
    "LatencyDistribution",
    "EmpiricalDistribution",
    "FitResult",
    "fit_distribution",
    "select_model",
    "truncated_mean_std",
    "Exponential",
    "Gamma",
    "LogLogistic",
    "LogNormal",
    "Pareto",
    "Weibull",
    "ShiftedDistribution",
    "TruncatedDistribution",
]
