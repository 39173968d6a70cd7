"""Heavy-tailed latency distributions and fitting.

The paper models grid latency as a heavy-tailed random variable ``R``
observed through traces.  This package provides:

* a small distribution protocol (:class:`LatencyDistribution`) exposing the
  pdf / cdf / survival / quantile / moment / sampling interface the
  strategy models need;
* the parametric families commonly fitted to grid latencies (log-normal,
  Weibull, Pareto, gamma, exponential, log-logistic);
* combinators — location shift and upper truncation — used to build
  realistic latency laws (e.g. a shifted log-normal body for the
  middleware floor, truncated at the probe timeout);
* the empirical distribution (ECDF) used when working directly from
  traces, as the paper does;
* maximum-likelihood fitting with AIC/BIC/Kolmogorov-Smirnov model
  selection, and truncated-moment solvers used to calibrate synthetic
  datasets against the paper's Table 1.
"""

from repro.distributions.base import LatencyDistribution
from repro.distributions.empirical import EmpiricalDistribution
from repro.distributions.fitting import (
    FitResult,
    fit_distribution,
    select_model,
)
from repro.distributions.moments import truncated_mean_std, truncated_moment
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
    "truncated_moment",
    "Exponential",
    "Gamma",
    "LogLogistic",
    "LogNormal",
    "Pareto",
    "Weibull",
    "ShiftedDistribution",
    "TruncatedDistribution",
]
