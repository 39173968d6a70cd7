"""Maximum-likelihood fitting and model selection for latency samples.

Given trace latencies, :func:`fit_distribution` fits one family by MLE
(delegating to scipy's optimisers with location pinned to zero, since
latency is non-negative by construction) and :func:`select_model` ranks
several families by information criteria and the Kolmogorov–Smirnov
statistic — the standard workflow for workload-archive traces (GWA-style
analyses fit exactly these families).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.distributions.base import LatencyDistribution
from repro.distributions.parametric import (
    Exponential,
    Gamma,
    LogLogistic,
    LogNormal,
    Pareto,
    Weibull,
)

__all__ = ["FitResult", "fit_distribution", "select_model", "SUPPORTED_FAMILIES"]


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting one family to one sample set.

    Attributes
    ----------
    distribution:
        The fitted :class:`LatencyDistribution`.
    family:
        Family name (``"lognormal"`` etc.).
    log_likelihood:
        Total log-likelihood at the fitted parameters.
    aic, bic:
        Akaike / Bayesian information criteria (lower is better).
    ks_statistic, ks_pvalue:
        One-sample Kolmogorov–Smirnov test of the fit.
    n_samples:
        Number of samples used.
    """

    distribution: LatencyDistribution
    family: str
    log_likelihood: float
    aic: float
    bic: float
    ks_statistic: float
    ks_pvalue: float
    n_samples: int

    def summary(self) -> str:
        """One-line report used by examples and EXPERIMENTS.md."""
        return (
            f"{self.family:<12} AIC={self.aic:12.1f}  BIC={self.bic:12.1f}  "
            f"KS={self.ks_statistic:.4f} (p={self.ks_pvalue:.3g})  "
            f"{self.distribution.describe()}"
        )


def _positive_samples(samples: np.ndarray) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size < 8:
        raise ValueError(f"need at least 8 samples to fit, got {arr.size}")
    if not np.isfinite(arr).all():
        raise ValueError("samples must be finite")
    if (arr < 0).any():
        raise ValueError("latency samples must be non-negative")
    # strictly positive values required for log-based likelihoods
    return np.maximum(arr, 1e-9)


def _scipy_mle(dist: str, x: np.ndarray) -> tuple[float, float]:
    """Zero-location MLE ``(shape, scale)`` from ``scipy.stats.<dist>.fit``."""
    import scipy.stats

    shape, _loc, scale = getattr(scipy.stats, dist).fit(x, floc=0.0)
    return float(shape), float(scale)


def _fit_lognormal(x: np.ndarray) -> LatencyDistribution:
    # MLE for the zero-location log-normal is available in closed form.
    logs = np.log(x)
    return LogNormal(mu=float(logs.mean()), sigma=float(max(logs.std(), 1e-9)))


def _fit_weibull(x: np.ndarray) -> LatencyDistribution:
    return Weibull(*_scipy_mle("weibull_min", x))


def _fit_gamma(x: np.ndarray) -> LatencyDistribution:
    return Gamma(*_scipy_mle("gamma", x))


def _fit_exponential(x: np.ndarray) -> LatencyDistribution:
    return Exponential(rate=float(1.0 / max(x.mean(), 1e-12)))


def _fit_pareto(x: np.ndarray) -> LatencyDistribution:
    return Pareto(*_scipy_mle("lomax", x))


def _fit_loglogistic(x: np.ndarray) -> LatencyDistribution:
    return LogLogistic(*_scipy_mle("fisk", x))


_FITTERS: dict[str, tuple[Callable[[np.ndarray], LatencyDistribution], int]] = {
    "lognormal": (_fit_lognormal, 2),
    "weibull": (_fit_weibull, 2),
    "gamma": (_fit_gamma, 2),
    "exponential": (_fit_exponential, 1),
    "pareto": (_fit_pareto, 2),
    "loglogistic": (_fit_loglogistic, 2),
}

#: Families accepted by :func:`fit_distribution` / :func:`select_model`.
SUPPORTED_FAMILIES: tuple[str, ...] = tuple(_FITTERS)


def fit_distribution(samples: np.ndarray, family: str) -> FitResult:
    """Fit one parametric family to latency samples by MLE.

    Parameters
    ----------
    samples:
        Non-negative latency observations (e.g. non-outlier probe
        latencies from a trace set).
    family:
        One of :data:`SUPPORTED_FAMILIES`.

    Returns
    -------
    FitResult
        Fitted distribution plus goodness-of-fit diagnostics.
    """
    if family not in _FITTERS:
        raise ValueError(
            f"unknown family {family!r}; supported: {', '.join(SUPPORTED_FAMILIES)}"
        )
    import scipy.stats

    x = _positive_samples(samples)
    fitter, n_params = _FITTERS[family]
    dist = fitter(x)

    with np.errstate(divide="ignore"):
        log_pdf = np.log(np.maximum(np.asarray(dist.pdf(x)), 1e-300))
    loglik = float(log_pdf.sum())
    n = x.size
    aic = 2.0 * n_params - 2.0 * loglik
    bic = n_params * float(np.log(n)) - 2.0 * loglik
    ks = scipy.stats.kstest(x, lambda t: np.asarray(dist.cdf(t)))
    return FitResult(
        distribution=dist,
        family=family,
        log_likelihood=loglik,
        aic=aic,
        bic=bic,
        ks_statistic=float(ks.statistic),
        ks_pvalue=float(ks.pvalue),
        n_samples=int(n),
    )


def select_model(
    samples: np.ndarray,
    families: Sequence[str] = SUPPORTED_FAMILIES,
    *,
    criterion: str = "aic",
) -> list[FitResult]:
    """Fit several families and rank them by a selection criterion.

    Parameters
    ----------
    samples:
        Latency observations.
    families:
        Families to try (default: all supported).
    criterion:
        ``"aic"``, ``"bic"`` or ``"ks"`` (Kolmogorov–Smirnov statistic).

    Returns
    -------
    list[FitResult]
        All successful fits, best first.  Families whose optimiser fails
        on the given data are silently skipped (at least one must
        succeed).
    """
    keyfuncs = {
        "aic": lambda r: r.aic,
        "bic": lambda r: r.bic,
        "ks": lambda r: r.ks_statistic,
    }
    if criterion not in keyfuncs:
        raise ValueError(f"criterion must be one of {sorted(keyfuncs)}, got {criterion!r}")
    results: list[FitResult] = []
    for family in families:
        if family not in _FITTERS:
            raise ValueError(
                f"unknown family {family!r}; supported: {', '.join(SUPPORTED_FAMILIES)}"
            )
        try:
            results.append(fit_distribution(samples, family))
        except (ValueError, RuntimeError):
            continue  # optimiser failure on this family; others may succeed
    if not results:
        raise RuntimeError("no family could be fitted to the samples")
    results.sort(key=keyfuncs[criterion])
    return results
