"""Calibration of parametric latency laws against trace statistics.

Derives :data:`repro.traces.paper.LOGNORMAL_BODY`: given a target (mean,
std) of latencies *truncated at the probe timeout* — Table 1's columns —
solve for log-normal parameters whose truncated moments match.  The solver
inverts :func:`repro.distributions.moments.truncated_mean_std` with
:func:`scipy.optimize.least_squares`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributions.base import LatencyDistribution
from repro.distributions.moments import truncated_mean_std
from repro.distributions.parametric import LogNormal
from repro.distributions.shifted import ShiftedDistribution
from repro.traces.dataset import PROBE_TIMEOUT
from repro.util.validation import check_nonnegative, check_positive

__all__ = ["CalibrationResult", "calibrate_lognormal"]


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a truncated-moment calibration.

    Attributes
    ----------
    distribution:
        The calibrated (possibly shifted) log-normal law of ``R``.
    mu, sigma:
        Parameters of the underlying normal.
    achieved_mean, achieved_std:
        Truncated moments of the calibrated law at the timeout.
    target_mean, target_std:
        The requested moments.
    """

    distribution: LatencyDistribution
    mu: float
    sigma: float
    achieved_mean: float
    achieved_std: float
    target_mean: float
    target_std: float

    @property
    def relative_error(self) -> float:
        """Worst relative moment error (diagnostic)."""
        return max(
            abs(self.achieved_mean - self.target_mean) / self.target_mean,
            abs(self.achieved_std - self.target_std) / self.target_std,
        )


def calibrate_lognormal(
    target_mean: float,
    target_std: float,
    *,
    timeout: float = PROBE_TIMEOUT,
    shift: float = 0.0,
    tol: float = 1e-3,
) -> CalibrationResult:
    """Solve for a (shifted) log-normal matching truncated moments.

    Parameters
    ----------
    target_mean, target_std:
        Mean and standard deviation of ``R | R <= timeout`` to match —
        Table 1's ``mean < 10^5`` and ``σ_R`` columns.
    timeout:
        Truncation point (the probe timeout).
    shift:
        Fixed latency floor added below the log-normal body (seconds);
        models the incompressible middleware round trips.
    tol:
        Maximum acceptable relative moment error.

    Raises
    ------
    RuntimeError
        If the optimiser cannot match the targets within ``tol`` — e.g.
        a coefficient of variation unreachable under the family.
    """
    from scipy.optimize import least_squares

    check_positive("target_mean", target_mean)
    check_positive("target_std", target_std)
    check_positive("timeout", timeout)
    check_nonnegative("shift", shift)
    if target_mean <= shift:
        raise ValueError(
            f"target_mean ({target_mean}) must exceed the shift ({shift})"
        )
    if target_mean >= timeout:
        raise ValueError(
            f"target_mean ({target_mean}) must be below the timeout ({timeout})"
        )

    def build(params: np.ndarray) -> LatencyDistribution:
        mu, log_sigma = params
        body = LogNormal(mu=float(mu), sigma=float(np.exp(log_sigma)))
        return ShiftedDistribution(body, shift) if shift > 0 else body

    def residuals(params: np.ndarray) -> np.ndarray:
        dist = build(params)
        mean, std = truncated_mean_std(dist, timeout, n_points=8001)
        return np.array(
            [(mean - target_mean) / target_mean, (std - target_std) / target_std]
        )

    # start from the untruncated-moment solution of the unshifted body
    body0 = LogNormal.from_mean_std(
        max(target_mean - shift, 1.0), max(target_std, 1.0)
    )
    x0 = np.array([body0.mu, np.log(body0.sigma)])
    sol = least_squares(residuals, x0, xtol=1e-12, ftol=1e-12, max_nfev=200)
    dist = build(sol.x)
    achieved_mean, achieved_std = truncated_mean_std(dist, timeout, n_points=8001)
    result = CalibrationResult(
        distribution=dist,
        mu=float(sol.x[0]),
        sigma=float(np.exp(sol.x[1])),
        achieved_mean=achieved_mean,
        achieved_std=achieved_std,
        target_mean=target_mean,
        target_std=target_std,
    )
    if result.relative_error > tol:
        raise RuntimeError(
            f"calibration failed: relative error {result.relative_error:.3g} "
            f"> tol {tol} for targets mean={target_mean}, std={target_std}"
        )
    return result
