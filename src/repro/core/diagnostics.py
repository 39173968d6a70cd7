"""Latency-model diagnostics: the hazard rate and the first-order
optimality condition for the single-resubmission timeout.

Background (Glatard, Montagnat & Pennec, CCGrid'07 — the paper's ref [8]):
differentiating Eq. (1) shows that a timeout ``t∞`` is stationary iff ::

    E_J(t∞) = (1 - F̃(t∞)) / f̃(t∞)

i.e. the expected total latency equals the inverse hazard of the
sub-distribution at the timeout.  For light-tailed latencies (increasing
hazard) no finite timeout helps; heavy tails and outliers (decreasing
hazard / defective mass) make finite timeouts optimal — the paper's
motivation in one identity.  These diagnostics let a user inspect *why*
the optimiser picked its timeout on their trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import GriddedLatencyModel
from repro.core.strategies.multiple import multiple_expectation_sweep

__all__ = [
    "hazard_rate",
    "TimeoutDiagnosis",
    "diagnose_timeout",
]


def hazard_rate(
    model: GriddedLatencyModel, *, window: int = 0
) -> np.ndarray:
    """Sub-distribution hazard ``f̃(t) / (1 - F̃(t))`` on the grid.

    Because ``F̃`` saturates at ``1-ρ``, the hazard decays to zero as the
    outlier mass dominates — waiting on an old job becomes hopeless,
    which is exactly what resubmission exploits.

    Parameters
    ----------
    window:
        Half-width (in grid cells) of the centred difference used for the
        density.  0 uses the raw gradient; empirical (ECDF-backed) models
        need ``window`` ≈ a few dozen cells to tame sampling jitter.
    """
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    if window == 0:
        dens = model.f
    else:
        n = model.grid.n
        k = np.arange(n)
        hi = np.minimum(k + window, n - 1)
        lo = np.maximum(k - window, 0)
        span = (hi - lo) * model.grid.dt
        dens = np.where(span > 0, (model.F[hi] - model.F[lo]) / np.maximum(span, 1e-300), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = dens / model.S
    return np.where(model.S > 1e-12, h, 0.0)


@dataclass(frozen=True)
class TimeoutDiagnosis:
    """Why a given timeout is (or is not) locally optimal.

    Attributes
    ----------
    t_inf:
        The timeout under inspection (s).
    e_j:
        Expected total latency at that timeout (s).
    inverse_hazard:
        ``(1-F̃)/f̃`` at the timeout (s) — the stationarity reference.
    gap:
        ``e_j - inverse_hazard``.  Since
        ``dE_J/dt∞ = f̃·(1/hazard - E_J)/F̃``, a *positive* gap means
        ``E_J`` is still decreasing (raise the timeout), a *negative*
        gap means the stationary point was passed (cancel sooner), and
        zero marks local optimality.
    """

    t_inf: float
    e_j: float
    inverse_hazard: float
    gap: float

    @property
    def verdict(self) -> str:
        """Human-readable reading of the gap."""
        if not np.isfinite(self.gap):
            return "hazard vanished: timeout far beyond the observed support"
        scale = max(abs(self.e_j), 1.0)
        if abs(self.gap) < 0.05 * scale:
            return "stationary: locally optimal timeout"
        if self.gap > 0:
            return "raising the timeout still pays (E_J above inverse hazard)"
        return "past the stationary point: cancel sooner (E_J below inverse hazard)"


def diagnose_timeout(
    model: GriddedLatencyModel, t_inf: float, *, window: int = 25
) -> TimeoutDiagnosis:
    """Evaluate the ref-[8] stationarity condition at one timeout.

    ``window`` smooths the density estimate (see :func:`hazard_rate`);
    the default suits empirical models on a 1–2 s grid.
    """
    k = model.index_of(t_inf)
    e_j = float(multiple_expectation_sweep(model, 1)[k])
    h = float(hazard_rate(model, window=window)[k])
    inv_h = 1.0 / h if h > 1e-15 else float("inf")
    return TimeoutDiagnosis(
        t_inf=model.grid.time_of(k),
        e_j=e_j,
        inverse_hazard=inv_h,
        gap=e_j - inv_h if np.isfinite(inv_h) else float("inf"),
    )
