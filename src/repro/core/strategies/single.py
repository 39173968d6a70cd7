"""Single resubmission strategy (paper §4, Eqs. 1–2).

The job is submitted; if it has not started after ``t∞`` seconds it is
cancelled and resubmitted, iterating until an attempt starts before its
timeout.  With per-attempt success probability ``p = F̃(t∞)``, the number
of failed attempts is geometric and the total latency is::

    J = K·t∞ + R_final ,   K ~ Geometric(p),  R_final ~ f̃ | R < t∞

which yields Eq. (1) for ``E_J`` and (after expanding ``E[J²]``) Eq. (2)
for ``σ_J``.  Both are evaluated here for *all* candidate timeouts at once
from the cached cumulative integrals of the gridded model, making timeout
optimisation a single vectorised pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import GriddedLatencyModel
from repro.core.strategies.base import Strategy, StrategyMoments
from repro.util.validation import check_positive

__all__ = [
    "SingleResubmission",
    "single_expectation_sweep",
    "single_moments",
]


def single_expectation_sweep(model: GriddedLatencyModel) -> np.ndarray:
    """``E_J(t∞)`` for every grid timeout (Eq. 1), vectorised.

    Entries where ``F̃(t∞) = 0`` (timeout below any observed latency —
    every attempt fails) are ``+inf``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        e = model.A / model.F
    e = np.where(model.F > 0.0, e, np.inf)
    e[0] = np.inf  # t∞ = 0 is not a usable timeout
    return e


def single_moments(model: GriddedLatencyModel, t_inf: float) -> StrategyMoments:
    """``E_J`` and ``σ_J`` at one timeout value."""
    k = model.index_of(t_inf)
    p = float(model.F[k])
    if p <= 0.0:
        return StrategyMoments(expectation=float("inf"), std=float("inf"))
    t = model.times[k]
    q = 1.0 - p
    m1 = float(model.M1[k])
    m2 = float(model.M2[k])
    e_j = (t * q + m1) / p
    e_j2 = (t**2) * q * (1.0 + q) / p**2 + 2.0 * t * q * m1 / p**2 + m2 / p
    return StrategyMoments(
        expectation=e_j, std=float(np.sqrt(max(0.0, e_j2 - e_j**2)))
    )


@dataclass(frozen=True, repr=False)
class SingleResubmission(Strategy):
    """Cancel-and-resubmit at timeout ``t∞`` (paper §4).

    Parameters
    ----------
    t_inf:
        Timeout after which the pending job is cancelled and resubmitted
        (seconds).
    """

    t_inf: float
    name = "single"

    def __post_init__(self) -> None:
        check_positive("t_inf", self.t_inf)

    def moments(self, model: GriddedLatencyModel) -> StrategyMoments:
        return single_moments(model, self.t_inf)

    def mean_parallel_jobs(self, model: GriddedLatencyModel) -> float:
        """Exactly one copy is ever in the system."""
        return 1.0

    def describe(self) -> str:
        return f"single resubmission (t_inf={self.t_inf:g}s)"
