"""The paper's primary contribution: probabilistic submission-strategy models.

Public surface:

* :class:`LatencyModel` — a latency distribution paired with a fault
  (outlier) ratio ``ρ``; exposes the sub-distribution
  ``F̃_R(t) = (1-ρ)·F_R(t)`` that all strategy formulas operate on.
* :class:`GriddedLatencyModel` — ``F̃_R`` tabulated on a uniform
  :class:`~repro.util.grids.TimeGrid` with precomputed cumulative
  integrals, the vectorised evaluation backend.
* Strategies: :class:`MultipleSubmission` (§5, Eqs. 3–4), its ``b = 1``
  case :class:`SingleResubmission` (§4, Eqs. 1–2),
  :class:`DelayedResubmission` (§6, Eq. 5 + N_// of §6.1).
* :func:`delta_cost` and friends — the §7 cost criterion (Eq. 6).
* Optimisers — vectorised sweeps returning optimal timeouts
  (:func:`optimize_single`, :func:`optimize_multiple`,
  :func:`optimize_delayed`, :func:`optimize_delayed_ratio`,
  :func:`optimize_delayed_cost`).
* :mod:`repro.core.paper_equations` — the printed Eq. (5)'s union
  decomposition, whose gap to the exact form ``abl-eq5`` measures.
"""

from repro.core.model import GriddedLatencyModel, LatencyModel
from repro.core.cost import delta_cost, cost_curve_multiple, cost_curve_delayed
from repro.core.diagnostics import TimeoutDiagnosis, diagnose_timeout, hazard_rate
from repro.core.distribution_of_j import (
    multiple_survival,
    strategy_quantile,
    survival_to_quantile,
)
from repro.core.optimize import (
    DelayedOptimum,
    SingleOptimum,
    optimize_delayed,
    optimize_delayed_cost,
    optimize_delayed_ratio,
    optimize_multiple,
    optimize_single,
)
from repro.core.strategies import (
    DelayedResubmission,
    MultipleSubmission,
    SingleResubmission,
    Strategy,
    StrategyMoments,
)

__all__ = [
    "LatencyModel",
    "GriddedLatencyModel",
    "delta_cost",
    "cost_curve_multiple",
    "cost_curve_delayed",
    "TimeoutDiagnosis",
    "diagnose_timeout",
    "hazard_rate",
    "multiple_survival",
    "strategy_quantile",
    "survival_to_quantile",
    "SingleOptimum",
    "DelayedOptimum",
    "optimize_single",
    "optimize_multiple",
    "optimize_delayed",
    "optimize_delayed_ratio",
    "optimize_delayed_cost",
    "Strategy",
    "StrategyMoments",
    "SingleResubmission",
    "MultipleSubmission",
    "DelayedResubmission",
]
