"""Shared experiment context: synthesized traces and cached models.

Most experiments operate on the same 13 trace sets and their gridded
models; the context synthesizes them once per (seed, dt) and caches the
derived models, the single-resubmission optima (the Eq. 6 reference used
everywhere in §7) and the delayed-strategy cost optima and ratio cost
curves that several tables and figures share.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.cost import CostPoint, cost_curve_delayed
from repro.core.model import GriddedLatencyModel
from repro.core.optimize import (
    DelayedOptimum,
    SingleOptimum,
    optimize_delayed_cost,
    optimize_single,
)
from repro.traces.dataset import TraceSet
from repro.traces.paper import synthesize_all
from repro.util.grids import TimeGrid

__all__ = ["ReproContext", "get_context"]

#: default t0 search window for delayed optimisations (s) — generous
#: around the observed latency scale, far cheaper than the whole grid
T0_WINDOW = (60.0, 2500.0)

#: the imposed ``t∞/t0`` ratios of the paper's Table 3 (also Table 4, Fig. 8)
RATIOS: tuple[float, ...] = (1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0)


class ReproContext:
    """Synthesized datasets + cached per-week models and optima."""

    def __init__(self, seed: int = 2009, dt: float = 1.0) -> None:
        self.seed = seed
        self.grid = TimeGrid(t_max=10_000.0, dt=dt)
        self.traces: dict[str, TraceSet] = synthesize_all(seed=seed)
        self._models: dict[str, GriddedLatencyModel] = {}
        self._singles: dict[str, SingleOptimum] = {}
        self._cost_optima: dict[str, DelayedOptimum] = {}
        self._ratio_curves: dict[str, tuple[CostPoint, ...]] = {}

    @property
    def weeks(self) -> list[str]:
        """All trace-set names in Table 1 display order."""
        return list(self.traces)

    def model(self, week: str) -> GriddedLatencyModel:
        """Gridded empirical latency model of one trace set (cached)."""
        if week not in self._models:
            self._models[week] = (
                self.traces[week].to_latency_model().on_grid(self.grid)
            )
        return self._models[week]

    def single_optimum(self, week: str) -> SingleOptimum:
        """Optimal single resubmission for one trace set (cached)."""
        if week not in self._singles:
            self._singles[week] = optimize_single(self.model(week))
        return self._singles[week]

    def cost_optimum(self, week: str) -> DelayedOptimum:
        """``Δcost``-optimal delayed ``(t0, t∞)`` over :data:`T0_WINDOW` (cached)."""
        if week not in self._cost_optima:
            self._cost_optima[week] = optimize_delayed_cost(
                self.model(week),
                self.single_optimum(week).e_j,
                t0_min=T0_WINDOW[0],
                t0_max=T0_WINDOW[1],
            )
        return self._cost_optima[week]

    def ratio_cost_curve(self, week: str) -> tuple[CostPoint, ...]:
        """``Δcost`` of the delayed optima at each of :data:`RATIOS` (cached)."""
        if week not in self._ratio_curves:
            self._ratio_curves[week] = tuple(
                cost_curve_delayed(
                    self.model(week), list(RATIOS), self.single_optimum(week).e_j
                )
            )
        return self._ratio_curves[week]


@lru_cache(maxsize=4)
def get_context(seed: int = 2009, dt: float = 1.0) -> ReproContext:
    """Process-wide cached context (experiments and benches share it)."""
    return ReproContext(seed=seed, dt=dt)
