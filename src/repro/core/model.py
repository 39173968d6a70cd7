"""Latency models: a distribution plus a fault ratio, and its gridded form.

Paper §3: the latency ``R`` of a *successful* job follows a heavy-tailed
law ``F_R``; a fraction ``ρ`` of jobs are outliers (faults or latencies
beyond the probe timeout) that never start.  All strategy formulas operate
on the sub-distribution::

    F̃_R(t) = P(R < t) = (1 - ρ)·F_R(t)

which is *not* a cdf (it converges to ``1-ρ``), and on its density
``f̃_R = (1-ρ)·f_R``.

:class:`GriddedLatencyModel` tabulates ``F̃`` and its cumulative integrals
on a uniform grid so that every timeout sweep in :mod:`repro.core.strategies`
is a vectorised O(n) pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.distributions.base import LatencyDistribution
from repro.distributions.empirical import EmpiricalDistribution
from repro.util.grids import TimeGrid
from repro.util.rng import RngLike, as_rng
from repro.util.validation import check_probability

__all__ = ["LatencyModel", "GriddedLatencyModel"]


@dataclass(frozen=True)
class LatencyModel:
    """A latency distribution paired with an outlier (fault) ratio ``ρ``.

    Parameters
    ----------
    distribution:
        Law of the latency of non-outlier jobs (``F_R``).
    rho:
        Probability that a submitted job is an outlier — it faults or
        exceeds the measurement timeout and never starts (``ρ`` in §3).
    name:
        Optional label (e.g. the trace-set week ``"2006-IX"``).
    """

    distribution: LatencyDistribution
    rho: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.distribution, LatencyDistribution):
            raise TypeError(
                "distribution must be a LatencyDistribution, got "
                f"{type(self.distribution).__name__}"
            )
        check_probability("rho", self.rho)
        if self.rho >= 1.0:
            raise ValueError("rho must be < 1: some jobs must succeed")

    # -- sub-distribution ------------------------------------------------

    def F_tilde(self, t):
        """Sub-cdf ``F̃_R(t) = (1-ρ)·F_R(t) = P(R < t)``."""
        return (1.0 - self.rho) * np.asarray(self.distribution.cdf(t))

    # -- sampling ----------------------------------------------------------

    def sample_latencies(self, size: int, rng: RngLike = None) -> np.ndarray:
        """Draw raw latencies; outliers are returned as ``+inf``.

        This is the generative counterpart of ``F̃``: with probability
        ``ρ`` a job never starts (infinite latency), otherwise its latency
        is drawn from the distribution.
        """
        gen = as_rng(rng)
        out = self.distribution.rvs(size, gen)
        if self.rho > 0.0:
            outliers = gen.random(size) < self.rho
            out = np.where(outliers, np.inf, out)
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_samples(
        cls,
        latencies: np.ndarray,
        *,
        n_outliers: int = 0,
        name: str = "",
        smooth: bool = True,
    ) -> "LatencyModel":
        """Build an empirical model from observed trace latencies.

        Parameters
        ----------
        latencies:
            Latencies of jobs that *did* start (seconds).  Non-finite
            entries are treated as outliers and removed (counted into
            ``ρ`` on top of ``n_outliers``).
        n_outliers:
            Number of additional jobs that faulted or timed out without
            starting.  ``ρ`` is estimated as
            ``outliers / (outliers + successes)``.
        name:
            Label for reports.
        smooth:
            Passed through to :class:`EmpiricalDistribution`.
        """
        arr = np.asarray(latencies, dtype=np.float64).ravel()
        finite = arr[np.isfinite(arr)]
        extra_outliers = int(arr.size - finite.size)
        if n_outliers < 0:
            raise ValueError(f"n_outliers must be >= 0, got {n_outliers}")
        total_outliers = n_outliers + extra_outliers
        total = finite.size + total_outliers
        if finite.size == 0:
            raise ValueError("need at least one finite latency sample")
        rho = total_outliers / total
        return cls(
            distribution=EmpiricalDistribution(finite, smooth=smooth),
            rho=float(rho),
            name=name,
        )

    # -- gridding ------------------------------------------------------

    def on_grid(self, grid: TimeGrid | None = None) -> "GriddedLatencyModel":
        """Tabulate ``F̃`` on a uniform grid for vectorised evaluation."""
        return GriddedLatencyModel(self, grid or TimeGrid())

    def describe(self) -> str:
        """One-line report."""
        label = self.name or "latency model"
        return f"{label}: rho={self.rho:.4f}, R ~ {self.distribution.describe()}"


class GriddedLatencyModel:
    """``F̃_R`` tabulated on a :class:`TimeGrid` with cached integrals.

    Precomputes, on grid times ``t_k``:

    * ``F[k] = F̃(t_k)`` and ``S[k] = 1 - F[k]``;
    * ``A[k] = ∫₀^{t_k} (1-F̃(u)) du`` — the numerator of Eq. (1).

    With those arrays, an exhaustive sweep of single-resubmission
    expectations over *all* candidate timeouts is one vector division,
    per the HPC guidance of vectorising sweeps rather than looping.
    """

    def __init__(self, model: LatencyModel, grid: TimeGrid) -> None:
        if not isinstance(model, LatencyModel):
            raise TypeError(f"model must be a LatencyModel, got {type(model).__name__}")
        if not isinstance(grid, TimeGrid):
            raise TypeError(f"grid must be a TimeGrid, got {type(grid).__name__}")
        self.model = model
        self.grid = grid
        # per-t0 rows of the delayed E_J surface, filled lazily by
        # repro.core.strategies.delayed.delayed_expectation_surface so that
        # repeated optimiser calls on the same model reuse each other's work.
        # Keyed by the t0 grid index; values are the band arrays over the
        # feasible t∞ indices. Bounded by _DELAYED_CACHE_BUDGET (see delayed.py).
        self._delayed_band_cache: dict[int, np.ndarray] = {}
        self._delayed_band_cache_floats = 0

    # -- cached tabulations --------------------------------------------

    @cached_property
    def times(self) -> np.ndarray:
        """Grid times (seconds)."""
        return self.grid.times

    @cached_property
    def F(self) -> np.ndarray:
        """``F̃(t_k)`` — monotone, in ``[0, 1-ρ]``."""
        vals = np.asarray(self.model.F_tilde(self.times), dtype=np.float64)
        # enforce monotonicity against tiny numerical wiggles in cdf backends
        return np.maximum.accumulate(np.clip(vals, 0.0, 1.0))

    @cached_property
    def S(self) -> np.ndarray:
        """Survival ``1 - F̃(t_k)``."""
        return 1.0 - self.F

    @cached_property
    def f(self) -> np.ndarray:
        """Sub-density ``f̃(t_k)`` (finite-difference of ``F`` for robustness)."""
        return np.maximum(self.grid.derivative(self.F), 0.0)

    @cached_property
    def A(self) -> np.ndarray:
        """``∫₀^{t_k} (1 - F̃)`` — cumulative survival integral."""
        return self.grid.cumint(self.S)

    @cached_property
    def A1(self) -> np.ndarray:
        """``∫₀^{t_k} u (1 - F̃(u)) du`` — first survival moment."""
        return self.grid.cumint(self.times * self.S)

    # -- helpers ---------------------------------------------------------

    @property
    def rho(self) -> float:
        """Outlier ratio of the underlying model."""
        return self.model.rho

    def index_of(self, t: float) -> int:
        """Grid index nearest to time ``t``."""
        return self.grid.index_of(t)
