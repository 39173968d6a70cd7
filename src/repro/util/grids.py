"""Uniform time grids and vectorised integration primitives.

Every analytic quantity in the paper is an integral of the latency
sub-distribution ``F̃_R`` over ``[0, t]`` for many candidate ``t`` at once
(timeout sweeps).  Following the optimisation guidance for numerical Python
(vectorise, compute cumulatively, avoid per-candidate Python loops), all
integrals are evaluated as cumulative trapezoid sums over a shared uniform
grid, which makes a full sweep over *all* candidate timeouts a single O(n)
pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_positive

__all__ = ["TimeGrid", "cumulative_trapezoid"]


def cumulative_trapezoid(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative trapezoid integral of ``y`` sampled at spacing ``dx``.

    Returns an array ``I`` of the same length as ``y`` with ``I[0] = 0`` and
    ``I[k] = ∫₀^{k·dx} y`` under the trapezoid rule.  Matches
    :func:`scipy.integrate.cumulative_trapezoid` with ``initial=0`` but
    avoids the scipy call overhead in hot loops.

    Parameters
    ----------
    y:
        Sampled integrand, 1-D or n-D (integration along the last axis).
    dx:
        Grid spacing (seconds).
    """
    y = np.asarray(y, dtype=np.float64)
    out = np.empty_like(y)
    if y.ndim == 1:
        out[0] = 0.0
        np.cumsum((y[1:] + y[:-1]) * (0.5 * dx), out=out[1:])
    else:
        out[..., 0] = 0.0
        np.cumsum((y[..., 1:] + y[..., :-1]) * (0.5 * dx), axis=-1, out=out[..., 1:])
    return out


@dataclass(frozen=True)
class TimeGrid:
    """A uniform grid ``0, dt, 2·dt, …, t_max`` used to tabulate ``F̃_R``.

    The default configuration (``t_max=10_000``, ``dt=1``) matches the
    paper's setting: probe jobs are cancelled at 10,000 s (outliers) and
    timeouts are optimised at integer-second resolution (§7.1: "the study
    was limited to integer values of t0 and t∞").

    Attributes
    ----------
    t_max:
        Upper end of the grid in seconds (inclusive).
    dt:
        Grid spacing in seconds.
    """

    t_max: float = 10_000.0
    dt: float = 1.0

    def __post_init__(self) -> None:
        check_positive("t_max", self.t_max)
        check_positive("dt", self.dt)
        if self.t_max < self.dt:
            raise ValueError(
                f"t_max ({self.t_max}) must be at least one grid step ({self.dt})"
            )

    @property
    def n(self) -> int:
        """Number of grid points (including both endpoints)."""
        return int(round(self.t_max / self.dt)) + 1

    @property
    def times(self) -> np.ndarray:
        """The grid points as a float64 array of shape ``(n,)``."""
        return np.arange(self.n, dtype=np.float64) * self.dt

    def index_of(self, t: float) -> int:
        """Index of the grid point nearest to time ``t``.

        Raises
        ------
        ValueError
            If ``t`` lies outside ``[0, t_max]`` (beyond half a grid step).
        """
        idx = int(round(t / self.dt))
        if idx < 0 or idx >= self.n:
            raise ValueError(
                f"time {t!r} outside grid [0, {self.t_max}] at dt={self.dt}"
            )
        return idx

    def time_of(self, index: int) -> float:
        """Time coordinate of grid point ``index``."""
        if not 0 <= index < self.n:
            raise ValueError(f"index {index} outside grid of size {self.n}")
        return index * self.dt

    def cumint(self, y: np.ndarray) -> np.ndarray:
        """Cumulative trapezoid integral of ``y`` tabulated on this grid."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape[-1] != self.n:
            raise ValueError(
                f"integrand has {y.shape[-1]} samples, grid has {self.n} points"
            )
        return cumulative_trapezoid(y, self.dt)

    def derivative(self, y: np.ndarray) -> np.ndarray:
        """Central-difference derivative of ``y`` on this grid.

        One-sided differences are used at the endpoints, matching
        :func:`numpy.gradient`.
        """
        y = np.asarray(y, dtype=np.float64)
        if y.shape[-1] != self.n:
            raise ValueError(
                f"array has {y.shape[-1]} samples, grid has {self.n} points"
            )
        return np.gradient(y, self.dt, axis=-1)
