"""Multiple (burst) submission strategy (paper §5, Eqs. 3–4).

For each task, ``b`` identical copies are submitted at once; as soon as
one starts running the others are cancelled.  If none starts before
``t∞``, the whole collection is cancelled and resubmitted.  The minimum of
``b`` i.i.d. latencies has sub-cdf::

    B(t) = 1 - (1 - F̃(t))^b

so Eqs. (3)–(4) are Eqs. (1)–(2) with ``F̃ → B`` — implemented here by
reusing the geometric-sum moments with the batch survival ``S^b`` and the
batch sub-density ``b·S^(b-1)·f̃``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import GriddedLatencyModel
from repro.core.strategies.base import Strategy, StrategyMoments
from repro.util.validation import check_positive

__all__ = [
    "MultipleSubmission",
    "multiple_expectation_sweep",
    "multiple_moments",
]


def _batch_arrays(
    model: GriddedLatencyModel, b: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batch survival ``S^b``, its cumulative integral and moment integrals.

    The truncated moments of the batch minimum are obtained by parts from
    the survival integrals (``m1 = A_b - t·S^b``, ``m2 = 2·∫u·S^b - t²·S^b``)
    so they stay exactly consistent with the Eq. (3) sweep.
    """
    if b < 1:
        raise ValueError(f"burst size b must be >= 1, got {b}")
    surv_b = model.S**b
    a_b = model.grid.cumint(surv_b)
    t = model.times
    m1_b = a_b - t * surv_b
    m2_b = 2.0 * model.grid.cumint(t * surv_b) - t**2 * surv_b
    return surv_b, a_b, m1_b, m2_b


def multiple_expectation_sweep(model: GriddedLatencyModel, b: int) -> np.ndarray:
    """``E_J(t∞)`` for burst size ``b`` at every grid timeout (Eq. 3)."""
    surv_b, a_b, _m1, _m2 = _batch_arrays(model, b)
    p = 1.0 - surv_b
    with np.errstate(divide="ignore", invalid="ignore"):
        e = a_b / p
    e = np.where(p > 0.0, e, np.inf)
    e[0] = np.inf
    return e


def multiple_moments(
    model: GriddedLatencyModel, b: int, t_inf: float
) -> StrategyMoments:
    """``E_J`` and ``σ_J`` for burst size ``b`` at one timeout."""
    k = model.index_of(t_inf)
    surv_b, _a_b, m1_b, m2_b = _batch_arrays(model, b)
    p = float(1.0 - surv_b[k])
    if p <= 0.0:
        return StrategyMoments(expectation=float("inf"), std=float("inf"))
    t = model.times[k]
    q = 1.0 - p
    m1 = float(m1_b[k])
    m2 = float(m2_b[k])
    e_j = (t * q + m1) / p
    e_j2 = (t**2) * q * (1.0 + q) / p**2 + 2.0 * t * q * m1 / p**2 + m2 / p
    return StrategyMoments(
        expectation=e_j, std=float(np.sqrt(max(0.0, e_j2 - e_j**2)))
    )


@dataclass(frozen=True, repr=False)
class MultipleSubmission(Strategy):
    """Burst of ``b`` copies with collective timeout ``t∞`` (paper §5).

    Parameters
    ----------
    b:
        Number of identical copies submitted per burst (``b >= 1``;
        ``b = 1`` degenerates to single resubmission).
    t_inf:
        Collective timeout: if no copy started, the burst is cancelled
        and resubmitted (seconds).
    """

    b: int
    t_inf: float
    name = "multiple"

    def __post_init__(self) -> None:
        if int(self.b) != self.b or self.b < 1:
            raise ValueError(f"b must be a positive integer, got {self.b!r}")
        object.__setattr__(self, "b", int(self.b))
        check_positive("t_inf", self.t_inf)

    def moments(self, model: GriddedLatencyModel) -> StrategyMoments:
        return multiple_moments(model, self.b, self.t_inf)

    def mean_parallel_jobs(self, model: GriddedLatencyModel) -> float:
        """The paper counts ``N_// = b`` for burst submission (§7)."""
        return float(self.b)

    def describe(self) -> str:
        return f"multiple submission (b={self.b}, t_inf={self.t_inf:g}s)"
