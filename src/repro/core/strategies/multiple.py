"""Multiple (burst) submission strategy (paper §5, Eqs. 3–4).

For each task, ``b`` identical copies are submitted at once; as soon as
one starts running the others are cancelled.  If none starts before
``t∞``, the whole collection is cancelled and resubmitted.  The minimum of
``b`` i.i.d. latencies has sub-cdf::

    B(t) = 1 - (1 - F̃(t))^b

so Eqs. (3)–(4) are Eqs. (1)–(2) with ``F̃ → B``.  This module is the one
implementation of that round law: single resubmission (§4) is the
``b = 1`` burst, whose ``B`` is ``F̃`` itself.
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-round cdf ``B``, survival ``S^b`` and ``A_b = ∫₀^t S^b``.

    The one-copy round (``b = 1``) is the model's own tabulation.  Its cdf
    must be ``F̃`` itself: ``1 - S`` differs from it in the last bits,
    which would move single resubmission's optimum.
    """
    if b < 1:
        raise ValueError(f"burst size b must be >= 1, got {b}")
    if b == 1:
        return model.F, model.S, model.A
    surv_b = model.S**b
    return 1.0 - surv_b, surv_b, model.grid.cumint(surv_b)


def _moment_integrals(
    model: GriddedLatencyModel, surv_b: np.ndarray, a_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Truncated moments ``∫₀^t u·dB`` and ``∫₀^t u²·dB`` of the round winner.

    Obtained by parts from the survival integrals (``m1 = A_b - t·S^b``,
    ``m2 = 2·∫u·S^b - t²·S^b``) so they stay exactly consistent with the
    Eq. (3) sweep.  Computed per call for every ``b`` and cached nowhere.
    """
    t = model.times
    m1_b = a_b - t * surv_b
    m2_b = 2.0 * model.grid.cumint(t * surv_b) - t**2 * surv_b
    return m1_b, m2_b


def multiple_expectation_sweep(model: GriddedLatencyModel, b: int) -> np.ndarray:
    """``E_J(t∞)`` for burst size ``b`` at every grid timeout (Eq. 3);
    ``+inf`` where every round fails (``B(t∞) = 0``)."""
    p, _surv_b, a_b = _batch_arrays(model, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = a_b / p
    e = np.where(p > 0.0, e, np.inf)
    e[0] = np.inf  # t∞ = 0 is not a usable timeout
    return e


def multiple_moments(
    model: GriddedLatencyModel, b: int, t_inf: float
) -> StrategyMoments:
    """``E_J`` and ``σ_J`` for burst size ``b`` at one timeout."""
    k = model.index_of(t_inf)
    cdf_b, surv_b, a_b = _batch_arrays(model, b)
    p = float(cdf_b[k])
    if p <= 0.0:
        return StrategyMoments(expectation=float("inf"), std=float("inf"))
    m1_b, m2_b = _moment_integrals(model, surv_b, a_b)
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
        Number of identical copies submitted per burst, a positive
        integer (``b = 1`` is single resubmission).
    t_inf:
        Collective timeout: if no copy started, the burst is cancelled
        and resubmitted (seconds).
    """

    b: int
    t_inf: float
    name = "multiple"

    def __post_init__(self) -> None:
        b = self.b
        try:
            whole = not isinstance(b, bool) and int(b) == b
        except (TypeError, ValueError, OverflowError):
            whole = False  # NaN and ±inf have no integer value
        if not whole or b < 1:
            raise ValueError(f"b must be a positive integer, got {b!r}")
        object.__setattr__(self, "b", int(b))
        check_positive("t_inf", self.t_inf)

    def moments(self, model: GriddedLatencyModel) -> StrategyMoments:
        return multiple_moments(model, self.b, self.t_inf)

    def mean_parallel_jobs(self, model: GriddedLatencyModel) -> float:
        """The paper counts ``N_// = b`` for burst submission (§7)."""
        return float(self.b)

    def describe(self) -> str:
        return f"multiple submission (b={self.b}, t_inf={self.t_inf:g}s)"
