"""Full distribution of the total latency ``J`` under each strategy.

The paper reports only the first two moments of ``J``; for deadline-aware
planning (e.g. "which strategy gets 95 % of my jobs started within 20
minutes?") the whole law is needed.  This module tabulates ``P(J > t)``
on the model grid for all three strategies — single and multiple
submission share one lattice distribution over resubmission rounds
(single is the ``b = 1`` burst), the delayed case reuses the piecewise
product form of :mod:`repro.core.strategies.delayed`.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import GriddedLatencyModel
from repro.core.strategies import round_shape
from repro.core.strategies.delayed import delayed_survival
from repro.util.validation import check_in_range

__all__ = [
    "multiple_survival",
    "survival_to_quantile",
    "strategy_quantile",
]


def multiple_survival(
    model: GriddedLatencyModel, b: int, t_inf: float
) -> np.ndarray:
    """``P(J > t_k)`` for the ``b``-burst strategy at timeout ``t∞``
    (``b = 1``: single resubmission).

    Within round ``m`` (``t = m·t∞ + u``, ``u ∈ [0, t∞)``):
    ``P(J > t) = q^m · S^b(u)`` with ``q = S^b(t∞)``.
    """
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    k_inf = model.index_of(t_inf)
    if k_inf < 1:
        raise ValueError(f"t_inf={t_inf} is below the grid resolution")
    batch_survival = model.S**b
    n = model.grid.n
    q = float(batch_survival[k_inf])
    out = np.empty(n)
    qm = 1.0
    start = 0
    while start < n:
        stop = min(start + k_inf, n)
        out[start:stop] = qm * batch_survival[: stop - start]
        qm *= q
        start = stop
        if qm < 1e-300:
            out[start:] = 0.0
            break
    return out


def survival_to_quantile(
    model: GriddedLatencyModel, survival: np.ndarray, q: float
) -> float:
    """The ``q``-quantile of ``J`` from its tabulated survival function.

    Parameters
    ----------
    model:
        The gridded model the survival was tabulated on.
    survival:
        ``P(J > t_k)`` array of grid length, non-increasing.
    q:
        Quantile level in ``(0, 1)``; must be reachable on the grid
        (``P(J <= t_max) >= q``).
    """
    check_in_range("q", q, 0.0, 1.0, inclusive=(False, False))
    cdf = 1.0 - np.asarray(survival)
    if cdf[-1] < q:
        raise ValueError(
            f"quantile {q} not reached on the grid "
            f"(P(J <= t_max) = {cdf[-1]:.6f})"
        )
    idx = int(np.searchsorted(cdf, q, side="left"))
    if idx == 0:
        return 0.0
    # linear interpolation inside the bracketing cell
    c0, c1 = cdf[idx - 1], cdf[idx]
    t0, t1 = model.times[idx - 1], model.times[idx]
    if c1 <= c0:
        return float(t1)
    return float(t0 + (q - c0) / (c1 - c0) * (t1 - t0))


def strategy_quantile(
    model: GriddedLatencyModel,
    strategy,
    q: float,
) -> float:
    """``q``-quantile of ``J`` for any of the three strategy objects.

    Dispatches on the strategy's :func:`round_shape` ``(b, t0, t∞)``:
    rounds that follow each other (``t0 == t∞``: single, multiple, and
    delayed at its lower boundary) tabulate :func:`multiple_survival`,
    overlapping ones :func:`delayed_survival`.
    """
    b, t0, t_inf = round_shape(strategy)
    if t0 == t_inf:
        surv = multiple_survival(model, b, t_inf)
    else:
        surv = delayed_survival(model, t0, t_inf)
    return survival_to_quantile(model, surv, q)
