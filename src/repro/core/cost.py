"""The §7 strategy-cost criterion (Eq. 6).

A strategy that keeps ``N_//`` copies in flight but finishes a factor
``> N_//`` sooner *reduces* the total grid load (Fig. 7's argument), so
the paper defines::

    Δcost = N_// · E_J(strategy) / E_J(single resubmission, b=1)

``Δcost = 1`` for the optimal single resubmission by construction;
``Δcost < 1`` marks strategies that are simultaneously faster for the user
and lighter for the infrastructure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.model import GriddedLatencyModel
from repro.core.strategies.delayed import n_parallel_for_latency

__all__ = ["delta_cost", "CostPoint", "cost_curve_multiple", "cost_curve_delayed"]


def delta_cost(n_parallel: float, e_j: float, e_j_single: float) -> float:
    """Eq. (6): ``Δcost = N_// · E_J / E_J(single, optimal)``.

    Parameters
    ----------
    n_parallel:
        Mean number of identical copies in the system (``N_//``).
    e_j:
        Expected total latency of the evaluated strategy (s).
    e_j_single:
        Expected total latency of the optimal single resubmission (s) —
        the normalising reference whose cost is 1 by definition.
    """
    if e_j_single <= 0:
        raise ValueError(f"e_j_single must be > 0, got {e_j_single!r}")
    if n_parallel < 1.0 - 1e-12:
        raise ValueError(f"n_parallel must be >= 1, got {n_parallel!r}")
    return float(n_parallel) * float(e_j) / float(e_j_single)


@dataclass(frozen=True)
class CostPoint:
    """One point of a cost curve (Fig. 8 / Table 4).

    Attributes
    ----------
    n_parallel:
        Mean number of parallel copies (x axis of Fig. 8).
    e_j:
        Minimal expected total latency achieved at this configuration (s).
    cost:
        ``Δcost`` of Eq. (6).
    params:
        Strategy parameters achieving the point (``t_inf`` or
        ``(t0, t_inf)``).
    """

    n_parallel: float
    e_j: float
    cost: float
    params: dict


def cost_curve_multiple(
    model: GriddedLatencyModel,
    b_values: list[int],
    e_j_single: float,
) -> list[CostPoint]:
    """Δcost of the optimal multiple submission for each burst size.

    For burst submission the paper takes ``N_// = b``; each point uses the
    timeout minimising ``E_J`` for that ``b``.
    """
    from repro.core.optimize import optimize_multiple  # local import: cycle

    points = []
    for b in b_values:
        opt = optimize_multiple(model, b)
        points.append(
            CostPoint(
                n_parallel=float(b),
                e_j=opt.e_j,
                cost=delta_cost(float(b), opt.e_j, e_j_single),
                params={"b": b, "t_inf": opt.t_inf},
            )
        )
    return points


def cost_curve_delayed(
    model: GriddedLatencyModel,
    ratios: list[float],
    e_j_single: float,
) -> list[CostPoint]:
    """Δcost of the ratio-constrained delayed strategy (Table 4, left).

    For each imposed ratio ``t∞/t0``, ``(t0, t∞)`` minimising ``E_J`` is
    found; ``N_//`` is the paper's plug-in value at ``l = E_J``.  All
    ratios share one streamed surface pass (see
    :func:`repro.core.optimize.optimize_delayed_ratio_sweep`).
    """
    from repro.core.optimize import optimize_delayed_ratio_sweep  # local import: cycle

    points = []
    for ratio, opt in zip(ratios, optimize_delayed_ratio_sweep(model, ratios)):
        n_par = float(n_parallel_for_latency(opt.e_j, opt.t0, opt.t_inf))
        points.append(
            CostPoint(
                n_parallel=n_par,
                e_j=opt.e_j,
                cost=delta_cost(n_par, opt.e_j, e_j_single),
                params={"t0": opt.t0, "t_inf": opt.t_inf, "ratio": ratio},
            )
        )
    return points
