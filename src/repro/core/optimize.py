"""Timeout optimisation for the three strategies.

All optimisers are exhaustive vectorised sweeps over the model grid
(`integer-second timeouts, as in the paper §7.1`), optionally restricted
to a search window.  The delayed-strategy optimisers run on the batched
surface kernel (:func:`repro.core.strategies.delayed.delayed_expectation_surface`):
every stage streams its ``t0`` candidates in ascending row blocks of a
fixed float budget, evaluating each block's feasible ``(t0, t∞)`` band in
a few 2-D passes and keeping only the running optimum, so no stage ever
holds its whole rectangle.  The per-``t0`` rows are cached on the model
so repeated optimiser calls (ratio sweeps, cost frontiers, stability
boxes) reuse each other's tabulations.  The two-stage coarse→fine sweep
over ``t0`` is kept: it bounds the work while reproducing the exhaustive
optimum on every model we regenerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.cost import delta_cost
from repro.core.model import GriddedLatencyModel
from repro.core.strategies.delayed import (
    delayed_band_blocks,
    delayed_moments,
    n_parallel_for_latency,
)
from repro.core.strategies.multiple import (
    multiple_expectation_sweep,
    multiple_moments,
)
from repro.util.validation import check_positive

__all__ = [
    "SingleOptimum",
    "DelayedOptimum",
    "optimize_single",
    "optimize_multiple",
    "optimize_delayed",
    "optimize_delayed_ratio",
    "optimize_delayed_ratio_sweep",
    "optimize_delayed_cost",
]


@dataclass(frozen=True)
class SingleOptimum:
    """Optimal timeout for a one-parameter strategy (single / multiple).

    Attributes
    ----------
    t_inf:
        Optimal timeout (s).
    e_j:
        Minimal expected total latency (s).
    sigma_j:
        Standard deviation of the total latency at the optimum (s).
    """

    t_inf: float
    e_j: float
    sigma_j: float


@dataclass(frozen=True)
class DelayedOptimum:
    """Optimal ``(t0, t∞)`` for the delayed strategy.

    Attributes
    ----------
    t0, t_inf:
        Optimal delay and per-copy timeout (s).
    e_j, sigma_j:
        Moments of the total latency at the optimum (s).
    n_parallel:
        Paper-style ``N_//`` (piecewise §6.1 formula at ``l = E_J``).
    cost:
        ``Δcost`` when a single-resubmission reference was supplied,
        else ``nan``.
    """

    t0: float
    t_inf: float
    e_j: float
    sigma_j: float
    n_parallel: float
    cost: float = float("nan")


def _search_indices(
    model: GriddedLatencyModel,
    t_min: float | None,
    t_max: float | None,
) -> np.ndarray:
    grid = model.grid
    lo = 1 if t_min is None else max(1, grid.index_of(t_min))
    hi = grid.n - 1 if t_max is None else grid.index_of(t_max)
    if hi < lo:
        raise ValueError(f"empty search window [{t_min}, {t_max}]")
    return np.arange(lo, hi + 1)


def _optimize_timeout(
    model: GriddedLatencyModel, t_min: float | None, t_max: float | None, b: int
) -> SingleOptimum:
    """Argmin of the ``b``-burst Eq. (3) sweep over the search window,
    with its moments (``b = 1``: single resubmission, Eq. 1)."""
    idx = _search_indices(model, t_min, t_max)
    e = multiple_expectation_sweep(model, b)[idx]
    if not np.isfinite(e).any():
        raise ValueError("E_J is infinite over the whole search window")
    t_inf = model.grid.time_of(idx[int(np.argmin(e))])
    mom = multiple_moments(model, b, t_inf)
    return SingleOptimum(t_inf=t_inf, e_j=mom.expectation, sigma_j=mom.std)


def optimize_single(
    model: GriddedLatencyModel,
    *,
    t_min: float | None = None,
    t_max: float | None = None,
) -> SingleOptimum:
    """Minimise Eq. (1), Eq. (3) at ``b = 1``, over the timeout (paper §4).

    Parameters
    ----------
    model:
        Gridded latency model.
    t_min, t_max:
        Optional search window for ``t∞`` (defaults: whole grid).
    """
    return _optimize_timeout(model, t_min, t_max, 1)


def optimize_multiple(
    model: GriddedLatencyModel,
    b: int,
    *,
    t_min: float | None = None,
    t_max: float | None = None,
) -> SingleOptimum:
    """Minimise Eq. (3) over the timeout for burst size ``b`` (paper §5)."""
    return _optimize_timeout(model, t_min, t_max, b)


def _delayed_t0_candidates(
    model: GriddedLatencyModel,
    t0_min: float | None,
    t0_max: float | None,
    coarse: int,
) -> tuple[np.ndarray, int]:
    grid = model.grid
    lo = 2 if t0_min is None else max(2, grid.index_of(t0_min))
    default_hi = grid.n - 1
    hi = default_hi if t0_max is None else min(default_hi, grid.index_of(t0_max))
    if hi < lo:
        raise ValueError(f"empty t0 window [{t0_min}, {t0_max}]")
    stride = max(1, coarse)
    return np.arange(lo, hi + 1, stride), stride


def _best_streamed(blocks) -> tuple[int, int, float]:
    """Global minimiser of an objective streamed as ``(block, bands)`` pairs.

    ``bands[0]`` is the inf-padded objective rectangle of one row block
    (column ``j`` is ``t∞ = t0 + j·dt``), as :func:`delayed_band_blocks`
    yields it.  Blocks arrive in ascending ``t0`` and replace the incumbent
    only with a *strictly* smaller value, so ties resolve to the smallest
    ``t0`` then smallest ``t∞`` — the first-occurrence rule of one
    ``np.argmin`` over the whole rectangle, which therefore never has to
    exist.  Cells are finite or ``+inf`` by construction (infeasible cells
    are masked to ``+inf``).

    ``blocks`` may instead be a function that builds the stream from a
    ``cutoff`` — a zero-argument reader of the incumbent value — as
    :func:`delayed_band_blocks` takes it; the stream then skips every row
    whose lower bound reaches the incumbent.  Such a row holds no cell
    strictly below the incumbent, so the rule above picks the same cell.
    """
    best = (0, 0, np.inf)
    if callable(blocks):
        blocks = blocks(cutoff=lambda: best[2])
    for block, (rect, _) in blocks:
        i, j = divmod(int(np.argmin(rect)), rect.shape[1])
        if rect[i, j] < best[2]:
            best = (int(block[i]), int(block[i]) + j, float(rect[i, j]))
    if not np.isfinite(best[2]):
        raise ValueError("no feasible (t0, t_inf) in the search window")
    return best


def _best_two_stage(
    model: GriddedLatencyModel,
    candidates: np.ndarray,
    stride: int,
    e_j_single: float | None,
) -> tuple[int, int, float]:
    """Coarse streamed sweep, then a unit-stride one around its best ``t0``.

    Minimises ``E_J``, or ``Δcost`` against ``e_j_single`` when given.
    Both sweeps are pruned (see :func:`delayed_band_blocks`).
    """
    k0, k_inf, value = _best_streamed(
        partial(delayed_band_blocks, model, candidates, e_j_single)
    )
    if stride > 1:
        lo = max(2, k0 - stride)
        hi = min(model.grid.n - 1, k0 + stride)
        k0, k_inf, value = _best_streamed(
            partial(delayed_band_blocks, model, np.arange(lo, hi + 1), e_j_single)
        )
    return k0, k_inf, value


def optimize_delayed(
    model: GriddedLatencyModel,
    *,
    t0_min: float | None = None,
    t0_max: float | None = None,
    coarse: int = 8,
    e_j_single: float | None = None,
) -> DelayedOptimum:
    """Globally minimise the delayed-strategy ``E_J`` over ``(t0, t∞)``.

    Two-stage search: a coarse sweep over ``t0`` (stride ``coarse`` grid
    steps, whole feasible ``t∞`` band per candidate, streamed through the
    batched surface kernel in row blocks), then a unit-stride refinement
    around the best coarse ``t0``.

    Parameters
    ----------
    model:
        Gridded latency model.
    t0_min, t0_max:
        Search window for ``t0`` (defaults: whole grid).
    coarse:
        Coarse-stage stride in grid steps (1 disables the second stage).
    e_j_single:
        Optional single-resubmission reference to also report ``Δcost``.
    """
    candidates, stride = _delayed_t0_candidates(model, t0_min, t0_max, coarse)
    k0, k_inf, _ = _best_two_stage(model, candidates, stride, None)
    return _finish_delayed(model, k0, k_inf, e_j_single)


def _ratio_k_inf(model: GriddedLatencyModel, k0v: np.ndarray, ratio: float) -> np.ndarray:
    """Grid index of ``ratio·t0`` clipped to the feasible band (per ``t0``)."""
    k_inf = np.minimum(np.rint(k0v * ratio).astype(np.intp), model.grid.n - 1)
    k_inf = np.minimum(k_inf, 2 * k0v)
    return np.maximum(k_inf, k0v)


def _finish_delayed(
    model: GriddedLatencyModel,
    k0: int,
    k_inf: int,
    e_j_single: float | None,
    cost: float | None = None,
) -> DelayedOptimum:
    """Assemble a :class:`DelayedOptimum` from winning grid indices."""
    t0 = model.grid.time_of(k0)
    t_inf = model.grid.time_of(k_inf)
    mom = delayed_moments(model, t0, t_inf)
    n_par = float(n_parallel_for_latency(mom.expectation, t0, t_inf))
    if cost is None:
        cost = (
            delta_cost(n_par, mom.expectation, e_j_single)
            if e_j_single is not None
            else float("nan")
        )
    return DelayedOptimum(
        t0=t0,
        t_inf=t_inf,
        e_j=mom.expectation,
        sigma_j=mom.std,
        n_parallel=n_par,
        cost=float(cost),
    )


def _best_ratio_cells(
    model: GriddedLatencyModel, k0s: np.ndarray, ratios
) -> list[tuple[int, int]]:
    """Per-ratio minimising ``(k0, k∞)`` over ``t0`` candidates ``k0s``.

    ``t∞`` is tied to ``ratio·t0`` (:func:`_ratio_k_inf`), so each row of
    one streamed pass hands every ratio its one cell.  The pass is pruned
    (see :func:`delayed_band_blocks`): it stops once a row's lower bound
    reaches the largest of the per-ratio incumbents, and the rows it never
    evaluates stay ``+inf``, at or above every ratio's incumbent.  Ties
    resolve to the smallest ``t0``.
    """
    k_inf_all = np.array(
        [_ratio_k_inf(model, k0s, ratio) for ratio in ratios], dtype=np.intp
    ).reshape(len(ratios), len(k0s))
    values_all = np.full(k_inf_all.shape, np.inf)
    incumbents = np.full(len(ratios), np.inf)
    start = 0
    # with no ratios the cutoff is -inf, which prunes the first block
    for block, (rect, _) in delayed_band_blocks(
        model, k0s, cutoff=lambda: incumbents.max(initial=-np.inf)
    ):
        cols = slice(start, start + block.size)
        values_all[:, cols] = rect[np.arange(block.size), k_inf_all[:, cols] - block]
        np.minimum(incumbents, values_all[:, cols].min(axis=1), out=incumbents)
        start += block.size
    out = []
    for k_inf_v, values in zip(k_inf_all, values_all):
        best_i = int(np.argmin(values))  # band rows are finite or +inf
        if not np.isfinite(values[best_i]):
            raise ValueError("no feasible (t0, t_inf) in the search window")
        out.append((int(k0s[best_i]), int(k_inf_v[best_i])))
    return out


def optimize_delayed_ratio(
    model: GriddedLatencyModel,
    ratio: float,
    *,
    t0_min: float | None = None,
    t0_max: float | None = None,
    e_j_single: float | None = None,
) -> DelayedOptimum:
    """Minimise delayed ``E_J`` with the ratio ``t∞/t0`` imposed (§6.2).

    ``t∞`` is tied to ``ratio·t0`` (rounded to the grid), so the sweep is
    one-dimensional over ``t0``.

    Parameters
    ----------
    ratio:
        Imposed ``t∞/t0`` in ``[1, 2]`` (Table 3 uses 1.1 … 2.0).
    """
    (opt,) = optimize_delayed_ratio_sweep(
        model, (ratio,), t0_min=t0_min, t0_max=t0_max, e_j_single=e_j_single
    )
    return opt


def optimize_delayed_ratio_sweep(
    model: GriddedLatencyModel,
    ratios,
    *,
    t0_min: float | None = None,
    t0_max: float | None = None,
    e_j_single: float | None = None,
) -> list[DelayedOptimum]:
    """Ratio-constrained optima for many imposed ratios from one surface.

    The coarse ``t0`` candidate set is shared by every ratio, so the whole
    Table 3 / Table 4 sweep costs one streamed surface pass
    (:func:`_best_ratio_cells`) plus, per ratio, the same pass over the
    unit-stride window around its coarse optimum (which reuses cached
    rows).
    """
    ratios = list(ratios)
    for ratio in ratios:
        if not 1.0 <= ratio <= 2.0:
            raise ValueError(f"ratio must be in [1, 2], got {ratio!r}")

    candidates, stride = _delayed_t0_candidates(model, t0_min, t0_max, 4)
    out = []
    for ratio, (k0, k_inf) in zip(
        ratios, _best_ratio_cells(model, candidates, ratios)
    ):
        if stride > 1:
            lo = max(2, k0 - stride)
            hi = min(model.grid.n - 1, k0 + stride)
            ((k0, k_inf),) = _best_ratio_cells(
                model, np.arange(lo, hi + 1), (ratio,)
            )
        out.append(_finish_delayed(model, k0, k_inf, e_j_single))
    return out


def optimize_delayed_cost(
    model: GriddedLatencyModel,
    e_j_single: float,
    *,
    t0_min: float | None = None,
    t0_max: float | None = None,
    coarse: int = 8,
) -> DelayedOptimum:
    """Minimise ``Δcost`` (not ``E_J``) over ``(t0, t∞)`` — §7.1 / Table 5.

    The paper finds e.g. ``Δcost = 0.93`` at ``t0 = 439 s, t∞ = 579 s`` on
    2006-IX, i.e. a configuration that both beats the single-resubmission
    latency and lowers the total grid load.

    Parameters
    ----------
    e_j_single:
        ``E_J`` of the optimal single resubmission on the same model (the
        Eq. 6 denominator).
    """
    check_positive("e_j_single", e_j_single)
    candidates, stride = _delayed_t0_candidates(model, t0_min, t0_max, coarse)
    k0, k_inf, best_cost = _best_two_stage(model, candidates, stride, e_j_single)
    return _finish_delayed(model, k0, k_inf, None, cost=best_cost)
