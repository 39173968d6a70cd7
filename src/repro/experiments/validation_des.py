"""Validation — the modeling pipeline against the discrete-event grid.

The full production workflow: measure probe latencies on the simulated
grid (the §3.2 protocol), fit the empirical latency model, optimise the
strategies analytically, then *execute* each strategy mechanically on a
fresh grid with the same seed and compare realised vs predicted ``E_J``.
The analytic model sees only probe data, the executor sees only the grid
— agreement means the paper's methodology (model from probes → deploy
strategy) is sound on a mechanistic substrate.
"""

from __future__ import annotations

from repro.core.optimize import optimize_multiple, optimize_single
from repro.core.strategies import (
    DelayedResubmission,
    MultipleSubmission,
    SingleResubmission,
)
from repro.experiments.base import ExperimentResult
from repro.gridsim import (
    ProbeExperiment,
    default_grid_config,
    run_strategy_on_grid,
    warmed_grid,
    warmed_snapshot,
)
from repro.util.grids import TimeGrid
from repro.util.tables import Table, format_float, format_seconds

__all__ = ["run"]

EXPERIMENT_ID = "val-des"
TITLE = "Validation: analytic predictions vs strategies executed on the DES grid"


def run(
    ctx=None,
    *,
    seed: int = 17,
    probe_days: float = 2.0,
    n_tasks: int = 120,
) -> ExperimentResult:
    """Probe the grid, model it, predict strategy gains, verify by execution."""
    if n_tasks < 10:
        raise ValueError(f"n_tasks must be >= 10, got {n_tasks}")
    config = default_grid_config()

    # 1. measurement campaign (paper §3.2) on a warmed-up grid; the
    # 12-hour warm-up is paid once — the strategy executions below fork
    # bit-identical clones of the same warmed master
    grid = warmed_grid(config, seed=seed, duration=12 * 3600.0)
    trace = ProbeExperiment(grid, n_slots=20, timeout=6000.0).run(
        probe_days * 86_400.0
    )
    model = trace.to_latency_model().on_grid(TimeGrid(t_max=6000.0, dt=1.0))

    # 2. analytic optimisation on the fitted model
    single = optimize_single(model)
    multi3 = optimize_multiple(model, 3)
    t0_d = model.grid.time_of(model.index_of(max(single.t_inf * 0.8, 60.0)))
    delayed = DelayedResubmission(t0=t0_d, t_inf=min(2 * t0_d, 1.5 * t0_d + 100))
    strategies = {
        "single": (SingleResubmission(t_inf=single.t_inf), single.e_j),
        "multiple b=3": (
            MultipleSubmission(b=3, t_inf=multi3.t_inf),
            multi3.e_j,
        ),
        "delayed": (delayed, delayed.expectation(model)),
    }

    # 3. mechanical execution on fresh same-seed grids (identical
    # workload): each execution restores its own fork of one warmed
    # snapshot
    table = Table(
        title=TITLE,
        columns=[
            "strategy",
            "predicted E_J",
            "realised E_J",
            "ratio",
            "jobs/task",
            "gave up",
        ],
    )
    snap = warmed_snapshot(config, seed=seed, duration=12 * 3600.0)
    ratios = []
    for name, (strategy, predicted) in strategies.items():
        outcome = run_strategy_on_grid(
            snap.restore(), strategy, n_tasks, task_interval=400.0, runtime=120.0
        )
        ratio = outcome.mean_j / predicted
        ratios.append((name, ratio))
        table.add_row(
            name,
            format_seconds(predicted),
            format_seconds(outcome.mean_j),
            format_float(ratio, 2),
            format_float(outcome.mean_jobs, 2),
            outcome.gave_up,
        )

    notes = [
        f"probe campaign: {len(trace)} probes, rho = "
        f"{trace.outlier_ratio:.3f}, mean latency "
        f"{trace.mean_latency():.0f}s",
        "predicted/realised ratios near 1 validate the paper's workflow "
        "(probe-based model -> client-side strategy) on a mechanistic "
        "grid; residual gaps reflect the grid's nonstationarity, which "
        "the stationary model cannot capture",
        "ordering check: "
        + ", ".join(f"{n}: x{r:.2f}" for n, r in ratios),
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, tables=[table], notes=notes
    )
