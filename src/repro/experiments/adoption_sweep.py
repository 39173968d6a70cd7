"""Extension — what if many users adopt the same strategy? (paper §8)

The paper's stated future work: "the impact of all grid users exploiting
the same strategy can be simulated in a controlled environment."  This
experiment does exactly that on the DES grid: fleets of increasing size
all run the multiple-submission strategy concurrently on a *small* grid
(so the client-induced load is material), and we measure how the
realised latency responds — the feedback loop the analytic model
deliberately ignores (§3.3 assumes additional jobs have no measurable
impact on the grid workload).
"""

from __future__ import annotations

from repro.core.optimize import optimize_delayed
from repro.core.strategies import (
    DelayedResubmission,
    MultipleSubmission,
    SingleResubmission,
)
from repro.experiments.base import ExperimentResult
from repro.experiments.context import T0_WINDOW
from repro.gridsim import (
    FaultModel,
    GridConfig,
    SiteConfig,
    run_strategy_on_grid,
    warmed_snapshot,
)
from repro.util.tables import Table, format_float, format_seconds

__all__ = ["run", "adoption_grid_config"]

EXPERIMENT_ID = "abl-adopt"
TITLE = "Extension: fleet adoption of the multiple-submission strategy"


def adoption_grid_config() -> GridConfig:
    """A deliberately small grid (~100 cores) so fleet load is material."""
    return GridConfig(
        sites=(
            SiteConfig("a", 16, utilization=0.85, runtime_median=2400.0),
            SiteConfig("b", 24, utilization=0.85, runtime_median=3600.0),
            SiteConfig("c", 32, utilization=0.80, runtime_median=1800.0),
            SiteConfig("d", 16, utilization=0.90, runtime_median=3000.0),
            SiteConfig("e", 12, utilization=0.85, runtime_median=2400.0),
        ),
        matchmaking_median=45.0,
        faults=FaultModel(p_lost=0.02, p_stuck=0.02),
    )


def run(
    ctx=None,
    *,
    seed: int = 23,
    fleet_sizes: tuple[int, ...] = (25, 100, 400),
    b: int = 3,
    runtime: float = 1800.0,
    window: float = 6 * 3600.0,
) -> ExperimentResult:
    """Sweep the number of tasks concurrently using burst submission.

    Each fleet size runs on a fresh same-seed grid; tasks arrive inside a
    fixed window, so larger fleets inject proportionally more load.  A
    single-submission fleet of the largest size is the control.

    All fleets fork the same 4-hour-warmed snapshot (identical to warming
    a fresh same-seed grid, paid once) and are fully independent.
    """
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    config = adoption_grid_config()

    table = Table(
        title=TITLE,
        columns=[
            "fleet",
            "strategy",
            "mean J",
            "jobs/task",
            "queued at end",
            "gave up",
        ],
    )

    fleets: list[tuple[int, object, str]] = [
        (fleet_sizes[-1], SingleResubmission(t_inf=4000.0), "single (control)")
    ]
    fleets += [
        (n, MultipleSubmission(b=b, t_inf=4000.0), f"multiple b={b}")
        for n in fleet_sizes
    ]
    if ctx is not None:
        # paper-calibrated delayed fleet: the whole (t0, t∞) surface of the
        # 2006-IX analytic model in one batched request, scaled to this
        # grid's latency regime, executed mechanistically at the top fleet
        opt = optimize_delayed(
            ctx.model("2006-IX"), t0_min=T0_WINDOW[0], t0_max=T0_WINDOW[1]
        )
        scale = max(1.0, 4000.0 / opt.t_inf)
        fleets.append(
            (
                fleet_sizes[-1],
                DelayedResubmission(t0=scale * opt.t0, t_inf=scale * opt.t_inf),
                f"delayed (t0={scale * opt.t0:.0f}s)",
            )
        )

    snap = warmed_snapshot(config, seed=seed, duration=4 * 3600.0)
    outcomes = []
    for n_tasks, strategy, label in fleets:
        grid = snap.restore()
        outcome = run_strategy_on_grid(
            grid,
            strategy,
            n_tasks,
            task_interval=window / n_tasks,
            runtime=runtime,
            horizon=window + 100_000.0,
        )
        outcomes.append(outcome)
        table.add_row(
            n_tasks,
            label,
            format_seconds(outcome.mean_j),
            format_float(outcome.mean_jobs, 2),
            grid.total_queue_length(),
            outcome.gave_up,
        )

    control = outcomes[0].mean_j
    means = [o.mean_j for o in outcomes[1 : 1 + len(fleet_sizes)]]

    erosion = means[-1] / means[0]
    notes = [
        f"burst users beat the same-size single-submission fleet "
        f"(control mean J = {control:.0f}s vs {means[-1]:.0f}s for "
        f"burst at fleet {fleet_sizes[-1]})",
        f"but the advantage erodes with adoption: mean J grows x{erosion:.1f} "
        f"from fleet {fleet_sizes[0]} to fleet {fleet_sizes[-1]} "
        "(" + ", ".join(f"fleet {n}: {m:.0f}s" for n, m in zip(fleet_sizes, means)) + ") "
        "— the §3.3 no-feedback assumption breaks once adopters are a "
        "material share of the workload",
        "consistent with Casanova's observation that redundant requests "
        "penalise the infrastructure and non-adopters [3]",
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, tables=[table], notes=notes
    )
