"""The strategy frontier crossed with fault regimes and one remedy.

:mod:`~repro.experiments.grid_weather` and
:mod:`~repro.experiments.broker_storm` ask the same question of the
paper's user-side strategies (single / multiple / delayed, §4–6): does a
remedy elsewhere in the stack change which one is optimal under a fault
regime?  This module holds what they share: the site fabric, the
strategies, and :func:`cross_frontier`, the cell loop and its verdict.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, replace

from repro.core.strategies import (
    DelayedResubmission,
    MultipleSubmission,
    SingleResubmission,
)
from repro.experiments.base import ExperimentResult
from repro.gridsim import (
    FaultModel,
    GridConfig,
    SiteConfig,
    run_strategy_on_grid,
    warmed_snapshot,
)
from repro.util.tables import Table, format_float, format_seconds

__all__ = ["STRATEGIES", "Campaign", "cross_frontier", "frontier_grid_config"]

#: the frontier's columns; the ``"single"`` campaign yields the telemetry
STRATEGIES = (
    ("single", SingleResubmission(t_inf=4000.0)),
    ("multiple b=3", MultipleSubmission(b=3, t_inf=4000.0)),
    ("delayed", DelayedResubmission(t0=1500.0, t_inf=3000.0)),
)


def frontier_grid_config(**fields) -> GridConfig:
    """The 6-site, 140-core fabric, with ``fields`` set on its config.

    Sites carry 80 % background load of the default 1 h log-normal jobs.
    Ranking noise is zero: the information system ranks deterministically
    on its estimates, the worst case for black-hole attraction (every
    dispatch bucket herds into the hole's perfect-looking queue) and the
    regime where burst copies co-locate instead of scattering — their
    latency hedge must then come from surviving *faults*, not from
    sampling several queues.
    """
    cores = (8, 12, 16, 24, 32, 48)
    sites = tuple(SiteConfig(f"ce{i}", c, utilization=0.8) for i, c in enumerate(cores))
    return GridConfig(
        sites=sites,
        matchmaking_median=45.0,
        ranking_noise=0.0,
        faults=FaultModel(p_lost=0.03, p_stuck=0.03),
        **fields,
    )


@dataclass(frozen=True)
class Campaign:
    """What every cell runs: ``n_tasks`` tasks of ``runtime`` seconds,
    one launched every ``task_interval`` seconds on a grid warmed for
    ``warm`` seconds from ``seed``; ``job_cost`` is the utility's ``c``.
    """

    seed: int
    n_tasks: int = 400
    runtime: float = 600.0
    task_interval: float = 20.0
    job_cost: float = 60.0
    warm: float = 6 * 3600.0

    def __post_init__(self) -> None:
        if self.n_tasks < 10:
            raise ValueError(f"n_tasks must be >= 10, got {self.n_tasks}")
        if not self.job_cost >= 0.0:
            raise ValueError(f"job_cost must be >= 0, got {self.job_cost!r}")


def cross_frontier(
    campaign: Campaign,
    *,
    experiment_id: str,
    title: str,
    base: GridConfig,
    regimes: Sequence[tuple[str, Mapping]],
    remedy: str,
    remedy_column: str,
    remedy_on: str,
    remedy_fields: Mapping,
    telemetry_title: str,
    telemetry: Callable[[dict], dict],
    notes: Sequence[str],
) -> ExperimentResult:
    """Run every (regime, remedy off/on) cell and name the flips.

    A regime is a name and the config fields it sets on ``base``; the
    remedy sets ``remedy_fields`` on top (``remedy_on`` under the
    ``remedy_column`` heading).  Each cell restores its config's warmed
    snapshot once per strategy for the ``campaign``, so strategies
    within a cell face bit-identical grids, and elects the strategy with
    the least ``U = E(J) + c·E(jobs/task)``.  ``telemetry`` maps the
    single-submission grid's ``weather_report()`` to named columns.
    """
    columns = ["regime", remedy_column, *(f"{n} J (jobs)" for n, _ in STRATEGIES)]
    frontier = Table(title=title, columns=[*columns, "best U"])
    telemetry_rows: list[tuple[str, str, dict]] = []
    flips: list[str] = []
    for regime, fields in regimes:
        bests: list[str] = []
        for label, cell_fields in (("off", {}), (remedy_on, remedy_fields)):
            config = replace(base, **fields, **cell_fields)
            snap = warmed_snapshot(config, seed=campaign.seed, duration=campaign.warm)
            utility: dict[str, float] = {}
            cells: list[str] = []
            for name, strategy in STRATEGIES:
                grid = snap.restore()
                out = run_strategy_on_grid(
                    grid,
                    strategy,
                    campaign.n_tasks,
                    task_interval=campaign.task_interval,
                    runtime=campaign.runtime,
                )
                mean_j = out.mean_j if out.j.size else float("inf")
                utility[name] = mean_j + campaign.job_cost * out.mean_jobs
                cells.append(
                    f"{format_seconds(mean_j)} ({format_float(out.mean_jobs, 2)})"
                )
                if name == "single":
                    report = telemetry(grid.weather_report())
            best = min(utility, key=utility.get)
            bests.append(best)
            frontier.add_row(regime, label, *cells, f"{best} ({utility[best]:.0f}s)")
            telemetry_rows.append((regime, label, report))
        if bests[0] != bests[1]:
            flips.append(f"{regime} ({bests[0]} -> {bests[1]})")

    table = Table(
        title=f"{telemetry_title} telemetry (single-submission campaign)",
        columns=["regime", remedy_column, *telemetry_rows[0][2]],
    )
    for regime, label, report in telemetry_rows:
        table.add_row(regime, label, *report.values())
    verdict = (
        f"{remedy} changes the optimal user-side strategy under: " + "; ".join(flips)
        if flips
        else f"no regime flipped its optimal strategy under {remedy} at these settings"
    )
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        tables=[frontier, table],
        notes=[
            f"{campaign.n_tasks} tasks per cell, payload {campaign.runtime:.0f}s, "
            f"launches every {campaign.task_interval:.0f}s; every cell forks its "
            f"config's {campaign.warm / 3600.0:.0f}h-warmed snapshot, so "
            "strategies within a cell face bit-identical grids",
            *notes,
            verdict,
        ],
    )
