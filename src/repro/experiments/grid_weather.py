"""Extension — the strategy frontier under grid weather with self-healing.

The paper's strategies are tuned against a grid whose failures are
i.i.d. per job (lost submissions, stuck jobs).  Production grids also
fail *structurally*: correlated outage storms take site subsets down
together, and black-hole sites advertise empty queues while instantly
failing everything match-making feeds them.  This experiment re-runs
the single / multiple / delayed frontier under three weather regimes
(calm, storms, one black hole) and crosses each with the middleware's
answer — a service-side resubmission agent that detects
failed-and-missing work and resubmits it under a retry budget.  This
module holds the grid, regimes, agent and telemetry;
:func:`~repro.experiments.frontier.cross_frontier` runs the cells.

Strategies are compared on the paper's two axes at once: realised
latency ``E(J)`` *and* submission cost (grid jobs per task — the
``Δcost`` of Tables 4–5 and the cost curves of Fig. 8), collapsed to
one scalar ``U = E(J) + c·E(jobs/task)`` with an explicit per-job
handling charge ``c``.  The headline question: does *system-side*
self-healing change which *user-side* strategy is optimal?  Without the
agent, burst submission's fault hedge is worth its copies — a single
lost job costs the user a full ``t_inf`` timeout.  With the agent
detecting failures within one sweep period, single submission is
rescued fast enough that the burst's 3× job bill stops paying for
itself, and the optimum flips.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.experiments.frontier import Campaign, cross_frontier, frontier_grid_config
from repro.gridsim import (
    BlackHoleConfig,
    GridConfig,
    HealthConfig,
    ResubmitConfig,
    StormConfig,
    WeatherConfig,
)

__all__ = ["run", "weather_grid_config", "weather_regimes"]

EXPERIMENT_ID = "grid-weather"
TITLE = "Extension: submission strategies under grid weather and self-healing"

#: the site the black-hole regime corrupts (mid-sized, normally popular)
BLACK_HOLE_SITE = "ce2"


def weather_grid_config() -> GridConfig:
    """The frontier fabric with the health machine always on.

    The health service is part of the *grid*, not the regime: every
    regime gets the same operator loop (EWMA bans, probe re-admission,
    health-aware ranking), so regimes differ only in the weather thrown
    at it.  On the calm grid the loop observes only successes and never
    transitions — behaviourally inert.
    """
    return frontier_grid_config(health=HealthConfig())


def weather_regimes(warm: float) -> tuple[tuple[str, WeatherConfig | None], ...]:
    """The three weather regimes, timed relative to the warm-up end."""
    storms = WeatherConfig(
        storm=StormConfig(
            mean_interval=3 * 3600.0,
            mean_duration=1800.0,
            subset_size=2,
            kill_running=0.5,
        )
    )
    # the hole opens 30 min into the measurement window and lasts 4 h —
    # long enough that every strategy's campaign overlaps it
    black_hole = WeatherConfig(
        black_holes=(
            BlackHoleConfig(
                site=BLACK_HOLE_SITE, start=warm + 1800.0, duration=4 * 3600.0
            ),
        )
    )
    return (("calm", None), ("storms", storms), ("black hole", black_hole))


def _telemetry(report: dict) -> dict:
    transitions = report.get("health", {}).get("transitions", {})
    return {
        "outages": report["outages_started"],
        "jobs killed": sum(report["jobs_killed"].values()),
        "black-hole failures": sum(report["black_hole_failures"].values()),
        "bans": sum(n for k, n in transitions.items() if k.endswith("->banned")),
        "agent resubmits": report.get("resubmit", {}).get("resubmissions", 0),
    }


def run(ctx=None, *, seed: int = 43, **knobs) -> ExperimentResult:
    """Cross the strategy frontier with weather regimes and the agent.

    Six cells, (calm, storms, black hole) × (agent off, on); ``knobs``
    are :class:`~repro.experiments.frontier.Campaign`'s other fields.
    """
    agent = ResubmitConfig(period=300.0, max_retries=3, backoff_base=60.0)
    campaign = Campaign(seed, **knobs)
    return cross_frontier(
        campaign,
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        base=weather_grid_config(),
        regimes=tuple(
            (name, {"weather": w}) for name, w in weather_regimes(campaign.warm)
        ),
        remedy="system-side resubmission",
        remedy_column="self-healing",
        remedy_on="on",
        remedy_fields={"resubmit": agent},
        telemetry_title="Weather and operator",
        telemetry=_telemetry,
        notes=(
            f"U = E(J) + c*E(jobs/task) with c = {campaign.job_cost:.0f}s per-job "
            "handling charge — the latency/cost trade-off of the paper's Tables "
            "4-5 and Fig. 8 collapsed to one scalar",
            "regimes: calm; storms (mean every 3h, 2 sites down together for "
            "~30min, 50% of running jobs killed); one black hole "
            f"({BLACK_HOLE_SITE} opens 30min into the window for 4h, instantly "
            "failing everything its excellent-looking queue attracts)",
            "self-healing agent: 300s sweeps, <=3 resubmissions per task, 60s "
            "backoff doubling per retry — composed with, and invisible to, the "
            "user-side strategies",
        ),
    )
