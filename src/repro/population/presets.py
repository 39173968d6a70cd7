"""Canonical fleet-scale workload presets.

The 16-site / 4096-core fair-share grid and the four-fleet diurnal day
used by the population benchmarks and the ``repro population`` CLI.
One definition keeps the 20k bench, the 100k bench, the
``population-1m`` milestone run (``repro population --scale 1000000``)
and the sharded runtime all measuring the same workload — only
``scale`` (and the shard count) varies.
"""

from __future__ import annotations

from repro.core.strategies import MultipleSubmission, SingleResubmission
from repro.gridsim.grid import GridConfig, SiteConfig
from repro.population.spec import FleetSpec, PopulationSpec
from repro.traces.generator import DiurnalProfile

__all__ = ["fleet_grid_config", "fleet_population_spec", "fleet_sites_for"]

# the 100k day's regime: 16 sites x 256 cores absorb ~6250 tasks per
# site-day with zero give-ups; a larger population needs a
# proportionally larger grid or the day saturates (retries then grow
# the job count superlinearly and most tasks exhaust the horizon)
_TASKS_PER_SITE_DAY = 6250


def fleet_sites_for(scale: int) -> int:
    """Site count that keeps ``scale`` tasks in the 100k day's regime.

    16 sites up to the 10^5 day, then linear: the ``population-1m``
    milestone runs on 160 sites / 40960 cores so the per-site load —
    and therefore the fair-share/dispatch behaviour being measured —
    matches the smaller benches instead of saturating.
    """
    return max(16, -(-scale // _TASKS_PER_SITE_DAY))


def fleet_grid_config(n_sites: int = 16, n_cores: int = 256) -> GridConfig:
    """The fair-share grid of the population day (16 x 256 cores)."""
    sites = tuple(
        SiteConfig(
            name=f"big{i:02d}",
            n_cores=n_cores,
            utilization=0.8,
            runtime_median=1800.0,
            vo_shares=(("biomed", 0.5), ("atlas", 0.3), ("cms", 0.2)),
        )
        for i in range(n_sites)
    )
    return GridConfig(sites=sites)


def fleet_population_spec(scale: int) -> PopulationSpec:
    """Four fleets totalling ``scale`` short tasks across a diurnal day."""

    def n(frac: float) -> int:
        return int(scale * frac)

    return PopulationSpec(
        fleets=(
            FleetSpec(
                "biomed", SingleResubmission(t_inf=4000.0), n(0.35), runtime=120.0
            ),
            FleetSpec(
                "biomed",
                MultipleSubmission(b=3, t_inf=4000.0),
                n(0.15),
                runtime=120.0,
                label="biomed/adopters",
            ),
            FleetSpec(
                "atlas", SingleResubmission(t_inf=4000.0), n(0.30), runtime=120.0
            ),
            FleetSpec(
                "cms", SingleResubmission(t_inf=4000.0), n(0.20), runtime=120.0
            ),
        ),
        window=86_400.0,
        diurnal=DiurnalProfile(amplitude=0.4),
    )
