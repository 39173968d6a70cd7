"""The user-population driver: specs, launch synthesis, shared-grid runs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.strategies import (
    DelayedResubmission,
    MultipleSubmission,
    SingleResubmission,
    Strategy,
)
from repro.gridsim import (
    BrokerConfig,
    FaultModel,
    GridConfig,
    SiteConfig,
    warmed_snapshot,
)
from repro.population import (
    FleetSpec,
    PopulationSpec,
    adoption_population,
    run_population,
)
from repro.traces.generator import DiurnalProfile

SHARES = (("alpha", 0.6), ("beta", 0.4))


def small_grid_config(**kw) -> GridConfig:
    defaults = dict(
        sites=(
            SiteConfig(
                "a", 16, utilization=0.7, runtime_median=1200.0, vo_shares=SHARES
            ),
            SiteConfig(
                "b", 24, utilization=0.7, runtime_median=1800.0, vo_shares=SHARES
            ),
        ),
        matchmaking_median=30.0,
        faults=FaultModel(p_lost=0.01, p_stuck=0.01),
        brokers=(BrokerConfig("w1", ("a",)), BrokerConfig("w2", ("b",))),
    )
    defaults.update(kw)
    return GridConfig(**defaults)


def small_population(n=60) -> PopulationSpec:
    return PopulationSpec(
        fleets=(
            FleetSpec("alpha", SingleResubmission(t_inf=4000.0), n, broker="w1"),
            FleetSpec(
                "beta", MultipleSubmission(b=2, t_inf=4000.0), n // 2, broker="w2"
            ),
            FleetSpec(
                "alpha",
                DelayedResubmission(t0=1500.0, t_inf=3000.0),
                n // 3,
                runtime=300.0,
            ),
        ),
        window=6 * 3600.0,
    )


class TestSpecs:
    def test_fleet_validation_and_label(self):
        f = FleetSpec("vo1", SingleResubmission(t_inf=100.0), 5)
        assert f.label == "vo1/SingleResubmission"
        with pytest.raises(ValueError, match="vo must be non-empty"):
            FleetSpec("", SingleResubmission(t_inf=100.0), 5)
        with pytest.raises(ValueError, match="n_tasks"):
            FleetSpec("v", SingleResubmission(t_inf=100.0), -1)
        # zero tasks is legal: adoption sweeps can carve a VO down to
        # an empty fleet, which simply contributes nothing
        assert FleetSpec("v", SingleResubmission(t_inf=100.0), 0).n_tasks == 0
        with pytest.raises(ValueError, match="runtime"):
            FleetSpec("v", SingleResubmission(t_inf=100.0), 1, runtime=-1.0)

    def test_strategy_without_a_round_shape_is_rejected(self):
        """The spec refuses what no executor runs, before any grid moves."""

        class Custom(Strategy):
            name = "custom"

            def describe(self) -> str:
                return "custom"

        with pytest.raises(TypeError, match="strategy: unsupported strategy type Custom"):
            FleetSpec("v", Custom(), 5)

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_fleet_task_count_must_be_an_integer(self, bad):
        with pytest.raises(TypeError, match="n_tasks must be an integer"):
            FleetSpec("v", SingleResubmission(t_inf=100.0), bad)

    def test_population_validation(self):
        # an empty fleet tuple is legal (run_population returns an
        # empty result); the window still has to be positive
        assert PopulationSpec(fleets=()).total_tasks == 0
        with pytest.raises(ValueError, match="window"):
            PopulationSpec(fleets=(), window=0.0)
        spec = small_population()
        assert spec.total_tasks == 60 + 30 + 20

    def test_launch_times_uniform(self):
        spec = small_population()
        rng = np.random.default_rng(0)
        t = spec.launch_times(spec.fleets[0], rng)
        assert t.size == 60
        assert (np.diff(t) >= 0.0).all()
        assert t.min() >= 0.0 and t.max() <= spec.window

    def test_launch_times_diurnal_shifts_mass(self):
        """With a sine profile peaking in the first half-period, more
        launches land there than under the uniform spec."""
        fleet = FleetSpec("v", SingleResubmission(t_inf=100.0), 4000)
        flat = PopulationSpec(fleets=(fleet,), window=86_400.0)
        peaked = PopulationSpec(
            fleets=(fleet,),
            window=86_400.0,
            diurnal=DiurnalProfile(amplitude=0.8),
        )
        u = flat.launch_times(fleet, np.random.default_rng(1))
        d = peaked.launch_times(fleet, np.random.default_rng(1))
        half = 43_200.0
        assert (d <= half).sum() > (u <= half).sum() + 400
        assert d.min() >= 0.0 and d.max() <= 86_400.0

    def test_adoption_population_conserves_tasks(self):
        for adoption in (0.0, 0.3, 1.0):
            spec = adoption_population(
                vo_tasks={"alpha": 100, "beta": 50},
                strategies={
                    "alpha": SingleResubmission(t_inf=100.0),
                    "beta": SingleResubmission(t_inf=100.0),
                },
                adopter_vo="alpha",
                adopted=MultipleSubmission(b=3, t_inf=100.0),
                adoption=adoption,
            )
            assert spec.total_tasks == 150
            alpha_tasks = sum(
                f.n_tasks for f in spec.fleets if f.vo == "alpha"
            )
            assert alpha_tasks == 100
        # full adoption leaves no baseline alpha fleet
        spec = adoption_population(
            vo_tasks={"alpha": 100},
            strategies={"alpha": SingleResubmission(t_inf=100.0)},
            adopter_vo="alpha",
            adopted=MultipleSubmission(b=3, t_inf=100.0),
            adoption=1.0,
        )
        assert len(spec.fleets) == 1
        assert spec.fleets[0].label == "alpha/adopters"

    def test_adoption_population_validation(self):
        with pytest.raises(ValueError, match="adoption must be"):
            adoption_population(
                vo_tasks={"a": 1},
                strategies={"a": SingleResubmission(t_inf=1.0)},
                adopter_vo="a",
                adopted=SingleResubmission(t_inf=1.0),
                adoption=1.5,
            )
        with pytest.raises(ValueError, match="not in vo_tasks"):
            adoption_population(
                vo_tasks={"a": 1},
                strategies={"a": SingleResubmission(t_inf=1.0)},
                adopter_vo="zz",
                adopted=SingleResubmission(t_inf=1.0),
                adoption=0.5,
            )


class TestDriver:
    def run_small(self, seed=11):
        snap = warmed_snapshot(small_grid_config(), seed=3, duration=3600.0)
        grid = snap.restore()
        return run_population(grid, small_population(), seed=seed)

    def test_outcomes_accounted_per_fleet(self):
        result = self.run_small()
        spec = small_population()
        assert len(result.fleets) == len(spec.fleets)
        for outcome, fleet in zip(result.fleets, spec.fleets):
            assert outcome.spec == fleet
            assert outcome.j.size + outcome.gave_up == fleet.n_tasks
            assert outcome.jobs_submitted.size == outcome.j.size
        assert result.total_finished + result.total_gave_up == spec.total_tasks
        # burst fleet uses ~b jobs per task, single ~1
        assert result.fleets[1].mean_jobs > result.fleets[0].mean_jobs

    def test_deterministic_given_seeds(self):
        a, b = self.run_small(seed=11), self.run_small(seed=11)
        for fa, fb in zip(a.fleets, b.fleets):
            np.testing.assert_array_equal(fa.j, fb.j)
            np.testing.assert_array_equal(fa.jobs_submitted, fb.jobs_submitted)
        assert a.broker_dispatches == b.broker_dispatches
        c = self.run_small(seed=12)
        assert any(
            fa.j.size != fc.j.size or not np.array_equal(fa.j, fc.j)
            for fa, fc in zip(a.fleets, c.fleets)
        )

    def test_by_vo_pools_fleets(self):
        result = self.run_small()
        pooled = result.by_vo()
        assert set(pooled) == {"alpha", "beta"}
        alpha_sizes = sum(
            f.j.size for f in result.fleets if f.spec.vo == "alpha"
        )
        assert pooled["alpha"].size == alpha_sizes

    def test_brokers_and_usage_telemetry(self):
        result = self.run_small()
        assert len(result.broker_dispatches) == 2
        assert sum(result.broker_dispatches) > 0
        assert set(result.site_usage_shares) == {"a", "b"}
        for shares in result.site_usage_shares.values():
            assert set(shares) == {"alpha", "beta"}
            assert sum(shares.values()) == pytest.approx(1.0)

    def test_home_broker_routing_is_honoured(self):
        snap = warmed_snapshot(small_grid_config(), seed=3, duration=3600.0)
        grid = snap.restore()
        spec = PopulationSpec(
            fleets=(
                FleetSpec(
                    "alpha", SingleResubmission(t_inf=4000.0), 40, broker="w2"
                ),
            ),
            window=3600.0,
        )
        before = [b.dispatch_count for b in grid.brokers]
        run_population(grid, spec, seed=1)
        after = [b.dispatch_count for b in grid.brokers]
        assert after[0] == before[0]  # w1 untouched
        assert after[1] > before[1]

    def test_telemetry_counts_are_per_run_deltas(self):
        """A second run on the same grid reports only its own faults
        and dispatches, not the grid's lifetime counters."""
        snap = warmed_snapshot(small_grid_config(), seed=3, duration=3600.0)
        grid = snap.restore()
        spec = small_population(30)
        first = run_population(grid, spec, seed=11)
        second = run_population(grid, spec, seed=11)
        # the two runs are the grid's only client activity, so the
        # deltas partition the lifetime counters exactly
        assert first.jobs_lost + second.jobs_lost == grid.jobs_lost
        assert first.jobs_stuck + second.jobs_stuck == grid.jobs_stuck
        for f, s, b in zip(
            first.broker_dispatches, second.broker_dispatches, grid.brokers
        ):
            assert f + s == b.dispatch_count

    def test_validation(self):
        snap = warmed_snapshot(small_grid_config(), seed=3, duration=3600.0)
        grid = snap.restore()
        with pytest.raises(ValueError, match="horizon_slack"):
            run_population(
                grid, small_population(), seed=1, horizon_slack=-1.0
            )
