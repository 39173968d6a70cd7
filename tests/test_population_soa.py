"""The struct-of-arrays population pool and the sharded runtime.

Two laws are pinned here:

* the SoA pool (:mod:`repro.population.soa`) reproduces the per-task
  TaskCore driver **bit-for-bit** on every site x WMS engine corner
  (the event-site corners on the test-only oracle grid) — same
  latencies, same jobs-per-task, same broker dispatch counts, same
  fair-share usage shares;
* the sharded runtime (:mod:`repro.population.shard`) is deterministic
  for a fixed shard count, and its ``shards=1`` degenerate case is the
  single-process driver itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.strategies import (
    DelayedResubmission,
    MultipleSubmission,
    SingleResubmission,
)
from repro.gridsim import FaultModel, GridConfig, SiteConfig, warmed_snapshot
from repro.gridsim.grid import warmed_grid
from repro.population import (
    FleetSpec,
    PopulationSpec,
    run_population,
    run_population_sharded,
)
from repro.population import driver
from repro.population.soa import pool_supported
from repro.traces.generator import DiurnalProfile
from oracles import CORNERS, run_population_taskcore, warmed_snapshot_on

SHARES = (("biomed", 0.4), ("atlas", 0.35), ("cms", 0.25))


def corner_config(wms_engine: str = "batched") -> GridConfig:
    sites = tuple(
        SiteConfig(
            name=f"s{i:02d}",
            n_cores=48,
            utilization=0.7,
            runtime_median=1500.0,
            vo_shares=SHARES,
        )
        for i in range(4)
    )
    return GridConfig(
        sites=sites,
        faults=FaultModel(p_lost=0.01, p_stuck=0.01),
        wms_engine=wms_engine,
    )


def mixed_spec(n: int = 240) -> PopulationSpec:
    """All three paper strategies, diurnal launches, a short window."""
    return PopulationSpec(
        fleets=(
            FleetSpec(
                "biomed", SingleResubmission(t_inf=4000.0), n, runtime=300.0
            ),
            FleetSpec(
                "atlas",
                MultipleSubmission(b=3, t_inf=4000.0),
                (2 * n) // 3,
                runtime=300.0,
            ),
            FleetSpec(
                "cms",
                DelayedResubmission(t0=3500.0, t_inf=6000.0),
                (2 * n) // 3,
                runtime=300.0,
            ),
        ),
        window=20_000.0,
        diurnal=DiurnalProfile(amplitude=0.4),
    )


def warm(config: GridConfig, site_engine: str = "vector"):
    return warmed_snapshot_on(config, 17, 2 * 3600.0, site_engine)


def assert_identical(a, b) -> None:
    assert len(a.fleets) == len(b.fleets)
    for x, y in zip(a.fleets, b.fleets):
        np.testing.assert_array_equal(x.j, y.j)
        np.testing.assert_array_equal(x.jobs_submitted, y.jobs_submitted)
        assert x.gave_up == y.gave_up
    assert a.duration == b.duration
    assert a.jobs_lost == b.jobs_lost
    assert a.jobs_stuck == b.jobs_stuck
    assert a.broker_dispatches == b.broker_dispatches
    assert a.site_usage_shares == b.site_usage_shares


@pytest.fixture
def built_pools(monkeypatch) -> list:
    """Every TaskPool the driver builds, in order."""
    pools = []

    class SpyPool(driver.TaskPool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(driver, "TaskPool", SpyPool)
    return pools


class TestSoaOracleEquivalence:
    @pytest.mark.parametrize("site_engine,wms_engine", CORNERS)
    def test_soa_matches_legacy(self, site_engine, wms_engine, built_pools):
        """Pool vs TaskCore oracle, bit-for-bit, on every engine corner."""
        snap = warm(corner_config(wms_engine), site_engine)
        legacy = run_population_taskcore(snap.restore(), mixed_spec(), seed=9)
        assert not built_pools
        soa = run_population(snap.restore(), mixed_spec(), seed=9)
        assert len(built_pools) == 1
        assert_identical(legacy, soa)
        assert soa.total_finished > 0

    def test_auto_picks_pool_on_calm_grids(self, built_pools):
        run_population(warm(corner_config()).restore(), mixed_spec(), seed=9)
        assert len(built_pools) == 1

    def test_auto_falls_back_when_unsupported(self, built_pools):
        """Tracing hooks the per-task surface: the driver uses TaskCores."""
        config = GridConfig(
            sites=corner_config().sites,
            faults=corner_config().faults,
            tracing=True,
        )
        snap = warmed_snapshot(config, seed=17, duration=2 * 3600.0)
        assert not pool_supported(snap.restore(), mixed_spec().fleets)
        result = run_population(snap.restore(), mixed_spec(), seed=9)
        assert not built_pools
        assert result.total_finished > 0


class TestEmptyPopulations:
    def test_zero_task_fleet_contributes_nothing(self):
        config = corner_config()
        spec = mixed_spec(60)
        empty = FleetSpec("cms", SingleResubmission(t_inf=4000.0), 0)
        padded = PopulationSpec(
            fleets=spec.fleets + (empty,),
            window=spec.window,
            diurnal=spec.diurnal,
        )
        snap = warmed_snapshot(config, seed=17, duration=2 * 3600.0)
        result = run_population(snap.restore(), padded, seed=9)
        assert result.fleets[-1].j.size == 0
        assert result.fleets[-1].gave_up == 0
        assert result.total_finished > 0

    def test_empty_spec_returns_empty_result(self):
        config = corner_config()
        snap = warmed_snapshot(config, seed=17, duration=2 * 3600.0)
        grid = snap.restore()
        before = grid.now
        result = run_population(grid, PopulationSpec(fleets=()), seed=9)
        assert result.fleets == ()
        assert result.duration == 0.0
        assert grid.now == before  # the grid never advanced

    def test_all_zero_fleets_return_empty_outcomes(self):
        config = corner_config()
        spec = PopulationSpec(
            fleets=(
                FleetSpec("biomed", SingleResubmission(t_inf=4000.0), 0),
                FleetSpec("atlas", MultipleSubmission(b=2, t_inf=4000.0), 0),
            )
        )
        snap = warmed_snapshot(config, seed=17, duration=2 * 3600.0)
        result = run_population(snap.restore(), spec, seed=9)
        assert len(result.fleets) == 2
        assert all(f.j.size == 0 and f.gave_up == 0 for f in result.fleets)

    def test_empty_spec_sharded(self):
        config = shard_config()
        result = run_population_sharded(
            config,
            PopulationSpec(fleets=()),
            shards=2,
            seed=9,
            grid_seed=5,
            warm=3600.0,
        )
        assert result.fleets == ()
        assert result.broker_dispatches == (0, 0)


def shard_config(n_sites: int = 6) -> GridConfig:
    sites = tuple(
        SiteConfig(
            name=f"s{i:02d}",
            n_cores=48,
            utilization=0.7,
            runtime_median=1500.0,
            vo_shares=SHARES,
        )
        for i in range(n_sites)
    )
    return GridConfig(sites=sites)


class TestShardedRuntime:
    def test_determinism_for_fixed_shard_count(self):
        """Same seed + same shard count => bit-identical outcomes."""
        config = shard_config()
        spec = mixed_spec(150)
        kw = dict(shards=2, seed=9, grid_seed=5, warm=3600.0)
        a = run_population_sharded(config, spec, **kw)
        b = run_population_sharded(config, spec, **kw)
        assert_identical(a, b)
        assert a.total_finished + a.total_gave_up == spec.total_tasks
        assert len(a.broker_dispatches) == 2
        assert sorted(a.phases) == [
            "exchange", "launch", "readout", "simulate", "warm"
        ]
        assert min(a.phases.values()) >= 0.0

    def test_one_shard_is_the_driver(self):
        """shards=1 delegates to run_population on the warmed grid."""
        config = shard_config()
        spec = mixed_spec(100)
        sharded = run_population_sharded(
            config, spec, shards=1, seed=9, grid_seed=5, warm=3600.0
        )
        direct = run_population(
            warmed_grid(config, 5, 3600.0), spec, seed=9
        )
        assert_identical(sharded, direct)
        # the runtime warms the grid itself, so its split starts there
        assert list(sharded.phases) == ["warm", "launch", "simulate", "readout"]
        assert list(direct.phases) == ["launch", "simulate", "readout"]

    def test_three_shard_conservation(self):
        config = shard_config()
        spec = mixed_spec(120)
        result = run_population_sharded(
            config, spec, shards=3, seed=9, grid_seed=5, warm=3600.0
        )
        assert result.total_finished + result.total_gave_up == spec.total_tasks
        assert result.total_finished > 0
        assert len(result.broker_dispatches) == 3
        # every task that finished submitted at least one grid job
        assert sum(result.broker_dispatches) >= result.total_finished

    def test_shard_count_validation(self):
        config = shard_config(n_sites=2)
        spec = mixed_spec(30)
        with pytest.raises(ValueError, match="exceeds"):
            run_population_sharded(
                config, spec, shards=3, seed=9, grid_seed=5, warm=3600.0
            )
        with pytest.raises(ValueError, match="positive int"):
            run_population_sharded(
                config, spec, shards=0, seed=9, grid_seed=5, warm=3600.0
            )

    def test_unshardable_features_rejected(self):
        spec = mixed_spec(30)
        with pytest.raises(ValueError, match="wms_engine='batched'"):
            run_population_sharded(
                GridConfig(sites=shard_config().sites, wms_engine="event"),
                spec,
                shards=2,
                seed=9,
                grid_seed=5,
                warm=3600.0,
            )
        with pytest.raises(ValueError, match="process fabric"):
            run_population_sharded(
                GridConfig(sites=shard_config().sites, tracing=True),
                spec,
                shards=2,
                seed=9,
                grid_seed=5,
                warm=3600.0,
            )
        pinned = PopulationSpec(
            fleets=(
                FleetSpec(
                    "biomed", SingleResubmission(t_inf=4000.0), 10, broker=0
                ),
            )
        )
        with pytest.raises(ValueError, match="pins a broker"):
            run_population_sharded(
                shard_config(),
                pinned,
                shards=2,
                seed=9,
                grid_seed=5,
                warm=3600.0,
            )

    def test_grid_seed_must_be_int(self):
        with pytest.raises(TypeError, match="integer grid_seed"):
            run_population_sharded(
                shard_config(),
                mixed_spec(30),
                shards=2,
                seed=9,
                grid_seed=np.random.default_rng(0),
                warm=3600.0,
            )
