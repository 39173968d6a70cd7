"""The struct-of-arrays population pool and the sharded runtime.

Three laws are pinned here:

* the SoA pool (:mod:`repro.population.soa`) reproduces the per-task
  TaskCore driver **bit-for-bit** on both site engines under the
  batched WMS engine (the event-site corners on the test-only oracle
  grid) — same latencies, same jobs-per-task, same broker dispatch
  counts, same fair-share usage shares — and checks task and job
  conservation at every readout; event-WMS days run on TaskCores;
* the claiming launch walker (:func:`repro.population.soa.chain_launches`)
  replays the re-chaining walker in ``tests/oracles.py`` bit-for-bit,
  events processed included, on every driver path a grid can take;
* the sharded runtime (:mod:`repro.population.shard`) is deterministic
  for a fixed shard count of at least 2, and its 2-shard law is pinned
  to recorded digests.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.strategies import (
    DelayedResubmission,
    MultipleSubmission,
    SingleResubmission,
)
from repro.gridsim import (
    FaultModel,
    GridConfig,
    GridSimulator,
    SiteConfig,
    run_strategy_on_grid,
    warmed_snapshot,
)
from repro.population import FleetSpec, PopulationSpec, run_population
from repro.population import driver
from repro.population.shard import run_population_sharded
from repro.population.soa import TaskPool, pool_supported
from repro.traces.generator import DiurnalProfile
from repro.util.rng import as_rng, spawn_rngs
from oracles import (
    CORNERS,
    rechaining_launches,
    run_population_taskcore,
    warmed_snapshot_on,
)

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


def timeout_spec() -> PopulationSpec:
    """Timeouts that fire: burst and overlapping delayed rounds expire."""
    return PopulationSpec(
        fleets=(
            FleetSpec(
                "biomed", MultipleSubmission(b=3, t_inf=120.0), 100, runtime=300.0
            ),
            FleetSpec(
                "atlas",
                DelayedResubmission(t0=80.0, t_inf=150.0),
                100,
                runtime=300.0,
            ),
            FleetSpec(
                "cms", SingleResubmission(t_inf=100.0), 100, runtime=300.0
            ),
        ),
        window=5000.0,
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
    @pytest.mark.parametrize("make_spec", [mixed_spec, timeout_spec])
    @pytest.mark.parametrize("site_engine,wms_engine", CORNERS)
    def test_soa_matches_legacy(
        self, site_engine, wms_engine, make_spec, built_pools
    ):
        """Pool vs TaskCore oracle, bit-for-bit, on every engine corner.

        The pool's timeouts ride the batched engine's wheel, so an
        event-WMS day builds no pool and is the oracle run itself.
        """
        snap = warm(corner_config(wms_engine), site_engine)
        pooled = wms_engine == "batched"
        assert pool_supported(snap.restore()) is pooled
        legacy = run_population_taskcore(snap.restore(), make_spec(), seed=9)
        assert not built_pools
        soa = run_population(snap.restore(), make_spec(), seed=9)
        assert len(built_pools) == (1 if pooled else 0)
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
        assert not pool_supported(snap.restore())
        result = run_population(snap.restore(), mixed_spec(), seed=9)
        assert not built_pools
        assert result.total_finished > 0


@dataclass(frozen=True)
class _GriddedSpec(PopulationSpec):
    """Launch instants snapped to a grid, so they tie with each other
    and with the dispatch-bucket and timer-wheel boundaries."""

    step: float = 1.0

    def launch_times(self, fleet, rng):
        return np.round(super().launch_times(fleet, rng) / self.step) * self.step


class TestLaunchWalkerOracle:
    """The claiming walker against the re-chaining one, on both drivers
    (the pool only under the batched WMS engine, the one it runs on)."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_sites=st.integers(1, 4),
        n_cores=st.integers(1, 8),
        wms_engine=st.sampled_from(["batched", "event"]),
        faults=st.booleans(),
        sizes=st.tuples(*[st.integers(0, 20)] * 3).filter(any),
        step=st.sampled_from([1.0, 18.75, 60.0]),
        seed=st.integers(0, 2**16),
    )
    def test_claiming_walker_matches_rechaining(
        self, n_sites, n_cores, wms_engine, faults, sizes, step, seed
    ):
        config = GridConfig(
            sites=tuple(
                SiteConfig(
                    name=f"s{i}",
                    n_cores=n_cores,
                    utilization=0.8,
                    runtime_median=600.0,
                    vo_shares=SHARES,
                )
                for i in range(n_sites)
            ),
            faults=FaultModel(p_lost=0.05) if faults else FaultModel(),
            wms_engine=wms_engine,
        )
        grid = GridSimulator(config, seed=seed)
        grid.warm_up(1800.0)  # a multiple of every step: launches tie
        snap = grid.snapshot()
        # timeouts on the step grid too, so expiries tie with launches
        strategies = (
            SingleResubmission(t_inf=300.0),
            MultipleSubmission(b=2, t_inf=300.0),
            DelayedResubmission(t0=150.0, t_inf=300.0),
        )
        spec = _GriddedSpec(
            fleets=tuple(
                FleetSpec(vo, strategy, n, runtime=300.0)
                for (vo, _), strategy, n in zip(SHARES, strategies, sizes)
            ),
            window=1200.0,
            step=step,
        )
        for pool in ((True, False) if wms_engine == "batched" else (False,)):
            runs = []
            for walker in (rechaining_launches, None):
                g = snap.restore()
                if walker is None:
                    result = driver._run_population(
                        g, spec, seed=seed, horizon_slack=20_000.0, pool=pool
                    )
                else:
                    with walker():
                        result = driver._run_population(
                            g, spec, seed=seed, horizon_slack=20_000.0, pool=pool
                        )
                runs.append((result, g.sim.events_processed))
            (oracle, oracle_events), (claimed, claimed_events) = runs
            assert_identical(oracle, claimed)
            assert claimed_events == oracle_events


class TestPoolConservation:
    """Every pool run checks task and job conservation at readout."""

    @staticmethod
    def run_day():
        snap = warmed_snapshot(corner_config(), seed=17, duration=2 * 3600.0)
        return run_population(snap.restore(), mixed_spec(60), seed=9)

    def test_clean_run_passes(self, built_pools):
        result = self.run_day()
        assert len(built_pools) == 1
        assert result.total_finished + result.total_gave_up == 140

    def test_skewed_pending_raises(self, monkeypatch):
        settle = TaskPool.settle

        def skewed(self, i, winner, t_done):
            settle(self, i, winner, t_done)
            if self._seq == 1:
                self.pending -= 1  # one task drops off the books

        monkeypatch.setattr(TaskPool, "settle", skewed)
        with pytest.raises(RuntimeError, match="not settled but pending"):
            self.run_day()

    def test_stray_submission_raises(self, monkeypatch):
        submit1 = TaskPool._submit1
        strays = []

        def stray(self, f, job, cb):
            submit1(self, f, job, cb)
            if not strays:
                strays.append(job)
                self.grid.jobs_submitted += 1  # a job no task owns

        monkeypatch.setattr(TaskPool, "_submit1", stray)
        with pytest.raises(RuntimeError, match="job conservation"):
            self.run_day()


class TestOneCopyShapes:
    """``b = 1`` and ``t0 = t∞`` both collapse to single resubmission.

    The pool runs all three strategies below on its one-copy lane (a
    bare Job, one ``broker.submit`` per round), so this pins the law
    that lane relies on: on both WMS engines, with ``t∞`` short enough
    that timeouts fire, the three give the same latencies and job
    counts.  A population day takes the pool under the batched engine
    and per-task TaskCores under the event engine.
    """

    T = 120.0
    STRATEGIES = (
        SingleResubmission(t_inf=T),
        MultipleSubmission(b=1, t_inf=T),
        DelayedResubmission(t0=T, t_inf=T),
    )

    @staticmethod
    def assert_same(outcomes) -> None:
        first = outcomes[0]
        # timeouts fired: some task needed a resubmission
        assert first.jobs_submitted.max() > 1
        for other in outcomes[1:]:
            np.testing.assert_array_equal(other.j, first.j)
            np.testing.assert_array_equal(
                other.jobs_submitted, first.jobs_submitted
            )

    @pytest.mark.parametrize("wms_engine", ["batched", "event"])
    def test_run_strategy_on_grid(self, wms_engine):
        snap = warm(corner_config(wms_engine))
        self.assert_same([
            run_strategy_on_grid(
                snap.restore(), s, 40, task_interval=60.0, runtime=300.0
            )
            for s in self.STRATEGIES
        ])

    @pytest.mark.parametrize("wms_engine", ["batched", "event"])
    def test_run_population(self, wms_engine, built_pools):
        snap = warm(corner_config(wms_engine))
        results = [
            run_population(
                snap.restore(),
                PopulationSpec(
                    fleets=(FleetSpec("biomed", s, 400, runtime=300.0),),
                    window=20_000.0,
                ),
                seed=9,
            )
            for s in self.STRATEGIES
        ]
        assert len(built_pools) == (3 if wms_engine == "batched" else 0)
        self.assert_same([r.fleets[0] for r in results])


def walker_schedule(sim) -> dict:
    """The closure variables of the one launch walker queued on ``sim``."""
    walkers = []
    for _, _, ev in sim._heap:
        code = getattr(ev.callback, "__code__", None)
        if code is not None and "sorted_t" in code.co_freevars:
            walkers.append(ev.callback)
    (walker,) = walkers
    cells = (cell.cell_contents for cell in walker.__closure__)
    return dict(zip(walker.__code__.co_freevars, cells))


class TestPoolLayout:
    """Per-task numbers live in typed buffers; readouts are copies."""

    def test_typed_columns_and_detached_results(self):
        snap = warmed_snapshot(corner_config(), seed=17, duration=2 * 3600.0)
        grid = snap.restore()
        spec = mixed_spec(60)
        rngs = spawn_rngs(as_rng(9), len(spec.fleets))
        times = [spec.launch_times(f, r) for f, r in zip(spec.fleets, rngs)]
        start = grid.now
        pool = TaskPool(
            grid, spec.fleets, times, start=start, on_all_done=grid.sim.stop
        )
        schedule = walker_schedule(grid.sim)
        for column, code in (
            (pool.done_t, "d"),
            (pool.done_seq, "q"),
            (schedule["sorted_t"], "d"),
            (schedule["sorted_i"], "q"),
        ):
            assert isinstance(column, array)
            assert column.typecode == code
        assert not hasattr(pool, "t_start")  # launch instants are `times`

        grid.sim.run_until(start + spec.window + 86_400.0)
        assert pool.pending == 0
        results = [pool.fleet_results(f) for f in range(len(spec.fleets))]
        kept = [(j.copy(), jobs.copy()) for j, jobs in results]
        buffers = [
            np.frombuffer(pool.done_t, dtype=np.float64),
            np.frombuffer(pool.done_seq, dtype=np.int64),
            *times,
        ]
        for j, jobs in results:
            assert j.size > 0
            for buf in buffers:
                assert not np.shares_memory(j, buf)
                assert not np.shares_memory(jobs, buf)
        # a later write to the pool cannot rewrite a returned result
        for k in range(pool.n):
            pool.done_t[k] = -1.0
            pool.jobs_used[k] = -1
        for (j, jobs), (j0, jobs0) in zip(results, kept):
            np.testing.assert_array_equal(j, j0)
            np.testing.assert_array_equal(jobs, jobs0)


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

    def test_two_shard_law_pin(self):
        """The 2-shard law: per-fleet J/jobs digests and dispatches.

        The values were recorded by running this exact call on the
        release before the shard broker's own bucket resolver gave way
        to remote-site stand-ins under the stock resolver.  The short
        window puts launches into the opening epoch, so the shard-local
        start (remote loads ``inf`` until the first exchange) is pinned
        along with the broadcast loads.
        """
        spec = replace(mixed_spec(150), window=3000.0)
        result = run_population_sharded(
            shard_config(), spec, shards=2, seed=9, grid_seed=5, warm=3600.0
        )
        digests = []
        for f in result.fleets:
            h = hashlib.sha256()
            h.update(np.ascontiguousarray(f.j, dtype=np.float64).tobytes())
            h.update(
                np.ascontiguousarray(f.jobs_submitted, dtype=np.int64).tobytes()
            )
            digests.append(h.hexdigest()[:16])
        assert digests == [
            "54d6feff1d813c52", "ae9d98dd7e84dd51", "53e357cb834649aa"
        ]
        assert result.broker_dispatches == (213, 212)
        assert result.duration == 3900.0

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
        # one process is run_population's job, not a degenerate shard
        with pytest.raises(ValueError, match="shards.*run_population"):
            run_population_sharded(
                config, spec, shards=1, seed=9, grid_seed=5, warm=3600.0
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
