"""Warmed-grid snapshots: forked grids must be bit-identical continuations.

The contract: a clone (or ``warmed_grid`` cache hit) continues exactly
as an independently constructed, identically seeded and warmed grid
would — same RNG states, event heap, site queues and counters — so
experiments may replace repeated same-seed warm-ups with forks without
changing a single rendered number.
"""

from __future__ import annotations

import dataclasses
import enum
import gc
import pickle
import types

import numpy as np
import pytest

from repro.core.strategies import MultipleSubmission
from repro.gridsim import (
    FaultModel,
    GridConfig,
    GridSimulator,
    ProbeExperiment,
    SiteConfig,
    default_grid_config,
    run_strategy_on_grid,
    warmed_grid,
    warmed_snapshot,
)
from repro.gridsim.events import restore_state
from repro.gridsim.grid import _WARM_CACHE
from repro.gridsim.jobs import Job


@pytest.fixture()
def warm_cache_defaults():
    """Restore the warm-cache limits (and contents) after a test tweaks them."""
    from repro.gridsim import grid as grid_mod

    entries, size = grid_mod._WARM_CACHE_MAX, grid_mod._WARM_CACHE_MAX_BYTES
    yield
    _WARM_CACHE.clear()
    grid_mod.configure_warm_cache(max_entries=entries, max_bytes=size)


def config(**kw) -> GridConfig:
    defaults = dict(
        sites=(
            SiteConfig("a", 8, utilization=0.8, runtime_median=600.0),
            SiteConfig("b", 16, utilization=0.85, runtime_median=900.0),
            SiteConfig("c", 4, utilization=0.9, runtime_median=900.0),
        ),
        matchmaking_median=30.0,
        faults=FaultModel(p_lost=0.02, p_stuck=0.02),
    )
    defaults.update(kw)
    return GridConfig(**defaults)


def fresh_warmed(cfg, seed, duration):
    g = GridSimulator(cfg, seed=seed)
    g.warm_up(duration)
    return g


def state_fingerprint(grid) -> tuple:
    """Observable state that any two equivalent grids must share."""
    return (
        grid.now,
        grid.sim.events_processed,
        len(grid.sim._heap),
        tuple(s.queue_length for s in grid.sites),
        tuple(s.busy_cores for s in grid.sites),
        tuple(s.jobs_started for s in grid.sites),
        tuple(s.jobs_completed for s in grid.sites),
        tuple(bg.jobs_generated for bg in grid.background),
    )


class TestCloneEquivalence:
    def test_clone_matches_fresh_warmup_immediately(self):
        cfg = config()
        clone = fresh_warmed(cfg, 11, 7200.0).snapshot().restore()
        independent = fresh_warmed(cfg, 11, 7200.0)
        assert state_fingerprint(clone) == state_fingerprint(independent)

    def test_clone_replays_identically_to_fresh_warmup(self):
        """The crux: continuations beyond the fork are bit-identical."""
        cfg = config()
        clone = fresh_warmed(cfg, 13, 7200.0).snapshot().restore()
        independent = fresh_warmed(cfg, 13, 7200.0)
        for g in (clone, independent):
            g.run_until(g.now + 50_000.0)
        assert state_fingerprint(clone) == state_fingerprint(independent)

    def test_probe_traces_identical_after_fork(self):
        cfg = default_grid_config(n_sites=6, seed=3)
        clone = fresh_warmed(cfg, 17, 3600.0).snapshot().restore()
        independent = fresh_warmed(cfg, 17, 3600.0)
        ta = ProbeExperiment(clone, n_slots=8, timeout=4000.0).run(30_000.0)
        tb = ProbeExperiment(independent, n_slots=8, timeout=4000.0).run(30_000.0)
        np.testing.assert_array_equal(ta.submit_times, tb.submit_times)
        np.testing.assert_array_equal(ta.latencies, tb.latencies)
        np.testing.assert_array_equal(ta.status_codes, tb.status_codes)

    def test_strategy_outcomes_identical_after_fork(self):
        cfg = config()
        clone = fresh_warmed(cfg, 19, 3600.0).snapshot().restore()
        independent = fresh_warmed(cfg, 19, 3600.0)
        strat = MultipleSubmission(b=3, t_inf=2000.0)
        oa = run_strategy_on_grid(clone, strat, 25, task_interval=200.0, runtime=60.0)
        ob = run_strategy_on_grid(
            independent, strat, 25, task_interval=200.0, runtime=60.0
        )
        np.testing.assert_array_equal(oa.j, ob.j)
        np.testing.assert_array_equal(oa.jobs_submitted, ob.jobs_submitted)
        assert oa.gave_up == ob.gave_up

    def test_forks_are_independent(self):
        """Running one fork does not disturb its sibling."""
        master = fresh_warmed(config(), 23, 3600.0)
        snap = master.snapshot()
        a, b = snap.restore(), snap.restore()
        fp_b = state_fingerprint(b)
        a.run_until(a.now + 20_000.0)
        assert state_fingerprint(b) == fp_b
        b.run_until(b.now + 20_000.0)
        assert state_fingerprint(a) == state_fingerprint(b)

    def test_snapshot_survives_master_running_on(self):
        master = fresh_warmed(config(), 29, 3600.0)
        snap = master.snapshot()
        assert snap.time == master.now
        master.run_until(master.now + 10_000.0)  # master moves on
        fork = snap.restore()
        assert fork.now == snap.time
        independent = fresh_warmed(config(), 29, 3600.0)
        fork.run_until(fork.now + 10_000.0)
        assert state_fingerprint(fork) == state_fingerprint(master)
        del independent


#: objects a grid refers to that pickle saves by reference, not by state
_BY_REFERENCE = (
    type,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.ModuleType,
    enum.Enum,
)


def repro_instances(root) -> list:
    """Every object reachable from ``root`` whose class lives in ``repro``
    and which carries a ``__dict__``, in depth-first order."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _BY_REFERENCE):
            continue
        seen.add(id(obj))
        if type(obj).__module__.startswith("repro") and hasattr(obj, "__dict__"):
            found.append(obj)
        stack.extend(reversed(gc.get_referents(obj)))
    return found


def chaos_config() -> GridConfig:
    """The fleet grid on two brokers under ``storm-broker-site``, with
    health, the resubmission agent and tracing."""
    from repro.gridsim.chaos import standard_schedules
    from repro.gridsim.federation import BrokerConfig
    from repro.gridsim.health import HealthConfig
    from repro.gridsim.weather import ResubmitConfig
    from repro.population.presets import fleet_grid_config

    base = fleet_grid_config()
    names = tuple(s.name for s in base.sites)
    half = len(names) // 2
    federated = dataclasses.replace(
        base,
        brokers=(
            BrokerConfig("wms-a", names[:half]),
            BrokerConfig("wms-b", names[half:]),
        ),
    )
    storm = dict(standard_schedules(federated))["storm-broker-site"]
    return dataclasses.replace(
        storm, health=HealthConfig(), resubmit=ResubmitConfig(), tracing=True
    )


def calm_config() -> GridConfig:
    from repro.population.presets import fleet_grid_config

    return fleet_grid_config()


class TestRestoreRule:
    """Every class a snapshot carries restores through ``restore_state``,
    which keeps a restored object's attributes inline like a fresh one's."""

    @pytest.fixture(params=[calm_config, chaos_config], ids=["calm", "chaos"])
    def master_and_fork(self, request):
        master = fresh_warmed(request.param(), 2009, 6 * 3600.0)
        return master, master.snapshot().restore()

    def test_every_restored_class_binds_the_rule(self, master_and_fork):
        _, fork = master_and_fork
        classes = {type(obj) for obj in repro_instances(fork)}
        assert GridSimulator in classes
        stray = sorted(
            c.__qualname__
            for c in classes
            if getattr(c, "__setstate__", None) is not restore_state
        )
        assert stray == []

    def test_chaos_grid_carries_every_runtime_layer(self):
        fork = fresh_warmed(chaos_config(), 2009, 3600.0).snapshot().restore()
        names = {type(obj).__name__ for obj in repro_instances(fork)}
        assert {
            "MiddlewareDomain",
            "HealthService",
            "SiteHealth",
            "ResubmissionAgent",
            "StormProcess",
            "BatchedWorkloadManager",
        } <= names

    def test_restored_frozen_configs_equal_and_hash_like_the_captured(
        self, master_and_fork
    ):
        master, fork = master_and_fork

        def frozen(grid):
            return [
                obj
                for obj in repro_instances(grid)
                if dataclasses.is_dataclass(obj)
                and type(obj).__dataclass_params__.frozen
            ]

        captured, restored = frozen(master), frozen(fork)
        assert len(restored) == len(captured) > 1
        for before, after in zip(captured, restored):
            assert after is not before
            assert type(after) is type(before)
            assert after == before
            assert hash(after) == hash(before)
        assert fork.config == master.config

    def test_rule_sets_frozen_fields(self):
        cfg = SiteConfig("a", 8, utilization=0.8)
        copy = pickle.loads(pickle.dumps(cfg))
        assert copy == cfg and hash(copy) == hash(cfg)
        with pytest.raises(dataclasses.FrozenInstanceError):
            copy.n_cores = 9


class TestSnapshotGuards:
    def test_cannot_snapshot_after_client_submission(self):
        grid = fresh_warmed(config(), 31, 1800.0)
        grid.submit(Job(runtime=10.0))
        with pytest.raises(RuntimeError, match="pristine"):
            grid.snapshot()

    def test_unpicklable_grid_fails_at_snapshot(self):
        grid = GridSimulator(config(), seed=31)
        grid.sim.schedule(1.0, lambda: None)
        with pytest.raises(pickle.PicklingError, match="cannot snapshot"):
            grid.snapshot()


class TestWarmedGridFactory:
    def test_cache_hit_equals_fresh_warmup(self):
        _WARM_CACHE.clear()
        cfg = config()
        first = warmed_grid(cfg, seed=37, duration=3600.0)   # builds master
        second = warmed_grid(cfg, seed=37, duration=3600.0)  # cache hit
        independent = fresh_warmed(cfg, 37, 3600.0)
        assert first is not second
        for g in (first, second, independent):
            g.run_until(g.now + 20_000.0)
        assert state_fingerprint(first) == state_fingerprint(independent)
        assert state_fingerprint(second) == state_fingerprint(independent)

    def test_equal_value_configs_share_cache_entries(self):
        _WARM_CACHE.clear()
        warmed_grid(config(), seed=41, duration=1800.0)
        warmed_grid(config(), seed=41, duration=1800.0)
        assert len(_WARM_CACHE) == 1

    def test_distinct_keys_get_distinct_entries(self):
        _WARM_CACHE.clear()
        warmed_grid(config(), seed=1, duration=1800.0)
        warmed_grid(config(), seed=2, duration=1800.0)
        warmed_grid(config(), seed=1, duration=3600.0)
        assert len(_WARM_CACHE) == 3

    def test_cache_entry_cap_is_configurable(self, warm_cache_defaults):
        from repro.gridsim import configure_warm_cache

        _WARM_CACHE.clear()
        configure_warm_cache(max_entries=4)
        for seed in range(7):
            warmed_grid(config(), seed=seed, duration=900.0)
        assert len(_WARM_CACHE) == 4
        # LRU: the newest entries survive
        kept_seeds = sorted(key[1] for key in _WARM_CACHE)
        assert kept_seeds == [3, 4, 5, 6]

    def test_cache_evicts_by_total_pickle_size(self, warm_cache_defaults):
        from repro.gridsim import configure_warm_cache

        _WARM_CACHE.clear()
        configure_warm_cache(max_entries=64)
        for seed in (1, 2, 3):
            warmed_grid(config(), seed=seed, duration=900.0)
        # snapshot sizes vary per seed (and per site engine): budget off
        # the actual sizes so the test is engine-agnostic
        sizes = {key[1]: snap.nbytes for key, snap in _WARM_CACHE.items()}
        assert all(v > 0 for v in sizes.values())
        # budget for exactly the two newest snapshots: the oldest goes
        configure_warm_cache(max_bytes=sizes[2] + sizes[3])
        assert sorted(key[1] for key in _WARM_CACHE) == [2, 3]
        # shrinking to the newest snapshot's own size evicts the other
        configure_warm_cache(max_bytes=sizes[3])
        assert [key[1] for key in _WARM_CACHE] == [3]

    def test_configure_warm_cache_validation(self, warm_cache_defaults):
        from repro.gridsim import configure_warm_cache

        with pytest.raises(ValueError):
            configure_warm_cache(max_entries=0)
        with pytest.raises(ValueError):
            configure_warm_cache(max_bytes=0)

    def test_numpy_integer_seeds_hit_the_cache(self):
        _WARM_CACHE.clear()
        snap = warmed_snapshot(config(), np.int64(3), 900.0)
        assert list(_WARM_CACHE) == [(config(), 3, 900.0)]
        assert warmed_snapshot(config(), np.int64(3), 900.0) is snap
        assert warmed_snapshot(config(), 3, 900.0) is snap
        g = warmed_grid(config(), seed=np.int32(3), duration=900.0)
        assert len(_WARM_CACHE) == 1
        assert state_fingerprint(g) == state_fingerprint(snap.restore())

    def test_generator_seeds_bypass_cache(self):
        _WARM_CACHE.clear()
        g = warmed_grid(config(), seed=np.random.default_rng(5), duration=900.0)
        assert g.now == 900.0
        assert len(_WARM_CACHE) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            warmed_grid(config(), seed=1, duration=0.0)
