"""Collector hygiene of the population driver.

``run_population`` holds CPython's cyclic collector off while the grid
runs and promotes the survivors to the oldest generation afterwards.
Whatever the caller's collector state was — enabled or not, custom
thresholds, objects frozen — it must be exactly that state again after
the call, on the struct-of-arrays pool and on the TaskCore path alike,
and also when the run raises.  Cyclic garbage made during the run must
still be reclaimed by the next collection.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.strategies import MultipleSubmission, SingleResubmission
from repro.gridsim import GridConfig, GridSimulator, SiteConfig
from repro.population import FleetSpec, PopulationSpec, run_population
from repro.population.soa import pool_supported


def _grid(path: str) -> GridSimulator:
    """A small grid whose population runs on the named driver path."""
    grid = GridSimulator(
        GridConfig(
            sites=(
                SiteConfig("a", 8, utilization=0.6, runtime_median=600.0),
                SiteConfig("b", 8, utilization=0.6, runtime_median=900.0),
            ),
        ),
        seed=3,
    )
    if path == "taskcore":
        # the chaos ledger sends the run to per-task TaskCores
        grid.enable_task_ledger()
    assert pool_supported(grid) == (path == "pool")
    return grid


_SPEC = PopulationSpec(
    fleets=(
        FleetSpec("vo", SingleResubmission(t_inf=3000.0), 12),
        FleetSpec("vo", MultipleSubmission(b=2, t_inf=3000.0), 6),
    ),
    window=3600.0,
)


def _state() -> tuple:
    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()


@pytest.fixture(autouse=True)
def _restore_collector():
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    yield
    gc.unfreeze()
    gc.set_threshold(*threshold)
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(params=["pool", "taskcore"])
def path(request) -> str:
    return request.param


@pytest.fixture
def grid(path) -> GridSimulator:
    return _grid(path)


class _Boom(Exception):
    pass


def _raise() -> None:
    raise _Boom


def _in_young_generations(obj) -> bool:
    return any(o is obj for o in gc.get_objects())


class TestCollectorState:
    def test_enabled_collector_is_restored(self, grid):
        gc.enable()
        before = _state()
        result = run_population(grid, _SPEC, seed=1)
        assert result.total_finished > 0
        assert _state() == before

    def test_disabled_collector_stays_disabled(self, grid):
        gc.disable()
        gc.set_threshold(500, 7, 3)
        before = _state()
        run_population(grid, _SPEC, seed=1)
        assert _state() == before
        assert not gc.isenabled()

    def test_frozen_set_stays_frozen(self, path):
        gc.enable()
        marker = [object()]
        gc.freeze()
        # built after the freeze: no frozen object dies during the run
        grid = _grid(path)
        assert not _in_young_generations(marker)
        before = _state()
        assert before[2] > 0
        run_population(grid, _SPEC, seed=1)
        assert _state() == before
        assert not _in_young_generations(marker)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_raising_run_restores_the_collector(self, grid, enabled):
        if enabled:
            gc.enable()
        else:
            gc.disable()
        before = _state()
        grid.sim.schedule_at(grid.now + 600.0, _raise)
        with pytest.raises(_Boom):
            run_population(grid, _SPEC, seed=1)
        assert _state() == before


class _Node:
    pass


class TestSurvivors:
    def test_survivors_are_promoted_to_the_oldest_generation(self, grid):
        gc.enable()
        kept: list = []
        grid.sim.schedule_at(grid.now + 600.0, lambda: kept.append(_Node()))
        run_population(grid, _SPEC, seed=1)
        assert len(kept) == 1
        assert any(o is kept[0] for o in gc.get_objects(generation=2))

    def test_cycle_made_mid_run_dies_on_next_collect(self, grid):
        gc.enable()
        refs: list = []

        def make_cycle() -> None:
            node = _Node()
            node.self = node
            refs.append(weakref.ref(node))

        grid.sim.schedule_at(grid.now + 600.0, make_cycle)
        run_population(grid, _SPEC, seed=1)
        assert len(refs) == 1
        gc.collect()
        assert refs[0]() is None
