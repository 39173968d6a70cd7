"""Test-only oracles for the engine pairs that implement the same law.

Production grids run one implementation per law.  The alternatives live
here, as references the equivalence suites compare production against:

* :class:`EventSiteGrid` — a grid whose sites run on the fully
  event-driven :class:`~repro.gridsim.site.ComputingElement` /
  :class:`~repro.gridsim.fairshare.FairShareComputingElement` instead of
  the two-lane vector engines;
* :class:`ScalarFairShareCE` — the vector fair-share site with its fused
  block resolver replaced by the per-start ``FairShareState`` method
  loop;
* :func:`run_population_taskcore` — the population driver held on the
  per-task TaskCore path even where the struct-of-arrays pool engages.
"""

from __future__ import annotations

from heapq import heapreplace
from unittest import mock

from repro.gridsim import chaos
from repro.gridsim.fairshare import (
    FairShareComputingElement,
    FairShareVectorComputingElement,
)
from repro.gridsim.grid import GridConfig, GridSimulator, GridSnapshot
from repro.gridsim.jobs import JobState
from repro.gridsim.site import ComputingElement
from repro.population import driver
from repro.population.spec import PopulationSpec
from repro.util.rng import RngLike

#: every (site engine, WMS engine) corner a grid can be built on
CORNERS = [
    ("vector", "batched"),
    ("vector", "event"),
    ("event", "batched"),
    ("event", "event"),
]

_INF = float("inf")


class EventSiteGrid(GridSimulator):
    """A grid on the event-driven site oracles (same config, same seeds)."""

    _site_cls = ComputingElement
    _fairshare_cls = FairShareComputingElement


_GRID_CLS = {"vector": GridSimulator, "event": EventSiteGrid}


def make_grid(
    config: GridConfig, seed: RngLike = None, site_engine: str = "vector"
) -> GridSimulator:
    """Build ``config`` on the named site engine."""
    return _GRID_CLS[site_engine](config, seed=seed)


def engine_pair(
    config: GridConfig, seed: int
) -> tuple[GridSimulator, GridSimulator]:
    """The same grid on the vector engine and on the event oracle."""
    return make_grid(config, seed, "vector"), make_grid(config, seed, "event")


def warmed_snapshot_on(
    config: GridConfig, seed: int, duration: float, site_engine: str = "vector"
) -> GridSnapshot:
    """A warmed-grid snapshot built on the named site engine."""
    grid = make_grid(config, seed, site_engine)
    grid.warm_up(duration)
    return grid.snapshot()


def chaos_on(site_engine: str):
    """Context in which :func:`~repro.gridsim.chaos.run_chaos` builds its
    grid on the named site engine."""
    return mock.patch.object(chaos, "GridSimulator", _GRID_CLS[site_engine])


class ScalarFairShareCE(FairShareVectorComputingElement):
    """Per-start oracle of the fair-share block resolver.

    One start per iteration through the :class:`FairShareState` method
    calls — ``select`` then ``charge`` at the same decision instant, the
    call sequence both fair-share engines have always committed.  The
    production block path must replay this loop's float ladder
    bit-for-bit.
    """

    def _commit_block(self, t: float) -> None:
        fs = self.fairshare
        bga, bgr, bgc = self._bga, self._bgr, self._bgc
        clq = self._clq
        husks = self._vo_husks
        nvo = len(bgc)
        QUEUED = JobState.QUEUED
        # this path pops queues without maintaining the cached head rows
        self._heads_mut = -1
        while True:
            cf = self._core_free
            d = cf[0]
            if self._dispatch_floor > d:
                d = self._dispatch_floor
            if d > t:
                self._next_due = d
                return
            # per-VO head arrivals: background vs first live client,
            # background winning exact ties (arrival order)
            heads = []
            a0 = _INF
            for v in range(nvo):
                a = bga[v]
                c = bgc[v]
                b = a[c] if c < len(a) else _INF
                q = clq[v]
                while q and q[0].state is not QUEUED:
                    q.popleft()
                    husks[v] -= 1
                j = q[0].queue_time if q else _INF
                arr = b if b <= j else j
                heads.append((arr, b))
                if arr < a0:
                    a0 = arr
            if a0 > d:
                if a0 > t:
                    self._next_due = a0  # inf when both lanes are empty
                    return
                d = a0  # idle core: the next arrival starts when it lands
            candidates = [v for v in range(nvo) if heads[v][0] <= d]
            v = fs.select(candidates, d)
            arr, b = heads[v]
            if b <= arr:  # the background head wins its VO slot
                c = bgc[v]
                r = bgr[v][c]
                heapreplace(cf, d + r)
                fs.charge(v, r, d)
                bgc[v] = c + 1
                self._started += 1
            else:
                job = clq[v].popleft()
                self._live_clients -= 1
                heapreplace(cf, d + job.runtime)
                fs.charge(v, job.runtime, d)
                self._started += 1
                self._start_client(job, d)
                # the callback may cancel siblings here or close the
                # gate — state is re-read from self at the loop head
                if not self.dispatch_enabled:
                    return


def use_scalar_commits(grid: GridSimulator) -> None:
    """Switch every vector fair-share site of ``grid`` to the scalar oracle."""
    for site in grid.sites:
        if type(site) is FairShareVectorComputingElement:
            site.__class__ = ScalarFairShareCE


def run_population_taskcore(
    grid: GridSimulator,
    spec: PopulationSpec,
    *,
    seed: RngLike = 0,
    horizon_slack: float = 100_000.0,
) -> driver.PopulationResult:
    """:func:`~repro.population.run_population` on per-task TaskCores only."""
    return driver._run_population(
        grid, spec, seed=seed, horizon_slack=horizon_slack, pool=False
    )
