"""Executes a :class:`~repro.population.spec.PopulationSpec` on one grid.

All fleets share the grid, so the driver captures every feedback channel
the single-user analysis ignores: adopters of aggressive strategies
lengthen the queues their own VO (and everyone else) waits in,
fair-share re-prioritises VOs as their usage grows, and federated
brokers dispatch on views the fleet load itself is ageing.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

import numpy as np

from repro.gridsim.client import launch_task
from repro.gridsim.fairshare import multi_vo
from repro.gridsim.grid import GridSimulator
from repro.population.soa import TaskPool, chain_launches, pool_supported
from repro.population.spec import FleetSpec, PopulationSpec
from repro.util.rng import RngLike, as_rng, spawn_rngs
from repro.util.validation import check_positive

__all__ = ["FleetOutcome", "PopulationResult", "run_population"]

@dataclass(frozen=True)
class FleetOutcome:
    """Realised statistics of one fleet.

    Attributes
    ----------
    spec:
        The fleet that produced these numbers.
    j:
        Realised total latencies of finished tasks (s).
    jobs_submitted:
        Grid jobs per finished task (copies + resubmissions).
    gave_up:
        Tasks unfinished at the horizon.
    """

    spec: FleetSpec
    j: np.ndarray
    jobs_submitted: np.ndarray
    gave_up: int

    @property
    def mean_j(self) -> float:
        """Mean realised total latency (NaN when nothing finished)."""
        return float(self.j.mean()) if self.j.size else float("nan")

    @property
    def median_j(self) -> float:
        """Median realised total latency (NaN when nothing finished)."""
        return float(np.median(self.j)) if self.j.size else float("nan")

    @property
    def mean_jobs(self) -> float:
        """Mean grid jobs per task (NaN when nothing finished)."""
        return float(self.jobs_submitted.mean()) if self.j.size else float("nan")


@dataclass(frozen=True)
class PopulationResult:
    """Everything one population run produced.

    Attributes
    ----------
    fleets:
        Per-fleet outcomes, in spec order.
    duration:
        Virtual seconds the run spanned (launch window + drain).
    jobs_lost, jobs_stuck:
        Middleware faults during this run (deltas, not the grid's
        lifetime counters).
    broker_dispatches:
        Dispatches per broker during this run, in broker order.
    site_usage_shares:
        Per-site decayed VO usage fractions at the end of the run
        (fair-share sites only).
    weather:
        Grid weather/health/self-healing telemetry at the end of the run
        (:meth:`~repro.gridsim.grid.GridSimulator.weather_report` —
        cumulative grid-lifetime counters, all zero on calm grids).  On
        grids with a middleware fault domain this includes the
        ``"brokers"`` section (per-broker submits/rejects/failovers,
        outage and breaker counters) and the ``"duplicates"``
        created/reconciled ledger.
    metrics:
        Full :meth:`~repro.gridsim.registry.MetricsRegistry.snapshot`
        of the grid's registry at the end of the run — every counter,
        gauge and histogram any subsystem published, as plain data.
    phases:
        Wall-clock seconds per phase, timed at the phase boundaries:
        ``warm`` (grid warm-up, when the runtime builds the grid),
        ``launch`` (launch-schedule synthesis and task set-up),
        ``simulate``, ``exchange`` (sharded runs: epoch-loop time,
        worker start-up included, beyond each epoch's slowest shard
        simulation) and ``readout``.  Host timings, so never part of
        result equality.
    """

    fleets: tuple[FleetOutcome, ...]
    duration: float
    jobs_lost: int
    jobs_stuck: int
    broker_dispatches: tuple[int, ...]
    site_usage_shares: dict[str, dict[str, float]]
    weather: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    phases: dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def total_finished(self) -> int:
        """Tasks that finished across all fleets."""
        return sum(f.j.size for f in self.fleets)

    @property
    def total_gave_up(self) -> int:
        """Tasks still pending at the horizon across all fleets."""
        return sum(f.gave_up for f in self.fleets)

    def by_vo(self) -> dict[str, np.ndarray]:
        """Realised latencies pooled per VO."""
        pools: dict[str, list[np.ndarray]] = {}
        for f in self.fleets:
            pools.setdefault(f.spec.vo, []).append(f.j)
        return {vo: np.concatenate(js) for vo, js in pools.items()}


def _run_uncollected(grid: GridSimulator, t_end: float) -> None:
    """``grid.run_until(t_end)`` with the cyclic collector held off.

    A population run allocates tasks, jobs and timers it keeps until the
    readout, so every automatic pass during the run re-walks live
    objects and frees next to nothing: ``TaskCore._settle`` already
    breaks the task/timer cycles.  The collector draws no randomness, so
    holding it changes no result.  Afterwards ``freeze()`` + ``unfreeze()``
    splices every surviving tracked object into the oldest generation in
    O(1), instead of letting the next young passes walk them all; a
    caller that froze objects of its own keeps them frozen, so the splice
    is skipped then.  Cyclic garbage made during the run is reclaimed at
    the next full collection.  The enabled flag is restored as found.
    """
    enabled = gc.isenabled()
    promote = gc.get_freeze_count() == 0
    gc.disable()
    try:
        grid.run_until(t_end)
    finally:
        if promote:
            gc.freeze()
            gc.unfreeze()
        if enabled:
            gc.enable()


def run_population(
    grid: GridSimulator,
    spec: PopulationSpec,
    *,
    seed: RngLike = 0,
    horizon_slack: float = 100_000.0,
) -> PopulationResult:
    """Run every fleet of ``spec`` concurrently on ``grid``.

    Launch instants are synthesised per fleet (seeded independently via
    stream spawning, so adding a fleet never perturbs another fleet's
    schedule), all tasks are scheduled onto the shared event loop, and
    the simulation advances until every task finished or the horizon
    (``window + horizon_slack``) is reached.  The run is event-driven:
    the last task's completion stops the simulator at that exact
    instant.

    Tasks run on the struct-of-arrays pool (:mod:`repro.population.soa`)
    whenever :func:`~repro.population.soa.pool_supported` says it is
    law-identical on this grid, and on per-task
    :class:`~repro.gridsim.client.TaskCore` objects otherwise — the path
    that carries event-engine grids, middleware retries, the
    resubmission agent, tracing and the chaos ledger.  Where the pool engages both produce
    bit-for-bit the same result, pinned by
    ``tests/test_population_soa.py``.  CPython's cyclic collector is
    held off while the grid runs; its enabled flag, thresholds and
    frozen set are as the caller left them when the call returns.

    Parameters
    ----------
    grid:
        A (warmed) grid; fair-share and federation behaviour come from
        its config.
    spec:
        The population to run.
    seed:
        Seed for launch-time synthesis only (the grid owns its own
        streams).
    horizon_slack:
        Extra virtual time after the window for stragglers to finish.
    """
    return _run_population(
        grid,
        spec,
        seed=seed,
        horizon_slack=horizon_slack,
        pool=pool_supported(grid),
    )


def _run_population(
    grid: GridSimulator,
    spec: PopulationSpec,
    *,
    seed: RngLike,
    horizon_slack: float,
    pool: bool,
) -> PopulationResult:
    """:func:`run_population` on the pool (``pool``) or on TaskCores.

    Either runtime hands back a reader of per-fleet ``(j, jobs)``
    arrays; the grid's telemetry deltas are read here, once, after it.
    """
    check_positive("horizon_slack", horizon_slack)
    t_launch = perf_counter()
    rngs = spawn_rngs(as_rng(seed), len(spec.fleets))
    start = grid.now
    lost_before, stuck_before = grid.jobs_lost, grid.jobs_stuck
    dispatched_before = [b.dispatch_count for b in grid.brokers]
    all_times = [
        spec.launch_times(fleet, rng) for fleet, rng in zip(spec.fleets, rngs)
    ]

    if sum(t.size for t in all_times) == 0:
        # nothing to launch (no fleets, or every fleet has n_tasks=0):
        # an empty day, without burning the horizon on a dead grid
        t_sim = t_read = perf_counter()
        readouts = [
            (np.array([]), np.array([], dtype=np.int64)) for _ in all_times
        ]
    else:
        launch = _launch_pool if pool else _launch_taskcores
        read = launch(grid, spec.fleets, all_times, start)
        t_sim = perf_counter()
        _run_uncollected(grid, start + spec.window + horizon_slack)
        t_read = perf_counter()
        readouts = read()

    phases = {"launch": t_sim - t_launch, "simulate": t_read - t_sim}
    result = PopulationResult(
        fleets=tuple(
            FleetOutcome(
                spec=fleet,
                j=j,
                jobs_submitted=jobs,
                gave_up=fleet.n_tasks - j.size,
            )
            for fleet, (j, jobs) in zip(spec.fleets, readouts)
        ),
        duration=grid.now - start,
        jobs_lost=grid.jobs_lost - lost_before,
        jobs_stuck=grid.jobs_stuck - stuck_before,
        broker_dispatches=tuple(
            b.dispatch_count - d0
            for b, d0 in zip(grid.brokers, dispatched_before)
        ),
        site_usage_shares={
            site.name: site.usage_shares()
            for site in grid.sites
            if multi_vo(site)
        },
        weather=grid.weather_report(),
        metrics=grid.metrics.snapshot(),
        phases=phases,
    )
    phases["readout"] = perf_counter() - t_read
    return result


def _launch_pool(grid, fleets, all_times, start: float):
    """Load the day into one :class:`TaskPool`; return its reader."""
    submitted_before = grid.jobs_submitted
    pool = TaskPool(
        grid, fleets, all_times, start=start, on_all_done=grid.sim.stop
    )

    def read() -> list[tuple[np.ndarray, np.ndarray]]:
        pool.check_conservation(grid.jobs_submitted - submitted_before)
        return [pool.fleet_results(f) for f in range(len(fleets))]

    return read


def _launch_taskcores(grid, fleets, all_times, start: float):
    """Chain one :func:`launch_task` per task; return the sinks' reader."""
    sinks: list[list[tuple[float, int]]] = [[] for _ in fleets]
    pending = [sum(t.size for t in all_times)]

    def on_done() -> None:
        pending[0] -= 1
        if pending[0] == 0:
            grid.sim.stop()

    launchers = [
        partial(
            launch_task,
            grid,
            fleet.strategy,
            fleet.runtime,
            sink,
            vo=fleet.vo,
            via=fleet.broker,
            on_done=on_done,
        )
        for fleet, sink in zip(fleets, sinks)
    ]
    fid = np.repeat(
        np.arange(len(all_times), dtype=np.intp),
        [t.size for t in all_times],
    ).tolist()
    chain_launches(grid.sim, all_times, start, lambda i: launchers[fid[i]]())

    def read() -> list[tuple[np.ndarray, np.ndarray]]:
        return [
            (
                np.array([r[0] for r in sink]),
                np.array([r[1] for r in sink], dtype=np.int64),
            )
            for sink in sinks
        ]

    return read
