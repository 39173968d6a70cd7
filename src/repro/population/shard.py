"""Sharded population runtime: site-partitioned worker processes.

This module partitions the sites of one
:class:`~repro.gridsim.grid.GridConfig` round-robin across ``N >= 2``
worker processes.  Each shard owns a site subset, a full grid simulator
over it (background load, fair-share, faults — all from per-shard RNG
streams derived from the root seed), its stock batched broker ranking
over the owned sites plus one :class:`_RemoteSite` stand-in per foreign
site, and the slice ``[k::N]`` of every fleet's launch schedule.

It buys no speed on a two-core host (the day runs no faster than in
one process) and its one-epoch lag is a law of its own; it is kept
only because the ``pop-sharded`` benchmark workload pins that law.
A one-process run is :func:`~repro.population.driver.run_population`.

Cross-shard traffic rides the same windowed trick the batched WMS uses
in-process: brokers resolve dispatch buckets at sub-window boundaries
(``info_refresh / 16``), and a copy ranked onto a remote shard's site
becomes a *message* stamped with that boundary instead of an enqueue.
Workers advance in lockstep epochs of one ``info_refresh`` window;
between epochs the parent routes each shard's outbox and broadcasts
per-site load tables.  A message stamped with boundary ``b`` is applied
on the receiving shard at ``b + epoch`` — every message is delayed by
exactly one epoch, grouped per sub-window, which is the federation
layer's ``info_lag`` idiom applied to the process fabric.  Load tables
lag the same way, so remote-site rankings work from a one-epoch-stale
view (a production information system's staleness, not an artifact).

The protocol (all payloads are plain tuples):

``sub``
    Origin ranked a copy onto a remote site: the host shard mints a
    mirror job and enqueues it there (batched per site per sub-window).
``start``
    A mirror started on its host: the origin settles the task at the
    *remote* start instant, so the fabric's delivery lag never inflates
    the measured latency ``J``.  If the task has meanwhile settled or
    timed out at the origin, the reply is a ``cancel``.
``cancel``
    The origin cancelled a shipped copy (timeout or sibling settle):
    the host kills the mirror wherever it is (queued or running).

A timeout can race a remote start across the one-epoch fabric lag
(the origin resubmits a copy whose mirror had already started); the
race resolves deterministically — the in-flight ``start`` is answered
with a ``cancel`` — and is part of the sharded runtime's law, exactly
like dispatch-boundary alignment is part of the batched WMS's law.

Determinism: for a fixed ``(config, spec, seed, grid_seed, shards)``
every run produces identical outcome tables — per-shard grid seeds come
from ``SeedSequence(grid_seed).generate_state(shards)``, launch slices
are computed once in the parent, and message application orders by
(boundary, source shard, generation order).  Changing ``shards``
changes the partition and therefore the law, like changing any other
engine constant.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import pickle
from dataclasses import replace
from functools import partial
from time import perf_counter

import numpy as np

from repro.core.strategies import (
    DelayedResubmission,
    MultipleSubmission,
    SingleResubmission,
)
from repro.gridsim.grid import GridConfig, warmed_snapshot
from repro.gridsim.jobs import Job, JobState
from repro.population.driver import FleetOutcome, PopulationResult
from repro.population.soa import _ACTIVE, TaskPool
from repro.population.spec import PopulationSpec
from repro.util.rng import as_rng, spawn_rngs
from repro.util.validation import check_positive

__all__ = ["run_population_sharded", "shard_configs"]

_SUPPORTED = (SingleResubmission, MultipleSubmission, DelayedResubmission)


class _RemoteSite:
    """A site another shard owns, as this shard's broker ranks it.

    Appended to the shard broker's own ``sites`` list (the grid keeps
    its own list, so ``grid.sites`` stays the owned subset), it lets the
    stock batched resolver rank over the global site count: its
    estimated wait is the last load the parent broadcast (``inf`` until
    the first exchange, so the opening epoch stays shard-local), and
    the copies it wins leave through the fabric as ``sub`` messages.
    """

    __slots__ = ("name", "shard", "idx", "load", "_ship")

    def __init__(self, name: str, shard: int, idx: int, ship) -> None:
        self.name = name
        self.shard = shard
        self.idx = idx
        self.load = math.inf
        self._ship = ship

    def estimated_wait(self, runtime_guess: float) -> float:
        return self.load

    def enqueue_many(self, jobs) -> int:
        for job in jobs:
            job.state = JobState.QUEUED
            job.site = self.name
            self._ship(job, self.shard, self.idx)
        return len(jobs)


class _ShardRuntime:
    """Worker-side state: one shard grid, its pool, and the fabric."""

    def __init__(
        self, conn, wid, n_shards, grid, spec, times, start, partition
    ) -> None:
        self.conn = conn
        self.grid = grid
        self.sim = grid.sim
        broker = grid.wms
        self._n_local = len(broker.sites)
        self._remote = [
            _RemoteSite(name, j, idx, self._ship)
            for j in range(n_shards)
            if j != wid
            for idx, name in enumerate(partition[j])
        ]
        broker.sites.extend(self._remote)
        broker._measure_loads()
        broker._snapshot_time = self.sim.now
        self.broker = broker
        self.epoch = float(grid.config.info_refresh)
        self.quantum = broker.dispatch_quantum
        self._outbox: list = []
        self._shipped: dict[int, Job] = {}  # key -> origin-side stub
        self._jobkey: dict[Job, tuple[int, int]] = {}  # stub -> (key, host)
        self._hosted: dict[tuple[int, int], Job] = {}  # (origin, key) -> mirror
        self._next_key = 0
        self._d0 = broker.dispatch_count
        self._lost0 = grid.jobs_lost
        self._stuck0 = grid.jobs_stuck
        self._start_t = start
        self.pool = TaskPool(grid, spec.fleets, times, start=start, ops=self)

    # -- ops surface for the TaskPool ---------------------------------

    def cancel(self, job: Job) -> None:
        ks = self._jobkey.pop(job, None)
        if ks is None:
            self.grid.cancel(job)
            return
        key, host = ks
        self._shipped.pop(key, None)
        job.on_start = None
        job.state = JobState.CANCELLED
        self._buffer(host, "cancel", (key,))

    def cancel_many(self, jobs) -> None:
        local = []
        for job in jobs:
            if job in self._jobkey:
                self.cancel(job)
            else:
                local.append(job)
        if local:
            self.grid.cancel_many(local)

    # -- message fabric ------------------------------------------------

    def _buffer(self, dest: int, kind: str, payload: tuple) -> None:
        q = self.quantum
        boundary = math.ceil(self.sim.now / q) * q
        self._outbox.append((dest, kind, boundary, payload))

    def _ship(self, job: Job, host: int, local_idx: int) -> None:
        # called by the broker at a bucket boundary (already a quantum
        # multiple); the stub stays in the pool's live set so timeouts
        # and sibling settles keep governing it at the origin
        key = self._next_key
        self._next_key += 1
        self._shipped[key] = job
        self._jobkey[job] = (key, host)
        self._outbox.append(
            (host, "sub", self.sim.now, (key, local_idx, job.runtime, job.vo))
        )

    def _schedule_inbox(self, inbox) -> None:
        if not inbox:
            return
        batches: dict[float, list] = {}
        for msg in inbox:
            batches.setdefault(msg[2], []).append(msg)
        E = self.epoch
        for b in sorted(batches):
            self.sim.schedule_at(b + E, partial(self._apply_batch, batches[b]))

    def _apply_batch(self, batch) -> None:
        # mirrors first, batched per site (one enqueue_many per site per
        # sub-window), then starts/cancels in arrival order — a cancel
        # for a sub in the same batch always finds its mirror minted
        subs: dict[int, list[Job]] = {}
        rest = []
        for origin, kind, _b, payload in batch:
            if kind == "sub":
                key, site_idx, runtime, vo = payload
                job = Job(runtime=runtime, tag="task", vo=vo)
                job.on_start = partial(self._hosted_started, origin, key)
                self._hosted[(origin, key)] = job
                subs.setdefault(site_idx, []).append(job)
            else:
                rest.append((origin, kind, payload))
        sites = self.grid.sites
        for site_idx, jobs in subs.items():
            sites[site_idx].enqueue_many(jobs)
        for origin, kind, payload in rest:
            if kind == "start":
                self._remote_started(origin, *payload)
            else:  # "cancel"
                self._cancel_hosted(origin, payload[0])

    def _hosted_started(self, origin: int, key: int, job: Job) -> None:
        # a mirror started on this shard: report the exact instant home
        self._buffer(origin, "start", (key, self.sim.now))

    def _remote_started(self, host: int, key: int, t_started: float) -> None:
        stub = self._shipped.pop(key, None)
        if stub is None or stub.on_start is None:
            # the task settled or timed out while the start message was
            # in flight — kill the mirror (it may already be running)
            self._buffer(host, "cancel", (key,))
            return
        self._jobkey.pop(stub, None)
        cb = stub.on_start
        stub.on_start = None
        stub.state = JobState.RUNNING
        stub.start_time = t_started
        # the pool's start watcher is partial(TaskPool._start, i):
        # recover the pool index and settle at the *remote* start
        # instant, so fabric delivery lag never inflates measured J
        i = cb.args[0]
        if self.pool.state[i] == _ACTIVE:
            self.pool.settle(i, stub, t_started)

    def _cancel_hosted(self, origin: int, key: int) -> None:
        job = self._hosted.pop((origin, key), None)
        if job is not None:
            self.grid.cancel(job)
        # an unknown key is already terminal here (completed mirror or
        # duplicate cancel); a mirror racing its cancel cleans itself up
        # through the start/cancel round-trip

    def _prune_hosted(self) -> None:
        live = (JobState.QUEUED, JobState.RUNNING)
        self._hosted = {
            k: j for k, j in self._hosted.items() if j.state in live
        }

    # -- epoch loop ----------------------------------------------------

    def _apply_loads(self, tables) -> None:
        # patch the remote tail of the current snapshot in place; the
        # next refresh re-reads the stand-ins' loads anyway
        for r in self._remote:
            r.load = float(tables[r.shard][r.idx])
        b = self.broker
        b._snapshot_list[self._n_local :] = [r.load for r in self._remote]
        b._snapshot = np.asarray(b._snapshot_list)

    def _local_loads(self) -> list[float]:
        guess = self.broker.runtime_guess
        return [float(s.estimated_wait(guess)) for s in self.grid.sites]

    def run(self) -> None:
        conn = self.conn
        while True:
            msg = conn.recv()
            if msg[0] == "finish":
                conn.send(("result", self._result()))
                return
            _tag, t_end, inbox, loads_tables = msg
            if loads_tables is not None:
                self._apply_loads(loads_tables)
            self._schedule_inbox(inbox)
            t0 = perf_counter()
            self.grid.run_until(t_end)
            busy = perf_counter() - t0
            self._prune_hosted()
            out = self._outbox
            self._outbox = []
            conn.send(
                ("sync", int(self.pool.pending), out, self._local_loads(), busy)
            )

    def _result(self) -> dict:
        grid, pool = self.grid, self.pool
        fleets = []
        for f in range(len(pool.fleets)):
            j, jobs = pool.fleet_results(f)
            n_here = int(pool.offsets[f + 1] - pool.offsets[f])
            fleets.append((j, jobs, n_here - j.size))
        usage = {
            s.name: s.usage_shares()
            for s in grid.sites
            if hasattr(s, "usage_shares")
        }
        return {
            "fleets": fleets,
            "jobs_lost": grid.jobs_lost - self._lost0,
            "jobs_stuck": grid.jobs_stuck - self._stuck0,
            "dispatches": self.broker.dispatch_count - self._d0,
            "usage": usage,
            "weather": grid.weather_report(),
            "metrics": grid.metrics.snapshot(),
            "duration": grid.now - self._start_t,
        }


def _shard_worker(
    conn, wid, n_shards, payload, spec, times, start, partition
) -> None:
    try:
        grid = pickle.loads(payload)
        _ShardRuntime(
            conn, wid, n_shards, grid, spec, times, start, partition
        ).run()
    except BaseException:
        import traceback

        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
        raise
    finally:
        conn.close()


def shard_configs(
    config: GridConfig, shards: int
) -> tuple[list[GridConfig], list[tuple[str, ...]]]:
    """Partition a grid config round-robin into per-shard configs.

    Returns ``(configs, partition)`` where ``partition[k]`` is the
    tuple of global site names shard ``k`` owns (``sites[k::shards]``
    — round-robin, so heterogeneous site lists spread evenly).
    """
    if not isinstance(shards, int) or shards < 2:
        raise ValueError(
            f"shards must be a positive int of at least 2, got {shards!r}; "
            "for one process call run_population on a warmed_grid"
        )
    if shards > len(config.sites):
        raise ValueError(
            f"shards={shards} exceeds the {len(config.sites)} configured "
            "site(s) — each shard needs at least one site"
        )
    cfgs, partition = [], []
    for k in range(shards):
        owned = config.sites[k::shards]
        cfgs.append(replace(config, sites=owned))
        partition.append(tuple(sc.name for sc in owned))
    return cfgs, partition


def _check_shardable(config: GridConfig, spec: PopulationSpec) -> None:
    """Reject grid features the message fabric does not carry (yet)."""
    if config.brokers:
        raise ValueError(
            "sharded runs partition sites across per-shard brokers; "
            "configure a broker-free grid (config.brokers must be empty)"
        )
    if config.wms_engine != "batched":
        raise ValueError(
            "sharded runs require wms_engine='batched' — cross-shard "
            "messages are batched per dispatch sub-window, which the "
            "per-job oracle engine does not define"
        )
    unsupported = [
        name
        for name, value in (
            ("weather", config.weather),
            ("health", config.health),
            ("resubmit", config.resubmit),
            ("submit_faults", config.submit_faults),
            ("retry", config.retry),
        )
        if value is not None
    ]
    if config.tracing:
        unsupported.append("tracing")
    if unsupported:
        raise ValueError(
            "sharded runs do not carry these grid features across the "
            f"process fabric: {', '.join(unsupported)}"
        )
    for f in spec.fleets:
        if f.broker is not None:
            raise ValueError(
                f"fleet {f.label!r} pins a broker; sharded runs own one "
                "broker per shard (fleet.broker must be None)"
            )
        if not isinstance(f.strategy, _SUPPORTED):
            raise ValueError(
                f"fleet {f.label!r} uses {type(f.strategy).__name__}, "
                "which the struct-of-arrays pool does not support"
            )


def _merge_telemetry(a, b):
    """Best-effort merge of per-shard telemetry trees.

    Counters and nested dicts merge additively/recursively; same-length
    lists merge elementwise; anything else keeps the first shard's
    value (derived statistics like histogram means are approximate
    across shards — the counters underneath them are exact).
    """
    if isinstance(a, dict) and isinstance(b, dict):
        out = dict(a)
        for k, v in b.items():
            out[k] = _merge_telemetry(out[k], v) if k in out else v
        return out
    if isinstance(a, bool) or isinstance(b, bool):
        return a or b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a + b
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [_merge_telemetry(x, y) for x, y in zip(a, b)]
    return a


def run_population_sharded(
    config: GridConfig,
    spec: PopulationSpec,
    *,
    shards: int,
    seed: int = 0,
    grid_seed: int = 0,
    warm: float = 6 * 3600.0,
    horizon_slack: float = 100_000.0,
) -> PopulationResult:
    """Run a population across ``shards`` site-partitioned processes.

    Takes a *config* (not a grid): each shard warms its own grid over
    its site subset, seeded from ``SeedSequence(grid_seed)``.  Fleet
    launch schedules are synthesised once from ``seed`` exactly like
    :func:`~repro.population.driver.run_population` and sliced
    ``[k::shards]`` per worker.  Results are deterministic for a fixed
    shard count of at least 2; a one-process run is
    :func:`~repro.population.driver.run_population` on a warmed grid.
    See the module docstring for the fabric's law.
    """
    check_positive("horizon_slack", horizon_slack)
    check_positive("warm", warm)
    if not isinstance(grid_seed, int):
        raise TypeError(
            "run_population_sharded needs an integer grid_seed (it keys "
            f"the per-shard warm cache), got {type(grid_seed).__name__}"
        )
    cfgs, partition = shard_configs(config, shards)
    _check_shardable(config, spec)

    t_launch = perf_counter()
    rngs = spawn_rngs(as_rng(seed), len(spec.fleets))
    all_times = [
        spec.launch_times(fleet, rng)
        for fleet, rng in zip(spec.fleets, rngs)
    ]
    phases = {"launch": perf_counter() - t_launch}
    if sum(t.size for t in all_times) == 0:
        return PopulationResult(
            fleets=tuple(
                FleetOutcome(
                    spec=fleet,
                    j=np.array([]),
                    jobs_submitted=np.array([], dtype=np.int64),
                    gave_up=0,
                )
                for fleet in spec.fleets
            ),
            duration=0.0,
            jobs_lost=0,
            jobs_stuck=0,
            broker_dispatches=(0,) * shards,
            site_usage_shares={},
            phases=phases,
        )

    t_warm = perf_counter()
    shard_seeds = np.random.SeedSequence(grid_seed).generate_state(shards)
    payloads = []
    for cfg, s in zip(cfgs, shard_seeds):
        snap = warmed_snapshot(cfg, int(s), warm)
        if snap._payload is None:
            raise RuntimeError(
                "shard grid state is not picklable and cannot cross the "
                "process boundary"
            )
        payloads.append(snap._payload)
    phases["warm"] = perf_counter() - t_warm
    start = float(warm)
    epoch = float(config.info_refresh)
    max_epochs = math.ceil((spec.window + horizon_slack) / epoch)

    # workers inherit the job-id counter, so fresh jobs never collide
    # with the snapshot's (raises ValueError where fork is missing)
    ctx = mp.get_context("fork")
    conns, procs = [], []
    simulate = 0.0
    t_loop = perf_counter()
    try:
        for k in range(shards):
            parent_conn, child_conn = ctx.Pipe()
            times_k = [t[k::shards] for t in all_times]
            proc = ctx.Process(
                target=_shard_worker,
                args=(
                    child_conn, k, shards, payloads[k], spec, times_k,
                    start, partition,
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)

        def _recv(conn):
            msg = conn.recv()
            if msg[0] == "error":
                raise RuntimeError(f"shard worker failed:\n{msg[1]}")
            return msg

        inboxes: list[list] = [[] for _ in range(shards)]
        loads_tables = None
        for e in range(max_epochs):
            t_end = start + (e + 1) * epoch
            for k, conn in enumerate(conns):
                conn.send(("run", t_end, inboxes[k], loads_tables))
            inboxes = [[] for _ in range(shards)]
            pending = 0
            in_flight = False
            loads_tables = []
            busiest = 0.0
            for k, conn in enumerate(conns):
                _tag, pend_k, out_k, loads_k, busy_k = _recv(conn)
                pending += pend_k
                loads_tables.append(loads_k)
                busiest = max(busiest, busy_k)
                for dest, kind, boundary, payload in out_k:
                    inboxes[dest].append((k, kind, boundary, payload))
                    in_flight = True
            # lockstep epochs: the slowest shard's simulation sets the
            # pace, everything else in the loop is the exchange
            simulate += busiest
            if pending == 0 and not in_flight:
                break
        t_read = perf_counter()
        phases["simulate"] = simulate
        phases["exchange"] = t_read - t_loop - simulate
        results = []
        for conn in conns:
            conn.send(("finish",))
            results.append(_recv(conn)[1])
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - cleanup path
                proc.terminate()
                proc.join()

    outcomes = []
    for f, fleet in enumerate(spec.fleets):
        j = np.concatenate([r["fleets"][f][0] for r in results])
        jobs = np.concatenate([r["fleets"][f][1] for r in results])
        gave_up = sum(r["fleets"][f][2] for r in results)
        outcomes.append(
            FleetOutcome(spec=fleet, j=j, jobs_submitted=jobs, gave_up=gave_up)
        )
    usage: dict = {}
    for r in results:
        usage.update(r["usage"])
    weather: dict = {}
    metrics: dict = {}
    for r in results:
        weather = _merge_telemetry(weather, r["weather"])
        metrics = _merge_telemetry(metrics, r["metrics"])
    return PopulationResult(
        fleets=tuple(outcomes),
        duration=max(r["duration"] for r in results),
        jobs_lost=sum(r["jobs_lost"] for r in results),
        jobs_stuck=sum(r["jobs_stuck"] for r in results),
        broker_dispatches=tuple(r["dispatches"] for r in results),
        site_usage_shares=usage,
        weather=weather,
        metrics=metrics,
        phases={**phases, "readout": perf_counter() - t_read},
    )
