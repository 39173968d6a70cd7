"""Struct-of-arrays population runtime: fleets as index ranges, no objects.

The legacy population driver allocates one :class:`~repro.gridsim.client.TaskCore`
per task — at 10⁵ tasks that is 10⁵ slotted objects, 10⁵ bound-method
watchers, and a few 10⁵ pooled timers armed and cancelled one at a time.
:class:`TaskPool` replaces all of it with one numpy record pool: task
state, launch/finish instants, completion order and jobs-used live in
flat columns, fleets are contiguous index ranges, the per-task start
watcher is one reusable ``partial``, and timeout expiry is batched
through a pool-owned wheel that arms **one** kernel timer per bucket
boundary and walks its due index block at fire time (dead entries are
skipped by a state check instead of being cancelled individually).

The pool is a *law-identical* replacement for the TaskCore path on the
grids fleet runs actually use — calm middleware (no retry/fault domain,
no resubmission agent, no tracing, no task ledger; see
:func:`pool_supported`).  Every grid interaction happens in exactly the
order the legacy executors performed it (same Job mint order, same
fault-channel draws, same broker round-robin, same cancel batches), so
a pool run reproduces the TaskCore driver bit-for-bit under both WMS
engines; ``tests/test_population_soa.py`` pins that.

Sharded runs (:mod:`repro.population.shard`) reuse the pool unchanged:
the worker passes an ``ops`` adapter that reroutes cancels of copies
shipped to remote shards, and settles tasks whose winning copy started
remotely via :meth:`TaskPool.settle`.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.strategies import (
    DelayedResubmission,
    MultipleSubmission,
    SingleResubmission,
)
from repro.gridsim.jobs import Job

__all__ = ["TaskPool", "chain_launches", "pool_supported"]

#: task lifecycle states (the ``state`` column)
_PENDING, _ACTIVE, _DONE = 0, 1, 2

#: strategy kinds (per-fleet, fleets are homogeneous)
_SINGLE, _MULTIPLE, _DELAYED = 0, 1, 2

#: wheel entry codes — what an expired slot means for its task
_EXP_SINGLE = 0  # single-resubmission t_inf: cancel + resubmit
_EXP_MULTIPLE = 1  # multiple-submission t_inf: cancel batch + resubmit batch
_EXP_DCANCEL = 2  # delayed t_inf: cancel one aged copy, task keeps going
_EXP_DSUBMIT = 3  # delayed t0: submit the next staggered copy


def chain_launches(sim, launch_times, start: float, launch) -> None:
    """Call ``launch(i)`` at ``start`` + the launch time of every task ``i``.

    Tasks are numbered fleet-major across ``launch_times`` (one array
    per fleet, at least one task in all).  One self-rechaining event
    walks the merged schedule instead of preloading one heap entry per
    task, so a 100k-task run keeps the kernel heap at steady-state size
    (completions + timers), which makes every sift cheaper.  The
    fleet-major stable sort reproduces the preloaded order exactly:
    equal launch instants fire back to back inside one event body, just
    as their consecutive insertion seqs made them do.
    """
    cat = np.concatenate(launch_times)
    order = np.argsort(cat, kind="stable")
    sorted_t = (cat[order] + start).tolist()
    sorted_i = order.tolist()
    n = len(sorted_t)
    cursor = 0

    def fire() -> None:
        nonlocal cursor
        i = cursor
        t = sorted_t[i]
        launch(sorted_i[i])
        i += 1
        while i < n and sorted_t[i] == t:
            launch(sorted_i[i])
            i += 1
        cursor = i
        if i < n:
            sim.schedule_at(sorted_t[i], fire)

    sim.schedule_at(sorted_t[0], fire)


def pool_supported(grid, fleets) -> bool:
    """Whether the SoA pool reproduces the legacy path on this run.

    The pool bypasses the per-task object surface the optional
    subsystems hook into (middleware retry sagas, the resubmission
    agent's watch list, trace task ids, the chaos ledger), so it only
    engages when all of them are off — which is every fleet-scale
    benchmark configuration.  Anything else runs on the per-task
    TaskCore driver, which is also the pool's behavioural oracle.
    """
    if (
        grid._mw is not None
        or grid._agent is not None
        or grid._tr is not None
        or grid.task_ledger is not None
    ):
        return False
    return all(
        isinstance(
            f.strategy,
            (SingleResubmission, MultipleSubmission, DelayedResubmission),
        )
        for f in fleets
    )


class TaskPool:
    """One numpy record pool running every task of a population.

    Parameters
    ----------
    grid:
        The (warmed) grid to run against.
    fleets:
        The :class:`~repro.population.spec.FleetSpec` list; fleet ``f``
        owns pool indices ``offsets[f]:offsets[f+1]``.
    launch_times:
        Per-fleet launch instants relative to ``start`` (the arrays
        :meth:`PopulationSpec.launch_times` synthesises), walked by
        :func:`chain_launches` like the legacy driver's.
    start:
        Absolute instant the window opens (``grid.now`` at call time).
    on_all_done:
        Called once, the instant the pool's last task settles (the
        driver passes ``grid.sim.stop``; shard workers pass ``None``
        and poll :attr:`pending` at epoch boundaries instead).
    ops:
        Optional cancellation surface (``cancel``, ``cancel_many``).
        Defaults to the grid itself; shard workers pass an adapter that
        routes cancels of copies shipped to remote shards through the
        message fabric.
    """

    __slots__ = (
        "grid", "_sim", "fleets", "offsets", "n", "fid",
        "state", "t_start", "done_t", "done_seq", "jobs_used",
        "_live", "_cb", "_seq", "pending", "on_all_done",
        "_kind", "_t_inf", "_t0", "_b", "_runtime", "_vo",
        "_fleet_broker", "_rr_broker", "_via",
        "_cancel", "_cancel_many", "_rf", "_calm",
        "_pooled", "_wheel",
    )

    def __init__(
        self,
        grid,
        fleets,
        launch_times,
        *,
        start: float,
        on_all_done=None,
        ops=None,
    ) -> None:
        self.grid = grid
        sim = grid.sim
        self._sim = sim
        self.fleets = list(fleets)
        sizes = [int(t.size) for t in launch_times]
        offsets = np.zeros(len(sizes) + 1, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        self.offsets = offsets
        n = int(offsets[-1])
        self.n = n

        # -- per-fleet parameter tables (fleets are index ranges) --------
        self._kind: list[int] = []
        self._t_inf: list[float] = []
        self._t0: list[float] = []
        self._b: list[int] = []
        self._runtime: list[float] = []
        self._vo: list[str] = []
        self._via: list = []
        for f in self.fleets:
            s = f.strategy
            if isinstance(s, SingleResubmission):
                self._kind.append(_SINGLE)
                self._t0.append(0.0)
                self._b.append(1)
            elif isinstance(s, MultipleSubmission):
                self._kind.append(_MULTIPLE)
                self._t0.append(0.0)
                self._b.append(int(s.b))
            elif isinstance(s, DelayedResubmission):
                self._kind.append(_DELAYED)
                self._t0.append(float(s.t0))
                self._b.append(1)
            else:
                raise TypeError(
                    f"unsupported strategy type {type(s).__name__}"
                )
            self._t_inf.append(float(s.t_inf))
            self._runtime.append(float(f.runtime))
            self._vo.append(f.vo)
            self._via.append(f.broker)

        # -- SoA columns --------------------------------------------------
        # Hot columns are plain Python containers, not numpy arrays: the
        # launch/settle path does ~10 scalar element accesses per task,
        # and a numpy scalar read/write costs ~10x a list index (boxing
        # a fresh np.float64 each time).  fleet_results converts to
        # arrays once, at readout.
        self.state = bytearray(n)
        self.t_start = [0.0] * n
        self.done_t = [0.0] * n
        #: global completion counter per task — per-fleet results are
        #: read back in completion order, like the legacy sink appends
        self.done_seq = [0] * n
        self.jobs_used = [0] * n
        self.fid = np.repeat(
            np.arange(len(sizes), dtype=np.intp), sizes
        ).tolist()
        #: in-flight copies per task: a Job (single) or a list of Jobs
        self._live = [None] * n
        #: the reusable per-task start watcher (minted once, at launch)
        self._cb = [None] * n
        self._seq = 0
        self.pending = n
        self.on_all_done = on_all_done

        # -- grid surface -------------------------------------------------
        if ops is None:
            ops = grid
        self._cancel = ops.cancel
        self._cancel_many = ops.cancel_many
        # legacy timeouts always call grid.report_failed, which is a
        # no-op without a health machine — skip the call entirely then
        self._rf = grid.report_failed if grid._health is not None else None
        self._calm = not grid._faulty
        # fixed broker per fleet where resolution is stateless; None
        # means the round-robin default, resolved per submission like
        # the legacy path (grid.broker_for(None) mutates the cursor)
        brokers = grid.brokers
        fleet_broker = []
        for f in self.fleets:
            if f.broker is not None:
                fleet_broker.append(grid.broker_for(f.broker))
            elif len(brokers) == 1:
                fleet_broker.append(brokers[0])
            else:
                fleet_broker.append(None)
        self._fleet_broker = fleet_broker
        self._rr_broker = grid.broker_for

        # -- pool timer wheel --------------------------------------------
        #: batched engine: one kernel timer per boundary fires a whole
        #: index block; event engine: exact per-entry heap events, so
        #: the oracle corner keeps the historical timer stream
        self._pooled = grid._pooled_timers
        self._wheel: dict[float, list] = {}

        if n:
            chain_launches(sim, launch_times, start, self._launch)

    # -- launch ----------------------------------------------------------

    def _launch(self, i: int) -> None:
        f = self.fid[i]
        self.state[i] = _ACTIVE
        self.t_start[i] = self._sim._now
        cb = partial(self._start, i)
        self._cb[i] = cb
        k = self._kind[f]
        if k == _SINGLE:
            job = Job(runtime=self._runtime[f], tag="task", vo=self._vo[f])
            self.jobs_used[i] = 1
            self._live[i] = job
            self._submit1(f, job, cb)
            self._arm(self._t_inf[f], _EXP_SINGLE, i, None)
        elif k == _MULTIPLE:
            self._round_multiple(i, f)
        else:
            self._live[i] = []
            self._round_delayed(i, f)

    # -- strategy rounds -------------------------------------------------

    def _round_multiple(self, i: int, f: int) -> None:
        runtime = self._runtime[f]
        vo = self._vo[f]
        batch = [
            Job(runtime=runtime, tag="task", vo=vo)
            for _ in range(self._b[f])
        ]
        self.jobs_used[i] += len(batch)
        self._live[i] = batch
        self._submit_many(f, batch, self._cb[i])
        self._arm(self._t_inf[f], _EXP_MULTIPLE, i, None)

    def _round_delayed(self, i: int, f: int) -> None:
        job = Job(runtime=self._runtime[f], tag="task", vo=self._vo[f])
        self.jobs_used[i] += 1
        self._live[i].append(job)
        self._submit1(f, job, self._cb[i])
        self._arm(self._t_inf[f], _EXP_DCANCEL, i, job)
        self._arm(self._t0[f], _EXP_DSUBMIT, i, None)

    # -- submission fast path --------------------------------------------

    def _submit1(self, f: int, job: Job, cb) -> None:
        grid = self.grid
        if not self._calm:
            grid.submit(job, cb, via=self._via[f])
            return
        # inlined calm-grid tail of GridSimulator.submit: no middleware,
        # no tracing, no fault channels (gated by pool_supported/_calm)
        broker = self._fleet_broker[f]
        if broker is None:
            broker = self._rr_broker(None)
        job.submit_time = self._sim._now
        grid.jobs_submitted += 1
        job.on_start = cb
        broker.submit(job)

    def _submit_many(self, f: int, jobs: list, cb) -> None:
        grid = self.grid
        if not self._calm:
            grid.submit_many(jobs, cb, via=self._via[f])
            return
        now = self._sim._now
        for job in jobs:
            job.submit_time = now
            job.on_start = cb
        grid.jobs_submitted += len(jobs)
        broker = self._fleet_broker[f]
        if broker is None:
            # legacy submit_many advances the round-robin once per burst
            broker = self._rr_broker(None)
        broker.submit_many(jobs)

    # -- timeout wheel ----------------------------------------------------

    def _arm(self, delay: float, code: int, i: int, payload) -> None:
        if self._pooled:
            sim = self._sim
            boundary = sim.pooled_boundary(delay)
            block = self._wheel.get(boundary)
            if block is None:
                self._wheel[boundary] = block = []
                sim.schedule_pooled(
                    delay, partial(self._expire_block, boundary)
                )
            block.append((code, i, payload))
        else:
            self._sim.schedule(
                delay, partial(self._expire_one, code, i, payload)
            )

    def _expire_block(self, boundary: float) -> None:
        entries = self._wheel.pop(boundary)
        state = self.state
        expire = self._expire
        for code, i, payload in entries:
            # settled tasks just leave dead entries behind — skipping
            # them here replaces 10⁵ individual timer cancellations
            if state[i] == _ACTIVE:
                expire(code, i, payload)

    def _expire_one(self, code: int, i: int, payload) -> None:
        if self.state[i] == _ACTIVE:
            self._expire(code, i, payload)

    def _expire(self, code: int, i: int, payload) -> None:
        f = self.fid[i]
        rf = self._rf
        if code == _EXP_SINGLE:
            job = self._live[i]
            if rf is not None:
                rf([job])
            self._cancel(job)
            job = Job(runtime=self._runtime[f], tag="task", vo=self._vo[f])
            self.jobs_used[i] += 1
            self._live[i] = job
            self._submit1(f, job, self._cb[i])
            self._arm(self._t_inf[f], _EXP_SINGLE, i, None)
        elif code == _EXP_MULTIPLE:
            batch = self._live[i]
            if rf is not None:
                rf(batch)
            self._cancel_many(batch)
            self._round_multiple(i, f)
        elif code == _EXP_DCANCEL:
            if rf is not None:
                rf([payload])
            self._cancel(payload)
            # unlike TaskCore.active_jobs, the live list stays tight:
            # cancelled copies leave it (grid.cancel_many skips them
            # anyway, so the settle-time batch is identical)
            try:
                self._live[i].remove(payload)
            except ValueError:
                pass
        else:  # _EXP_DSUBMIT
            self._round_delayed(i, f)

    # -- settle ----------------------------------------------------------

    def _start(self, i: int, winner: Job) -> None:
        if self.state[i] != _ACTIVE:
            # a sibling copy started in the same instant: kill the extra
            self._cancel(winner)
            return
        self.settle(i, winner, self._sim._now)

    def settle(self, i: int, winner: Job, t_done: float) -> None:
        """Mark task ``i`` done at ``t_done``; cancel every other copy.

        ``winner`` is the copy that started (for sharded runs, the local
        stub of a copy that started on a remote shard, with ``t_done``
        the remote start instant).
        """
        self.state[i] = _DONE
        live = self._live[i]
        self._live[i] = None
        self._cb[i] = None
        if live is not winner:
            if type(live) is list:
                others = [j for j in live if j is not winner]
                if others:
                    self._cancel_many(others)
            elif live is not None:
                self._cancel(live)
        self.done_t[i] = t_done
        self.done_seq[i] = self._seq
        self._seq += 1
        self.pending -= 1
        if self.pending == 0 and self.on_all_done is not None:
            self.on_all_done()

    # -- results ----------------------------------------------------------

    def check_conservation(self, jobs_submitted: int) -> None:
        """Raise ``RuntimeError`` unless every task and job is accounted for.

        One pass over the ``state`` bytes and one sum over ``jobs_used``:
        the non-settled count must equal :attr:`pending`, settled plus
        unsettled (pending or active) tasks must equal :attr:`n`, and the
        jobs the tasks minted must equal ``jobs_submitted``, the run's
        increase in the grid's submission counter.
        """
        counts = np.bincount(
            np.frombuffer(self.state, dtype=np.uint8), minlength=3
        )
        settled = int(counts[_DONE])
        unsettled = int(counts[_PENDING] + counts[_ACTIVE])
        if self.n - settled != self.pending:
            raise RuntimeError(
                f"task conservation: {self.n - settled} tasks not settled "
                f"but pending={self.pending}"
            )
        if settled + unsettled != self.n:
            raise RuntimeError(
                f"task conservation: {settled} settled + {unsettled} "
                f"unsettled tasks != n={self.n}"
            )
        used = sum(self.jobs_used)
        if used != jobs_submitted:
            raise RuntimeError(
                f"job conservation: tasks used {used} jobs but the grid "
                f"counted {jobs_submitted} submissions"
            )

    def fleet_results(self, f: int) -> tuple[np.ndarray, np.ndarray]:
        """``(j, jobs_used)`` of fleet ``f``'s finished tasks.

        Ordered by completion instant (the ``done_seq`` counter), which
        is exactly the order the legacy driver's per-fleet sink appended
        in — so the arrays compare bit-for-bit against the oracle.
        """
        sl = slice(int(self.offsets[f]), int(self.offsets[f + 1]))
        state = np.frombuffer(self.state, dtype=np.uint8)[sl]
        done = np.nonzero(state == _DONE)[0]
        seq = np.asarray(self.done_seq[sl], dtype=np.int64)
        done = done[np.argsort(seq[done], kind="stable")]
        j = (
            np.asarray(self.done_t[sl], dtype=np.float64)[done]
            - np.asarray(self.t_start[sl], dtype=np.float64)[done]
        )
        jobs = np.asarray(self.jobs_used[sl], dtype=np.int64)[done]
        return j, jobs
