"""Struct-of-arrays population runtime: fleets as index ranges, no objects.

The legacy population driver allocates one :class:`~repro.gridsim.client.TaskCore`
per task — at 10⁵ tasks that is 10⁵ slotted objects, 10⁵ bound-method
watchers, and a few 10⁵ pooled timers armed and cancelled one at a time.
:class:`TaskPool` replaces all of it with one record pool: task state,
finish instants, completion order and jobs-used live in flat columns
(launch instants are the launch schedule itself, read back at readout),
fleets are contiguous index ranges, the per-task start
watcher is one reusable ``partial``, and timeout expiry is batched
through a pool-owned wheel that arms **one** kernel timer per bucket
boundary and walks its due index block at fire time (dead entries are
skipped by a state check instead of being cancelled individually).

Tasks run rounds of their strategy's
:func:`~repro.core.strategies.round_shape` ``(b, t0, t∞)`` through two
wheel opcodes (``_EXP_CANCEL`` at ``t∞``, ``_EXP_SUBMIT`` at ``t0``);
shapes with ``b == 1`` and ``t0 == t∞`` take the one-copy lane (a bare
Job, ``broker.submit``, ``_EXP_SINGLE``), which most fleet tasks use.

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

from array import array
from functools import partial

import numpy as np

from repro.core.strategies import round_shape
from repro.gridsim.jobs import Job

__all__ = ["TaskPool", "chain_launches", "pool_supported"]

#: task lifecycle states (the ``state`` column)
_PENDING, _ACTIVE, _DONE = 0, 1, 2

#: wheel entry codes — what an expired slot means for its task
_EXP_SINGLE = 0  # one-copy lane t_inf: cancel the copy + resubmit one
_EXP_CANCEL = 1  # a round's t_inf: cancel its copies (+ next round if t0 == t_inf)
_EXP_SUBMIT = 2  # a round's t0 (t0 < t_inf): start the next round


def chain_launches(sim, launch_times, start: float, launch) -> None:
    """Call ``launch(i)`` at ``start`` + the launch time of every task ``i``.

    Tasks are numbered fleet-major across ``launch_times`` (one array
    per fleet, at least one task in all).  One walker event runs the
    merged schedule instead of preloading one heap entry per task, and
    while :meth:`~repro.gridsim.events.Simulator.claim` says no queued
    event could run first it takes the next instant inline; otherwise
    it re-chains with one ``schedule_at``.  The fleet-major stable sort
    reproduces the preloaded order exactly: equal launch instants fire
    back to back in one walker step, as their consecutive insertion
    seqs made them do, and each distinct instant counts one event.
    """
    cat = np.concatenate(launch_times)
    order = np.argsort(cat, kind="stable")
    # typed buffers, not lists: 8 B an entry instead of ~40 for a
    # boxed float or int, and every read still yields a plain scalar
    sorted_t = array("d", (cat[order] + start).tobytes())
    sorted_i = array("q", order.astype(np.int64, copy=False).tobytes())
    n = len(sorted_t)
    cursor = 0

    def fire() -> None:
        nonlocal cursor
        i = cursor
        t = sorted_t[i]
        while True:
            launch(sorted_i[i])
            i += 1
            if i == n:
                break
            # one read per instant: each array read boxes a fresh float
            next_t = sorted_t[i]
            if next_t != t:
                if not sim.claim(next_t):
                    break
                t = next_t
        cursor = i
        if i < n:
            sim.schedule_at(sorted_t[i], fire)

    sim.schedule_at(sorted_t[0], fire)


def pool_supported(grid) -> bool:
    """Whether the SoA pool reproduces the TaskCore path on this grid.

    The pool bypasses the per-task object surface the optional
    subsystems hook into (middleware retry sagas, the resubmission
    agent's watch list, trace task ids, the chaos ledger), so it only
    engages when all of them are off — which is every fleet-scale
    benchmark configuration.  Anything else runs on the per-task
    TaskCore driver, which is also the pool's behavioural oracle.  Any
    fleet runs: a ``FleetSpec`` strategy always has a round shape.
    """
    return (
        grid._mw is None
        and grid._agent is None
        and grid._tr is None
        and grid.task_ledger is None
    )


class TaskPool:
    """One record pool running every task of a population.

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
        :func:`chain_launches` like the legacy driver's.  The pool keeps
        them, unchanged and uncopied, as its launch column: task ``i``
        launches at exactly ``start + launch_times[f][i - offsets[f]]``,
        the instant the walker sets the clock to.
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
        "state", "_launch_times", "_t_open", "done_t", "done_seq",
        "jobs_used",
        "_live", "_cb", "_seq", "pending", "on_all_done",
        "_one", "_t_inf", "_t0", "_b", "_runtime", "_vo",
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
        #: round shapes; ``_one`` marks those on the one-copy lane
        self._b: list[int] = []
        self._t0: list[float] = []
        self._t_inf: list[float] = []
        self._one: list[bool] = []
        self._runtime: list[float] = []
        self._vo: list[str] = []
        self._via: list = []
        for f in self.fleets:
            b, t0, t_inf = round_shape(f.strategy)
            self._b.append(b)
            self._t0.append(t0)
            self._t_inf.append(t_inf)
            self._one.append(b == 1 and t0 == t_inf)
            self._runtime.append(float(f.runtime))
            self._vo.append(f.vo)
            self._via.append(f.broker)

        # -- SoA columns --------------------------------------------------
        # Hot columns are Python containers, not numpy arrays: the
        # launch/settle path does ~10 scalar element accesses per task,
        # and a numpy element access costs several list indexes (it
        # boxes a fresh np.float64 each time).  Per-task numbers sit in
        # array.array buffers: 8 B a task where a list slot plus its
        # boxed float or large int costs ~32-40 B, and a read still
        # yields a plain Python scalar.  jobs_used and fid stay lists:
        # their values are cached small ints, so a slot costs 8 B either
        # way and a list index reads faster.  The launch instant needs no
        # column: it is start + launch_times, recomputed at readout.
        self.state = bytearray(n)
        self._launch_times = list(launch_times)
        self._t_open = start
        self.done_t = array("d", [0.0]) * n
        #: global completion counter per task — per-fleet results are
        #: read back in completion order, like the legacy sink appends
        self.done_seq = array("q", [0]) * n
        self.jobs_used = [0] * n
        self.fid = np.repeat(
            np.arange(len(sizes), dtype=np.intp), sizes
        ).tolist()
        #: in-flight copies per task: a Job (one-copy lane) or a list of
        #: Jobs, oldest round first
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
        cb = partial(self._start, i)
        self._cb[i] = cb
        if self._one[f]:
            # the one-copy lane: a bare Job and one broker.submit per
            # round, no list — most fleet-scale tasks take it
            job = Job(runtime=self._runtime[f], tag="task", vo=self._vo[f])
            self.jobs_used[i] = 1
            self._live[i] = job
            self._submit1(f, job, cb)
            self._arm(self._t_inf[f], _EXP_SINGLE, i)
        else:
            self._round(i, f)

    # -- rounds ----------------------------------------------------------

    def _round(self, i: int, f: int) -> None:
        """Submit one round of ``b`` copies and arm its timers."""
        runtime = self._runtime[f]
        vo = self._vo[f]
        batch = [
            Job(runtime=runtime, tag="task", vo=vo)
            for _ in range(self._b[f])
        ]
        self.jobs_used[i] += len(batch)
        live = self._live[i]
        if live:
            live += batch
        else:
            self._live[i] = batch
        self._submit_many(f, batch, self._cb[i])
        t_inf = self._t_inf[f]
        self._arm(t_inf, _EXP_CANCEL, i)
        t0 = self._t0[f]
        if t0 != t_inf:
            self._arm(t0, _EXP_SUBMIT, i)

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

    def _arm(self, delay: float, code: int, i: int) -> None:
        if self._pooled:
            sim = self._sim
            boundary = sim.pooled_boundary(delay)
            block = self._wheel.get(boundary)
            if block is None:
                self._wheel[boundary] = block = []
                sim.schedule_pooled(
                    delay, partial(self._expire_block, boundary)
                )
            block.append((code, i))
        else:
            self._sim.schedule(
                delay, partial(self._expire_one, code, i)
            )

    def _expire_block(self, boundary: float) -> None:
        entries = self._wheel.pop(boundary)
        state = self.state
        expire = self._expire
        for code, i in entries:
            # settled tasks just leave dead entries behind — skipping
            # them here replaces 10⁵ individual timer cancellations
            if state[i] == _ACTIVE:
                expire(code, i)

    def _expire_one(self, code: int, i: int) -> None:
        if self.state[i] == _ACTIVE:
            self._expire(code, i)

    def _expire(self, code: int, i: int) -> None:
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
            self._arm(self._t_inf[f], _EXP_SINGLE, i)
        elif code == _EXP_CANCEL:
            # rounds expire in submit order, so this round is the
            # oldest b live copies; they leave the list (grid cancel_many
            # would skip them at settle anyway)
            live = self._live[i]
            b = self._b[f]
            batch = live[:b]
            if rf is not None:
                rf(batch)
            self._cancel_many(batch)
            del live[:b]
            if self._t0[f] == self._t_inf[f]:
                self._round(i, f)
        else:  # _EXP_SUBMIT
            self._round(i, f)

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
        seq = np.frombuffer(self.done_seq, dtype=np.int64)[sl]
        done = done[np.argsort(seq[done], kind="stable")]
        # fancy indexing copies, so the results share no memory with the
        # pool's columns (a later settle cannot rewrite them)
        j = (
            np.frombuffer(self.done_t, dtype=np.float64)[sl][done]
            - (self._launch_times[f][done] + self._t_open)
        )
        jobs = np.asarray(self.jobs_used[sl], dtype=np.int64)[done]
        return j, jobs
