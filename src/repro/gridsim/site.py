"""Computing elements: batch queue + worker cores of one grid site.

Every site engine takes background load the same way: load generators
hand over chunks of arrivals through ``feed_background(times, runtimes,
vos=None)``.

* :class:`VectorComputingElement` — the VO-independent base of the one
  production engine,
  :class:`~repro.gridsim.fairshare.FairShareVectorComputingElement`,
  which grids build for every site (with one VO where the site declares
  fewer than two).  Client-visible jobs (probes, strategy copies,
  cancellations) keep the exact event-kernel semantics, while anonymous
  background jobs never become events: a Lindley-style recurrence over
  the per-core free-time heap (``start = max(arrival, min free)``,
  ``free <- start + runtime``) commits them in blocks, advanced lazily
  to the current sim time and reconciled at every client interaction
  point.
* :class:`ComputingElement` — the original event-driven FIFO, kept as
  the law oracle outside production grids.  Every job (client *and*
  background) is a :class:`Job` whose start and completion are heap
  events; ``feed_background`` schedules one arrival event per background
  job, which builds that job when it fires.  The equivalence suites
  (``tests/test_site_engine_equivalence.py``) build grids on it and
  replay identical workloads through both engines to compare traces.

Both support in-queue cancellation (strategy timeouts) and mid-run kills
(burst copies whose sibling started first), plus the outage hooks
:meth:`begin_outage` / :meth:`end_outage` used by the storm process of
:mod:`repro.gridsim.weather` and the *black-hole* hooks
:meth:`begin_black_hole` / :meth:`end_black_hole` used by
:mod:`repro.gridsim.weather`: a black-holed CE keeps accepting jobs and
instantly "completes" them as failures (``JobState.FAILED``), so its
queue-length estimate stays at zero and the information system keeps
ranking it best — the classic traffic-eating attractor.  On the vector
engine the state flip reconciles the background lane first (same
pattern as ``begin_outage``) and then consumes arrivals without
occupying cores for as long as the hole is active.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import repeat
from typing import Callable

import numpy as np

from repro.gridsim.events import Event, Simulator
from repro.gridsim.jobs import Job, JobState

__all__ = ["ComputingElement", "VectorComputingElement"]


class ComputingElement:
    """A site's gateway: FIFO batch queue feeding ``n_cores`` workers.

    EGEE sites run heterogeneous batch systems behind a common interface
    (§3.1); a FIFO queue with a fixed core pool captures the queueing
    behaviour that dominates probe latency.  Cancellation is supported
    both in-queue (strategy timeouts) and mid-run (burst copies whose
    sibling started first).

    This is the fully event-driven engine — every job pays heap events
    for arrival, start and completion.  Grids run the vector engine
    (:class:`~repro.gridsim.fairshare.FairShareVectorComputingElement`);
    this class remains the oracle its one-VO lane is verified against.
    """

    #: while True the CE accepts and instantly "completes" every job as
    #: a failure (grid-weather black hole); class attribute so that
    #: unconfigured grids never pay an instance slot for it
    black_hole = False
    #: failure watcher (health service): called with each non-background
    #: job the site fails
    on_fail: Callable[[Job], None] | None = None
    #: match-making penalty published to health-aware brokers
    #: (1.0 ok, >1 degraded, inf banned)
    health_penalty = 1.0
    #: VO names by site VO index, the labels ``feed_background`` takes;
    #: the plain FIFO has one unnamed VO
    vo_names: tuple[str, ...] = ("",)

    def __init__(
        self,
        name: str,
        n_cores: int,
        sim: Simulator,
        *,
        on_start: Callable[[Job], None] | None = None,
    ) -> None:
        if n_cores < 1:
            raise ValueError(f"n_cores must be >= 1, got {n_cores}")
        self.name = name
        self.n_cores = int(n_cores)
        self.sim = sim
        self.free_cores = int(n_cores)
        self.queue: deque[Job] = deque()
        #: cancelled jobs still sitting in ``queue`` (lazy removal —
        #: popped and skipped by ``_try_start``, so cancellation is O(1)
        #: instead of an O(n) scan of the deque)
        self._queue_husks = 0
        self.on_start = on_start
        #: jobs currently executing, in start order (a dict used as an
        #: ordered set); each carries its completion :class:`Event` in
        #: ``job.completion_event``
        self.running_jobs: dict[Job, None] = {}
        #: gate used by outage processes: while False, queued jobs do not
        #: start even if cores are free
        self.dispatch_enabled = True
        #: cumulative counters for utilisation diagnostics
        self.jobs_started = 0
        self.jobs_completed = 0
        #: running jobs killed by outages / black-hole flips
        self.jobs_killed = 0
        #: jobs failed on arrival (or drained) by a black hole
        self.jobs_failed_bh = 0
        #: background arrivals whose event has fired
        self._bg_delivered = 0

    # -- background lane ---------------------------------------------------

    def feed_background(
        self,
        times: list[float],
        runtimes: list[float],
        vos: list[int] | None = None,
    ) -> None:
        """Schedule a chunk of background arrivals, one event each.

        The chunk's events share one callback holding its runtimes (and
        VO labels, site VO indices) in deques; the events fire in time
        order, FIFO among ties, so each pops its own entries, and chunks
        from two generators feeding one site never trade runtimes.
        """
        labels = None if vos is None else deque(vos)
        arrive = partial(self._arrive, deque(runtimes), labels)
        self.sim.schedule_many(times, repeat(arrive))

    def background_delivered(self) -> int:
        """Background arrivals whose arrival event has fired."""
        return self._bg_delivered

    def _arrive(self, runtimes: deque[float], vos: deque[int] | None) -> None:
        """Build and enqueue one background arrival of a fed chunk."""
        job = Job(runtime=runtimes.popleft(), tag="background")
        if vos is not None:
            job.vo = self.vo_names[vos.popleft()]
        job.submit_time = self.sim._now
        self.enqueue(job)
        self._bg_delivered += 1

    # -- queue operations ------------------------------------------------

    def enqueue(self, job: Job) -> None:
        """Accept a dispatched job into the batch queue."""
        if job.state not in (JobState.MATCHING, JobState.CREATED):
            raise ValueError(f"cannot enqueue job in state {job.state}")
        if self.black_hole:
            self._fail_now(job)
            return
        job.state = JobState.QUEUED
        job.site = self.name
        job.queue_time = self.sim._now
        self.queue.append(job)
        if self.free_cores > 0 and self.dispatch_enabled:
            self._try_start()

    def enqueue_many(self, jobs: list[Job]) -> int:
        """Accept a batch of dispatched jobs; returns how many enqueued.

        The whole batch enters the queue before any start fires (one
        dispatch pass at the end instead of one per job), so a start
        callback that cancels a sibling later in the same batch finds it
        already queued and leaves a husk — bit-identical to what the
        vectorised engine's batch path produces.  Jobs no longer in a
        dispatchable state on entry are skipped.
        """
        if self.black_hole:
            return self._fail_batch(jobs)
        n = 0
        now = self.sim._now
        for job in jobs:
            if job.state not in (JobState.MATCHING, JobState.CREATED):
                continue
            job.state = JobState.QUEUED
            job.site = self.name
            job.queue_time = now
            self.queue.append(job)
            n += 1
        if n and self.free_cores > 0 and self.dispatch_enabled:
            self._try_start()
        return n

    def cancel(self, job: Job) -> bool:
        """Cancel a queued or running job; returns ``True`` if it acted.

        Queued jobs are removed from the queue; running jobs are killed
        and their core released (EGEE's ``glite-wms-job-cancel``
        semantics).  Jobs already completed are left untouched.  A
        one-item batch of *this* class's :meth:`cancel_many`, named
        explicitly: the fair-share subclass loops ``cancel`` in its own
        ``cancel_many`` and ends its ``cancel`` here.
        """
        return ComputingElement.cancel_many(self, [job]) > 0

    def cancel_many(self, jobs: list[Job]) -> int:
        """Cancel a batch of sibling jobs at this site; returns the count.

        Two-phase semantics, identical on both engines so their client
        traces stay comparable: all queued jobs become husks *first*,
        then running jobs are killed, and only then does a single
        dispatch pass hand the freed cores out — so a core freed by one
        sibling can never briefly start another sibling that the same
        batch was about to cancel (which the per-job :meth:`cancel` loop
        allowed).
        """
        n = 0
        freed = False
        for job in jobs:
            if job.state is JobState.QUEUED and job.site == self.name:
                job.state = JobState.CANCELLED
                self._queue_husks += 1
                n += 1
        for job in jobs:
            if job.state is JobState.RUNNING:
                ev = job.completion_event
                if ev is not None:
                    ev.cancel()
                    job.completion_event = None
                self.running_jobs.pop(job, None)
                job.state = JobState.CANCELLED
                job.end_time = self.sim.now
                self.free_cores += 1
                freed = True
                n += 1
        if freed and self.dispatch_enabled:
            self._try_start()
        return n

    # -- outage hooks ------------------------------------------------------

    def begin_outage(self, rng: np.random.Generator, kill_running: float) -> None:
        """Close the dispatch gate and kill running jobs w.p. ``kill_running``."""
        # close the gate first, then kill (unscheduled outage semantics);
        # freed cores stay idle until recovery because the gate is closed
        self.dispatch_enabled = False
        for job in list(self.running_jobs):
            if rng.random() < kill_running:
                self.cancel(job)
                self.jobs_killed += 1

    def end_outage(self) -> None:
        """Reopen the dispatch gate and drain the queue."""
        self.dispatch_enabled = True
        self._try_start()

    # -- black-hole hooks --------------------------------------------------

    def begin_black_hole(self) -> None:
        """Flip into the attractor state: fail queued work, kill running.

        From this instant the CE "completes" every accepted job as an
        instant :data:`JobState.FAILED`, keeping its queue empty and all
        cores free — so its published wait estimate is the best on the
        grid and the information system keeps feeding it traffic.
        Idempotent.
        """
        if self.black_hole:
            return
        self.black_hole = True
        now = self.sim._now
        on_fail = self.on_fail
        for job in self.queue:
            if job.state is not JobState.QUEUED:
                continue
            job.state = JobState.FAILED
            job.end_time = now
            self.jobs_failed_bh += 1
            if on_fail is not None and job.tag != "background":
                on_fail(job)
        self.queue.clear()
        self._queue_husks = 0
        for job in self.running_jobs:
            ev = job.completion_event
            if ev is not None:
                ev.cancel()
                job.completion_event = None
            job.state = JobState.FAILED
            job.end_time = now
            self.free_cores += 1
            self.jobs_killed += 1
        self.running_jobs.clear()

    def end_black_hole(self) -> None:
        """Resume normal operation (queue and cores are already empty)."""
        if not self.black_hole:
            return
        self.black_hole = False
        if self.dispatch_enabled:
            self._try_start()

    def _fail_now(self, job: Job) -> None:
        """Instantly fail an arriving job (black-hole intercept)."""
        now = self.sim._now
        job.state = JobState.FAILED
        job.site = self.name
        job.queue_time = now
        job.end_time = now
        self.jobs_failed_bh += 1
        if self.on_fail is not None and job.tag != "background":
            self.on_fail(job)

    def _fail_batch(self, jobs: list[Job]) -> int:
        """Black-hole path of ``enqueue_many``: every job fails on arrival.

        Returns the count so WMS dispatch accounting still sees them as
        accepted — exactly how the real attractor keeps drawing traffic.
        """
        n = 0
        for job in jobs:
            if job.state not in (JobState.MATCHING, JobState.CREATED):
                continue
            self._fail_now(job)
            n += 1
        return n

    # -- internals ---------------------------------------------------------

    def _try_start(self) -> None:
        if not self.dispatch_enabled:
            return
        while self.free_cores > 0 and self.queue:
            job = self.queue.popleft()
            if job.state is not JobState.QUEUED:
                self._queue_husks -= 1
                continue
            self.free_cores -= 1
            job.state = JobState.RUNNING
            job.start_time = self.sim._now
            self.jobs_started += 1
            # partial (not a lambda): completion events must survive the
            # snapshot deep copy, and closures copy as shared refs
            job.completion_event = self.sim.schedule(
                job.runtime, partial(self._complete, job)
            )
            self.running_jobs[job] = None
            # background jobs never have start watchers; skipping the
            # notification call for them halves the per-start overhead
            # on saturated grids
            if self.on_start is not None and job.tag != "background":
                self.on_start(job)

    def _complete(self, job: Job) -> None:
        job.completion_event = None
        self.running_jobs.pop(job, None)
        if job.state is not JobState.RUNNING:
            return  # killed in the meantime
        job.state = JobState.COMPLETED
        job.end_time = self.sim._now
        self.jobs_completed += 1
        self.free_cores += 1
        if self.queue and self.dispatch_enabled:
            self._try_start()

    # -- telemetry ---------------------------------------------------------

    @property
    def queue_length(self) -> int:
        """Jobs waiting (not running)."""
        return len(self.queue) - self._queue_husks

    @property
    def busy_cores(self) -> int:
        """Cores currently executing jobs."""
        return self.n_cores - self.free_cores

    def estimated_wait(self, mean_runtime_guess: float) -> float:
        """Crude queue-wait estimate the information system publishes.

        ``queue_length · mean_runtime / cores`` — deliberately naive, as
        real grid information systems publish coarse summaries.
        """
        return self.queue_length * mean_runtime_guess / self.n_cores

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CE({self.name}, cores={self.busy_cores}/{self.n_cores}, "
            f"queued={self.queue_length})"
        )


class VectorComputingElement:
    """VO-independent base of the production vector site engine.

    Grids build every site as
    :class:`~repro.gridsim.fairshare.FairShareVectorComputingElement`; a
    site declaring fewer than two VOs runs it with one VO.  This base
    holds the part of that engine no VO touches:

    * the per-core free-time min-heap the commit recurrence writes
      (``start = max(arrival, min free, dispatch floor)``, then
      ``free <- start + runtime``), committed **lazily** up to the
      current sim time at the reconciliation points — client
      enqueue/cancel, outage toggles, telemetry reads and chunk refills;
    * running client jobs: ``on_start`` at the exact start instant,
      event-free completions, mid-run kills and the core release a kill
      needs;
    * the outage gate with its dispatch floor, and the black-hole kill
      of everything running;
    * the one wake rule and the core-count telemetry.

    The subclass owns the queues: it takes background chunks through
    :meth:`feed_background` and client jobs through ``enqueue`` /
    ``enqueue_many``, and supplies the walk ``_commit_block(t)``, the
    black-hole drain ``_drain_hole(t)`` and ``queue_length``.

    The one scheduling device is the *wake*, and one rule places it
    (:meth:`_ensure_wake`): while a live client waits and the dispatch
    gate is open, the site's single wake event sits at ``max(now,
    _next_due)``; otherwise none is armed.  ``_next_due`` is the
    next-commit instant every walk memoises, and every mutation that
    could bring a commit forward lowers it, so it is a lower bound on
    the waiting client's start: a wake there is never late.  It fires,
    walks (committing whatever is due, the client included once its
    instant comes) and re-arms at the new memo.  Start instants are
    decided by the commit recurrence alone, so client traces are
    bit-identical to the event-driven oracle wherever no
    same-timestamp tie is involved.
    """

    #: grid-weather hooks, mirrored from :class:`ComputingElement`
    black_hole = False
    on_fail: Callable[[Job], None] | None = None
    health_penalty = 1.0

    def __init__(
        self,
        name: str,
        n_cores: int,
        sim: Simulator,
        *,
        on_start: Callable[[Job], None] | None = None,
    ) -> None:
        if n_cores < 1:
            raise ValueError(f"n_cores must be >= 1, got {n_cores}")
        self.name = name
        self.n_cores = int(n_cores)
        self.sim = sim
        self.on_start = on_start
        #: min-heap of absolute times at which each core finishes its
        #: committed work; values <= now mean the core is idle
        self._core_free: list[float] = [0.0] * int(n_cores)
        #: queued (live) client jobs — the wake rule's "a client waits"
        self._live_clients = 0
        #: the site's single wake event (see :meth:`_ensure_wake`)
        self._wake: Event | None = None
        #: min-heap of ``(end, start no., job)`` for running client jobs —
        #: completions are pure bookkeeping (the core release is already
        #: encoded in the free-time heap at commit), so instead of one
        #: kernel event per client job they drain lazily: at the top of
        #: every ``_advance``, before cancellations, and via the kernel
        #: reconciler when a run loop returns.  Entries for killed jobs
        #: stay as husks and are skipped on drain.
        self._client_ends: list[tuple[float, int, Job]] = []
        sim.add_reconciler(self._drain_completions)
        #: running client jobs in start order (a dict used as an ordered set)
        self.running_jobs: dict[Job, None] = {}
        self.dispatch_enabled = True
        #: no start may be committed before this instant — raised to the
        #: recovery time when an outage gate reopens, because work that
        #: "would have" started during the downtime actually starts the
        #: moment dispatch resumes
        self._dispatch_floor = 0.0
        self._started = 0
        self._killed = 0
        #: running jobs killed by outages / black-hole flips
        self.jobs_killed = 0
        #: jobs failed on arrival (or drained) by a black hole
        self.jobs_failed_bh = 0
        #: earliest instant the next commit can happen — ``_advance``
        #: returns immediately while ``now`` is before it, and the wake
        #: sits on it.  Computed at the end of every walk; any mutation
        #: that could create an *earlier* start (client arrival, core
        #: release, gate reopen, new background chunk) lowers it, or
        #: resets it to 0 to force a walk.
        self._next_due = 0.0

    def __setstate__(self, state: dict) -> None:
        # one setattr per attribute, not pickle's default update of
        # ``__dict__``: that materialises the instance dict, and on
        # CPython 3.11 a site restored from a warmed snapshot then read
        # its attributes at about half the speed of a fresh one
        for name, value in state.items():
            setattr(self, name, value)

    # -- intake contract ---------------------------------------------------

    def feed_background(
        self,
        times: list[float],
        runtimes: list[float],
        vos: list[int] | None = None,
    ) -> None:
        """Take a chunk of background arrivals; the intake of every load.

        ``times`` are sorted and all in the future, ``runtimes`` match
        them one for one and ``vos`` labels each arrival with a site VO
        index (``None``: all VO 0).  Load generators call this once per
        refill; the engine commits the chunk lazily, with no event and
        no :class:`Job` per arrival.  Implemented by the engine that
        owns the queues.
        """
        raise NotImplementedError

    # -- running client jobs -----------------------------------------------

    def cancel(self, job: Job) -> bool:
        """Cancel one client job; returns ``True`` if it acted."""
        acted = self._cancel(job)
        if acted:
            self._ensure_wake()
        return acted

    def _cancel(self, job: Job) -> bool:
        """Kill a running client job, leaving the wake to the caller.

        EGEE's ``glite-wms-job-cancel`` on a started job: the job ends
        ``CANCELLED`` now and its core is free for earlier work.  Queued
        jobs belong to the subclass, whose ``_cancel`` husks them and
        hands every other job on to this one.  A completion due by now
        settles first, so a job that has already finished is left alone.
        Returns ``True`` if it acted.
        """
        now = self.sim._now
        ends = self._client_ends
        if ends and ends[0][0] <= now:
            self._drain_completions()  # due completions beat the cancel
        if job.state is not JobState.RUNNING:
            return False
        self.running_jobs.pop(job, None)
        job.state = JobState.CANCELLED
        job.end_time = now
        self._release_core(job.start_time + job.runtime, now)
        self._killed += 1
        self._next_due = 0.0  # the freed core may start earlier work
        self._advance()
        return True

    # -- outage hooks ------------------------------------------------------

    def begin_outage(self, rng: np.random.Generator, kill_running: float) -> None:
        """Close the dispatch gate and kill running jobs w.p. ``kill_running``.

        The oracle draws one uniform per running job in start order; here
        client jobs draw first (insertion order), then the anonymous
        background cores — same draw count, i.i.d., law-identical.
        """
        self._advance()
        killed0 = self._killed
        self.dispatch_enabled = False
        self._ensure_wake()  # the closed gate disarms it
        for job in list(self.running_jobs):
            if rng.random() < kill_running:
                self.cancel(job)
        now = self.sim._now
        # surviving client ends, to tell client cores from background cores
        client_ends = sorted(j.start_time + j.runtime for j in self.running_jobs)
        cf = self._core_free
        changed = False
        for k, v in enumerate(cf):
            if v <= now:
                continue
            pos = bisect_left(client_ends, v)
            if pos < len(client_ends) and client_ends[pos] == v:
                client_ends.pop(pos)
                continue
            if rng.random() < kill_running:
                cf[k] = now
                self._killed += 1
                changed = True
        if changed:
            heapify(cf)
        self.jobs_killed += self._killed - killed0

    def end_outage(self) -> None:
        """Reopen the dispatch gate and drain whatever can start now."""
        self.dispatch_enabled = True
        self._dispatch_floor = self.sim._now
        self._next_due = 0.0  # downtime arrivals start the moment we reopen
        self._advance()  # the walk re-arms the wake

    # -- black-hole hooks --------------------------------------------------

    def begin_black_hole(self) -> None:
        """Flip into the attractor state (see the oracle's docstring).

        The subclass fails its queued clients first and ends here, which
        reconciles the lanes, consumes arrived-but-unstarted background
        entries as failures (``_drain_hole``) and kills everything
        running, freeing all cores to *now* — so the published wait
        estimate collapses to zero.  Idempotent.
        """
        if self.black_hole:
            return
        self._advance()
        self.black_hole = True
        # every waiting client has failed: no client waits, no wake
        self._live_clients = 0
        self._ensure_wake()
        now = self.sim._now
        # background arrivals waiting in the lane fail without starting
        self._drain_hole(now)
        for job in self.running_jobs:
            job.state = JobState.FAILED
            job.end_time = now
            self._release_core(job.start_time + job.runtime, now)
            self._killed += 1
            self.jobs_killed += 1
        self.running_jobs.clear()
        # every core still busy now runs background work — kill those too
        cf = self._core_free
        changed = False
        for k, v in enumerate(cf):
            if v > now:
                cf[k] = now
                self._killed += 1
                self.jobs_killed += 1
                changed = True
        if changed:
            heapify(cf)

    def end_black_hole(self) -> None:
        """Resume normal operation; arrivals during the hole stay failed."""
        if not self.black_hole:
            return
        self._drain_hole(self.sim._now)  # arrivals inside the hole failed
        self.black_hole = False
        self._next_due = 0.0
        self._advance()

    def _fail_now(self, job: Job) -> None:
        """Instantly fail an arriving client job (black-hole intercept)."""
        now = self.sim._now
        job.state = JobState.FAILED
        job.site = self.name
        job.queue_time = now
        job.end_time = now
        self.jobs_failed_bh += 1
        if self.on_fail is not None and job.tag != "background":
            self.on_fail(job)

    # -- reconciliation ----------------------------------------------------

    def _advance(self) -> None:
        """Commit every start with start time <= now (reconciliation point).

        The next commit instant is fully determined at the end of each
        walk, so it is memoised in ``_next_due``: reconciliation points
        that fall before it — the overwhelming majority of telemetry
        reads and client interactions on a busy grid — return after one
        comparison.  A walk moves the memo, so it ends by holding the
        wake rule.
        """
        t = self.sim._now
        ends = self._client_ends
        if ends and ends[0][0] <= t:
            self._drain_completions()
        if self.black_hole:
            # arrivals inside a hole fail instantly, never occupying cores
            self._drain_hole(t)
            return
        if t < self._next_due or not self.dispatch_enabled:
            return
        self._commit_block(t)
        if self._live_clients or self._wake is not None:
            self._ensure_wake()

    def _start_client(self, job: Job, start: float) -> None:
        job.state = JobState.RUNNING
        job.start_time = start
        # completion is pure bookkeeping (the core release is already in
        # the free-time heap), so no kernel event: the end instant rides
        # the lazy heap, computed with arithmetic identical to the
        # heap entry, and drains at the next reconciliation point; the
        # start count (callers bump it first) breaks end-time ties
        heappush(self._client_ends, (start + job.runtime, self._started, job))
        self.running_jobs[job] = None
        if self.on_start is not None and job.tag != "background":
            self.on_start(job)

    def _drain_completions(self) -> None:
        """Settle every client completion due at or before now.

        The vectorised-lane twin of the oracle's ``_complete`` event:
        flips due running jobs to ``COMPLETED`` with their exact end
        instant.  Entries whose job was killed mid-run are husks and are
        skipped.  Idempotent and event-free, so it doubles as the
        kernel reconciler that makes post-run state inspection match
        the event oracle.
        """
        ends = self._client_ends
        if not ends:
            return
        now = self.sim._now
        pop_running = self.running_jobs.pop
        RUNNING = JobState.RUNNING
        COMPLETED = JobState.COMPLETED
        while ends and ends[0][0] <= now:
            end, _, job = heappop(ends)
            if job.state is not RUNNING:
                continue  # killed in the meantime — a stale husk
            pop_running(job, None)
            job.state = COMPLETED
            job.end_time = end

    def _release_core(self, end_value: float, now: float) -> None:
        """Return a running client job's core (its free time becomes now).

        The entry is found by its exact float value: commits write
        ``start + runtime`` into the heap and the completion event with
        the identical arithmetic, so a running client's end value is
        guaranteed present.  A miss means the heap invariant broke —
        fail loudly rather than skew core accounting for the rest of
        the campaign.
        """
        cf = self._core_free
        try:
            idx = cf.index(end_value)
        except ValueError:
            raise RuntimeError(
                f"core-free heap of {self.name!r} lost entry {end_value!r} "
                "for a running client job — site engine invariant broken"
            ) from None
        cf[idx] = now
        heapify(cf)

    # -- the wake ----------------------------------------------------------

    def _ensure_wake(self) -> None:
        """Hold the wake rule: one wake at ``max(now, _next_due)`` while a
        live client waits behind an open gate, and none otherwise.

        Called by every walk and by each mutation that changes the memo,
        the live-client count or the gate without walking.  The memo is
        a lower bound on the next commit, so the wake is never late, and
        a wake always finds its memo due: it walks, commits whatever is
        due (the client once its instant comes) and the walk re-arms it.
        Each call arms a fresh event, so among wakes due at one instant
        the site checked last fires last.
        """
        w = self._wake
        if w is not None:
            w.cancel()
            self._wake = None
        if self._live_clients and self.dispatch_enabled:
            t = self._next_due
            now = self.sim._now
            self._wake = self.sim.schedule_at(t if t > now else now, self._on_wake)

    def _on_wake(self) -> None:
        self._wake = None
        self._advance()

    # -- telemetry ---------------------------------------------------------

    @property
    def busy_cores(self) -> int:
        """Cores currently executing jobs."""
        self._advance()
        now = self.sim._now
        return sum(1 for v in self._core_free if v > now)

    @property
    def jobs_started(self) -> int:
        """Cumulative starts (both lanes), reconciled to now."""
        self._advance()
        return self._started

    @property
    def jobs_completed(self) -> int:
        """Cumulative completions: started minus running minus killed."""
        self._advance()
        now = self.sim._now
        busy = sum(1 for v in self._core_free if v > now)
        return self._started - busy - self._killed

    def estimated_wait(self, mean_runtime_guess: float) -> float:
        """Crude queue-wait estimate the information system publishes."""
        return self.queue_length * mean_runtime_guess / self.n_cores
