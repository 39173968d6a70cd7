"""Computing elements: batch queue + worker cores of one grid site.

Two engines implement the same site contract:

* :class:`ComputingElement` — the original event-driven FIFO.  Every job
  (client *and* background) is a :class:`Job` whose start and completion
  are heap events.  It is kept as the law oracle, outside production
  grids: the equivalence suite (``tests/test_site_engine_equivalence.py``)
  builds grids on it and replays identical workloads through both
  engines to compare traces.
* :class:`VectorComputingElement` — the production two-lane engine.
  Client-visible jobs (probes, strategy copies, cancellations) keep the
  exact event-kernel semantics, while anonymous background jobs flow
  through a vectorised lane: arrival/runtime chunks are fed as arrays and
  a Lindley-style recurrence over the per-core free-time heap
  (``start = max(arrival, min free)``, ``free ← start + runtime``)
  commits whole blocks of start/completion times with no per-job events,
  advanced lazily to the current sim time and reconciled at every client
  interaction point.

Both engines support in-queue cancellation (strategy timeouts) and
mid-run kills (burst copies whose sibling started first), plus the
outage hooks :meth:`begin_outage` / :meth:`end_outage` used by
:class:`~repro.gridsim.outages.OutageProcess` and the *black-hole*
hooks :meth:`begin_black_hole` / :meth:`end_black_hole` used by
:mod:`repro.gridsim.weather`: a black-holed CE keeps accepting jobs
and instantly "completes" them as failures (``JobState.FAILED``), so
its queue-length estimate stays at zero and the information system
keeps ranking it best — the classic traffic-eating attractor.  On the
vectorised engine the state flip reconciles the background lane first
(same pattern as ``begin_outage``) and then consumes arrivals without
occupying cores for as long as the hole is active.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from functools import partial
from heapq import heapify, heappop, heappush, heapreplace
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
    for arrival, start and completion.  Grids run
    :class:`VectorComputingElement`; this class remains the oracle the
    vectorised lane is verified against.
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
        #: jobs currently executing, keyed by job id; each carries its
        #: completion :class:`Event` in ``job.completion_event``
        self.running_jobs: dict[int, Job] = {}
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
        semantics).  Jobs already completed are left untouched.
        """
        if job.state is JobState.QUEUED:
            if job.site != self.name:
                return False  # queued, but at some other site
            # lazy removal: leave a husk in the deque for _try_start to
            # skip; queue_length discounts it immediately
            job.state = JobState.CANCELLED
            self._queue_husks += 1
            return True
        if job.state is JobState.RUNNING:
            ev = job.completion_event
            if ev is not None:
                ev.cancel()
                job.completion_event = None
            self.running_jobs.pop(job.job_id, None)
            job.state = JobState.CANCELLED
            job.end_time = self.sim.now
            self.free_cores += 1
            if self.dispatch_enabled:
                self._try_start()
            return True
        return False

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
                self.running_jobs.pop(job.job_id, None)
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
        for job in list(self.running_jobs.values()):
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
        for job in list(self.running_jobs.values()):
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
            # snapshot/clone deep copy, and closures copy as shared refs
            job.completion_event = self.sim.schedule(
                job.runtime, partial(self._complete, job)
            )
            self.running_jobs[job.job_id] = job
            # background jobs never have start watchers; skipping the
            # notification call for them halves the per-start overhead
            # on saturated grids
            if self.on_start is not None and job.tag != "background":
                self.on_start(job)

    def _complete(self, job: Job) -> None:
        job.completion_event = None
        self.running_jobs.pop(job.job_id, None)
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
    """Two-lane computing element: event-kernel clients, vectorised background.

    The background production workload — the overwhelming majority of a
    grid's traffic — never touches the event heap here.  Its arrivals
    come in pre-drawn chunks (:meth:`feed_background`), and the site
    resolves their start/completion times with a Lindley-style recurrence
    over the per-core free-time min-heap::

        start_i = max(arrival_i, min(core_free))
        core_free.replace_min(start_i + runtime_i)

    processed in arrival order (exactly FIFO) and **lazily**: commits
    only happen up to the current sim time, at the reconciliation points
    — client enqueue/cancel, outage toggles, telemetry reads
    (``queue_length`` / ``busy_cores`` / ``estimated_wait``) and chunk
    refills.  Client-visible jobs keep the event-kernel contract of
    :class:`ComputingElement`: ``on_start`` fires at the exact start
    instant, completions are real events, cancellation works queued and
    mid-run.

    The one scheduling device is the *wake*: while a client job waits in
    the FIFO, everything ahead of it (arrival times and runtimes of
    pending background work, committed free times) is already known, so
    its start instant is fully determined.  The site schedules a single
    event at that predicted time; any action that can move the
    prediction earlier (a queued or running cancellation, an outage
    recovery) re-aims it, and an outage closing the gate disarms it.
    Prediction and commit run the identical float arithmetic over the
    identical heap, so client traces are bit-identical to the
    event-driven oracle wherever no same-timestamp tie is involved.
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
        #: pending background arrivals (sorted times + matching runtimes);
        #: entries before ``_bg_i`` are committed (started), entries at or
        #: after it are queued or not yet arrived
        self._bg_t: list[float] = []
        self._bg_r: list[float] = []
        self._bg_i = 0
        #: committed background entries trimmed off the front of the arrays
        self._bg_done = 0
        #: client jobs in arrival order (husks skipped lazily)
        self._client_q: deque[Job] = deque()
        self._client_husks = 0
        #: the single predicted-start event armed for the head client job
        self._wake: Event | None = None
        #: min-heap of ``(end, job_id, job)`` for running client jobs —
        #: completions are pure bookkeeping (the core release is already
        #: encoded in the free-time heap at commit), so instead of one
        #: kernel event per client job they drain lazily: at the top of
        #: every ``_advance``, before cancellations, and via the kernel
        #: reconciler when a run loop returns.  Entries for killed jobs
        #: stay as husks and are skipped on drain.
        self._client_ends: list[tuple[float, int, Job]] = []
        sim.add_reconciler(self._drain_completions)
        self.running_jobs: dict[int, Job] = {}
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
        #: returns immediately while ``now`` is before it.  Computed at
        #: the end of every walk; any mutation that could create an
        #: *earlier* start (client arrival, core release, gate reopen,
        #: new background chunk) resets it to 0 to force a walk.
        self._next_due = 0.0
        #: bumped whenever the inputs of a head-start prediction change
        #: (core release, dispatch-floor move) — commits alone never do,
        #: because prediction and commit run the identical recurrence.
        #: ``_ensure_wake`` skips the predictor while the armed wake was
        #: computed for the same head job at the same epoch.
        self._lane_epoch = 0
        self._wake_head: Job | None = None
        self._wake_epoch = -1

    # -- background lane ---------------------------------------------------

    def feed_background(self, times: list[float], runtimes: list[float]) -> None:
        """Append a chunk of background arrivals (sorted, all in the future).

        Called by :class:`~repro.gridsim.background.BackgroundLoad` once
        per refill; the reconciliation here also trims committed entries
        so pending arrays stay chunk-sized on healthy sites.
        """
        self._advance()
        i = self._bg_i
        if i:
            del self._bg_t[:i]
            del self._bg_r[:i]
            self._bg_done += i
            self._bg_i = 0
        self._bg_t.extend(times)
        self._bg_r.extend(runtimes)
        if times and times[0] < self._next_due:
            # a new arrival can never start before it arrives, so the
            # memo only needs *lowering* to the chunk head — feeds are
            # all-future, so the walk stays deferred instead of being
            # forced on the next reconciliation point
            self._next_due = times[0]

    def background_delivered(self) -> int:
        """Background arrivals whose arrival time has passed (lazy count)."""
        self._advance()
        return self._bg_done + bisect_right(self._bg_t, self.sim._now)

    # -- queue operations ------------------------------------------------

    def enqueue(self, job: Job) -> None:
        """Accept a dispatched client job into the FIFO."""
        if job.state not in (JobState.MATCHING, JobState.CREATED):
            raise ValueError(f"cannot enqueue job in state {job.state}")
        if self.black_hole:
            self._fail_now(job)
            return
        job.state = JobState.QUEUED
        job.site = self.name
        job.queue_time = self.sim._now
        cq = self._client_q
        if self._client_husks == len(cq):
            # no live client ahead: the new arrival may start as soon as
            # a core frees past the floor, so *lower* the memo to that
            # bound (behind a live head, FIFO order keeps the next
            # commit as-is).  Work ahead of it — background arrivals at
            # or before its queue time — starts no earlier than the same
            # bound, so the memo stays a valid next-commit lower bound
            # and the walk is skipped entirely while all cores stay busy
            e = self._core_free[0]
            if self._dispatch_floor > e:
                e = self._dispatch_floor
            if e < self._next_due:
                self._next_due = e
        cq.append(job)
        self._advance()  # background ahead of it commits; may start it now
        if job.state is JobState.QUEUED:
            self._ensure_wake()

    def enqueue_many(self, jobs: list[Job]) -> int:
        """Accept a batch of dispatched jobs; returns how many enqueued.

        All jobs are appended to the FIFO first (same ``queue_time``,
        FIFO order = batch order, exactly as a loop over
        :meth:`enqueue` would produce), then one reconciliation pass
        commits whatever can start and one wake re-aim covers the whole
        batch — instead of an ``_advance`` + ``_ensure_wake`` per job.
        Jobs cancelled by a start callback fired mid-batch die as queue
        husks, the same outcome the per-job path reaches via
        :meth:`~repro.gridsim.wms.WorkloadManager.cancel_matching`.
        """
        if self.black_hole:
            return self._fail_batch(jobs)
        now = self.sim._now
        cq = self._client_q
        if self._client_husks == len(cq):
            # no live client ahead: the batch head may start once a core
            # frees past the floor (same memo lowering as ``enqueue``)
            e = self._core_free[0]
            if self._dispatch_floor > e:
                e = self._dispatch_floor
            if e < self._next_due:
                self._next_due = e
        n = 0
        for job in jobs:
            if job.state not in (JobState.MATCHING, JobState.CREATED):
                continue
            job.state = JobState.QUEUED
            job.site = self.name
            job.queue_time = now
            cq.append(job)
            n += 1
        if n:
            self._advance()
            self._ensure_wake()
        return n

    def cancel(self, job: Job) -> bool:
        """Cancel a queued or running client job; returns ``True`` if it acted."""
        ends = self._client_ends
        if ends and ends[0][0] <= self.sim._now:
            # a completion at or before now beats the cancel (the oracle
            # fires the completion event first) — settle those before
            # deciding whether the job is still cancellable
            self._drain_completions()
        if job.state is JobState.QUEUED:
            if job.site != self.name:
                return False  # queued, but at some other site
            job.state = JobState.CANCELLED
            self._client_husks += 1
            # a removed entry only moves *later* starts earlier, so the
            # wake needs re-aiming only when the cancelled job was the
            # head client — if some earlier client is still queued, its
            # prediction (and the wake) are untouched
            for q in self._client_q:
                if q is job:
                    self._ensure_wake()
                    break
                if q.state is JobState.QUEUED:
                    break
            return True
        if job.state is JobState.RUNNING:
            ev = job.completion_event
            if ev is not None:
                ev.cancel()
                job.completion_event = None
            self.running_jobs.pop(job.job_id, None)
            job.state = JobState.CANCELLED
            now = self.sim._now
            job.end_time = now
            self._release_core(job.start_time + job.runtime, now)
            self._killed += 1
            self._next_due = 0.0  # the freed core may start earlier work
            self._lane_epoch += 1
            self._advance()  # the freed core may start queued work this instant
            self._ensure_wake()
            return True
        return False

    def cancel_many(self, jobs: list[Job]) -> int:
        """Cancel a batch of sibling jobs at this site; returns the count.

        Same two-phase semantics as the event engine's
        :meth:`ComputingElement.cancel_many` — queued husks first, then
        running kills, then a **single** reconciliation + wake re-aim
        for the whole batch instead of one per cancelled job.
        """
        n = 0
        freed = False
        now = self.sim._now
        ends = self._client_ends
        if ends and ends[0][0] <= now:
            self._drain_completions()  # due completions beat the cancels
        for job in jobs:
            if job.state is JobState.QUEUED and job.site == self.name:
                job.state = JobState.CANCELLED
                self._client_husks += 1
                n += 1
        for job in jobs:
            if job.state is JobState.RUNNING:
                ev = job.completion_event
                if ev is not None:
                    ev.cancel()
                    job.completion_event = None
                self.running_jobs.pop(job.job_id, None)
                job.state = JobState.CANCELLED
                job.end_time = now
                self._release_core(job.start_time + job.runtime, now)
                self._killed += 1
                freed = True
                n += 1
        if n:
            if freed:
                self._next_due = 0.0  # freed cores may start earlier work
                self._lane_epoch += 1
                self._advance()
            self._ensure_wake()
        return n

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
        if self._wake is not None:
            self._wake.cancel()
            self._wake = None
        for job in list(self.running_jobs.values()):
            if rng.random() < kill_running:
                self.cancel(job)
        now = self.sim._now
        # surviving client ends, to tell client cores from background cores
        client_ends = sorted(
            j.start_time + j.runtime for j in self.running_jobs.values()
        )
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
        self._lane_epoch += 1
        self._advance()
        self._ensure_wake()

    # -- black-hole hooks --------------------------------------------------

    def begin_black_hole(self) -> None:
        """Flip into the attractor state (see the oracle's docstring).

        Reconciles the background lane first, then fails every waiting
        job (client FIFO and arrived-but-unstarted background entries)
        and kills everything running, freeing all cores to *now* — so
        the published wait estimate collapses to zero.  Idempotent.
        """
        if self.black_hole:
            return
        self._advance()
        self.black_hole = True
        if self._wake is not None:
            self._wake.cancel()
            self._wake = None
        now = self.sim._now
        on_fail = self.on_fail
        for job in self._client_q:
            if job.state is not JobState.QUEUED:
                continue
            job.state = JobState.FAILED
            job.end_time = now
            self.jobs_failed_bh += 1
            if on_fail is not None and job.tag != "background":
                on_fail(job)
        self._client_q.clear()
        self._client_husks = 0
        # background arrivals waiting in the lane fail without starting
        j = bisect_right(self._bg_t, now, self._bg_i)
        self.jobs_failed_bh += j - self._bg_i
        self._bg_i = j
        for job in list(self.running_jobs.values()):
            ev = job.completion_event
            if ev is not None:
                ev.cancel()
                job.completion_event = None
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
        # drain (as failures) anything that arrived inside the hole
        j = bisect_right(self._bg_t, self.sim._now, self._bg_i)
        self.jobs_failed_bh += j - self._bg_i
        self._bg_i = j
        self.black_hole = False
        self._next_due = 0.0
        self._lane_epoch += 1
        if self.dispatch_enabled:
            self._advance()
            self._ensure_wake()

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

    def _fail_batch(self, jobs: list[Job]) -> int:
        """Black-hole path of ``enqueue_many``: every job fails on arrival."""
        n = 0
        for job in jobs:
            if job.state not in (JobState.MATCHING, JobState.CREATED):
                continue
            self._fail_now(job)
            n += 1
        return n

    # -- the vector lane ---------------------------------------------------

    def _advance(self) -> None:
        """Commit every start with start time <= now (reconciliation point).

        Walks the merged FIFO (pending background arrivals + client
        deque) in arrival order, applying the Lindley recurrence.  Client
        commits fire ``on_start`` synchronously, exactly like the
        oracle's ``_try_start``; since callbacks may re-enter (cancel a
        sibling at this very site), all loop state lives on ``self`` and
        locals are refreshed after every callback.

        The next commit instant is fully determined at the end of each
        walk (the head item's start over the settled free-time heap), so
        it is memoised in ``_next_due``: reconciliation points that fall
        before it — the overwhelming majority of telemetry reads and
        client interactions on a busy grid — return after one comparison
        instead of re-binding the whole walk state.
        """
        t = self.sim._now
        ends = self._client_ends
        if ends and ends[0][0] <= t:
            self._drain_completions()
        if self.black_hole:
            # arrivals inside a hole fail instantly, never occupying cores
            j = bisect_right(self._bg_t, t, self._bg_i)
            if j > self._bg_i:
                self.jobs_failed_bh += j - self._bg_i
                self._bg_i = j
            return
        if t < self._next_due or not self.dispatch_enabled:
            return
        floor = self._dispatch_floor
        cf = self._core_free
        bg_t, bg_r = self._bg_t, self._bg_r
        n_bg = len(bg_t)
        cq = self._client_q
        QUEUED = JobState.QUEUED
        while True:
            while cq and cq[0].state is not QUEUED:
                cq.popleft()
                self._client_husks -= 1
            head = cq[0] if cq else None
            ct = head.queue_time if head is not None else 0.0
            i = self._bg_i
            if i < n_bg and (head is None or bg_t[i] <= ct):
                # bulk-commit the background run ahead of the head client
                # on pure locals — background starts never call out, so
                # no re-entrancy can bite, and the per-commit attribute
                # traffic of the one-at-a-time loop disappears
                bt = bg_t[i]
                started = 0
                while True:
                    m = cf[0]
                    if floor > m:
                        m = floor
                    s = bt if bt > m else m
                    if s > t:
                        self._bg_i = i
                        self._started += started
                        self._next_due = s
                        return
                    heapreplace(cf, s + bg_r[i])
                    i += 1
                    started += 1
                    if i >= n_bg:
                        break
                    bt = bg_t[i]
                    if head is not None and bt > ct:
                        break
                self._bg_i = i
                self._started += started
                continue  # the head client may be startable now
            if head is not None:
                s = ct
                m = cf[0]
                if floor > m:
                    m = floor
                if m > s:
                    s = m
                if s > t:
                    self._next_due = s
                    return
                cq.popleft()
                heapreplace(cf, s + head.runtime)
                self._started += 1
                self._start_client(head, s)
                # the callback may have cancelled jobs, advanced the lane
                # re-entrantly, or closed the gate — refresh everything
                if not self.dispatch_enabled:
                    return
                cf = self._core_free
                bg_t, bg_r = self._bg_t, self._bg_r
                n_bg = len(bg_t)
            else:
                self._next_due = float("inf")
                return

    def _start_client(self, job: Job, start: float) -> None:
        job.state = JobState.RUNNING
        job.start_time = start
        # completion is pure bookkeeping (the core release is already in
        # the free-time heap), so no kernel event: the end instant rides
        # the lazy heap, computed with arithmetic identical to the
        # heap entry, and drains at the next reconciliation point
        heappush(self._client_ends, (start + job.runtime, job.job_id, job))
        self.running_jobs[job.job_id] = job
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
            pop_running(job.job_id, None)
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
        """(Re-)aim the single start event at the head client's start time."""
        if not self.dispatch_enabled:
            return  # re-armed by end_outage
        head = None
        for job in self._client_q:
            if job.state is JobState.QUEUED:
                head = job
                break
        w = self._wake
        if head is None:
            if w is not None:
                w.cancel()
                self._wake = None
            return
        if (
            w is not None
            and not w.cancelled
            and head is self._wake_head
            and self._wake_epoch == self._lane_epoch
        ):
            return  # same head, same prediction inputs: the wake holds
        s = self._predict_start(head)
        self._wake_head = head
        self._wake_epoch = self._lane_epoch
        if w is not None:
            if not w.cancelled and w.time == s:
                return
            w.cancel()
        self._wake = self.sim.schedule_at(s, self._on_wake)

    def _predict_start(self, head: Job) -> float:
        """The head client's start instant, given everything ahead of it.

        Runs the same recurrence as :meth:`_advance` on a copy of the
        free-time heap, without committing — commitments beyond the
        current time would be invalidated by cancellations or outages,
        predictions are simply re-made.
        """
        h = self._core_free.copy()
        floor = self._dispatch_floor
        ct = head.queue_time
        bg_t, bg_r = self._bg_t, self._bg_r
        i, n = self._bg_i, len(bg_t)
        while i < n:
            bt = bg_t[i]
            if bt > ct:
                break
            m = h[0]
            if floor > m:
                m = floor
            s = bt if bt > m else m
            heapreplace(h, s + bg_r[i])
            i += 1
        m = h[0]
        if floor > m:
            m = floor
        return ct if ct > m else m

    def _on_wake(self) -> None:
        self._wake = None
        self._advance()
        self._ensure_wake()

    # -- telemetry ---------------------------------------------------------

    @property
    def queue_length(self) -> int:
        """Jobs waiting (arrived, not started), both lanes."""
        self._advance()
        n_bg = bisect_right(self._bg_t, self.sim._now, self._bg_i) - self._bg_i
        return n_bg + len(self._client_q) - self._client_husks

    @property
    def busy_cores(self) -> int:
        """Cores currently executing jobs."""
        self._advance()
        now = self.sim._now
        return sum(1 for v in self._core_free if v > now)

    @property
    def free_cores(self) -> int:
        """Cores currently idle."""
        return self.n_cores - self.busy_cores

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VectorCE({self.name}, cores={self.busy_cores}/{self.n_cores}, "
            f"queued={self.queue_length})"
        )
