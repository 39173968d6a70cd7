"""Minimal discrete-event simulation kernel.

A binary-heap event queue with cancellable events and a deterministic
tie-break (FIFO among equal timestamps).  Callbacks receive the simulator
so they can schedule follow-up events; everything runs in one thread —
parallelism in the *modelled* system (thousands of concurrent jobs) costs
nothing at simulation level.

The heap stores plain ``(time, seq, event)`` tuples: tuple comparison is
a C-level lexicographic pass, an order of magnitude cheaper than the
``dataclass(order=True)`` ``__lt__`` the kernel used to pay on every
sift, while the slotted :class:`Event` handle keeps O(1) lazy
cancellation and the ``(time, seq)`` FIFO tie-break unchanged.

Three bulk facilities keep the kernel cheap under heavy load:

* :meth:`Simulator.schedule_many` pushes a pre-sorted batch of events in
  one tight loop (used by the chunked background-load streams);
* cancelled husks are compacted away once they dominate the heap, so
  long campaigns that cancel many timers (probe timeouts, strategy
  resubmission timers) do not drag an ever-growing heap behind them;
* :meth:`Simulator.schedule_pooled` is a coarse timer wheel for the
  overwhelmingly-cancelled client timeouts: timers are pooled into
  buckets of :attr:`Simulator.pooled_granularity` seconds, one heap
  event fires a whole bucket, and cancelling a pooled timer is a flag
  flip that never touches the heap (a bucket whose every timer was
  cancelled cancels its own heap event).  Pooled timers fire at the
  bucket boundary — their deadline rounded *up* by at most one
  granule — so they are for timeouts, never for exact-time events.

:meth:`Simulator.stop` lets a callback end :meth:`Simulator.run_until`
at the current instant (used by the client layer to finish a campaign
the moment its last task completes, instead of polling the clock).

Components that keep *lazy* state (e.g. the vectorised site engines,
which materialise client-job completions on demand instead of holding
one heap event per running job) register a reconciler via
:meth:`Simulator.add_reconciler`; the loop invokes every reconciler just
before :meth:`run_until` returns, so code that
inspects model state *between* runs sees the same picture the event
oracle would show.
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import partial
from typing import Callable, Iterable

__all__ = ["Event", "PooledTimer", "Simulator"]

#: default width (s) of a pooled-timer bucket; coarse relative to the
#: strategy/probe timeouts that ride the wheel (10³–10⁴ s), so the
#: ≤ one-granule firing lateness stays a ~1% effect on the rare timer
#: that actually fires, while campaigns arming a few timers per minute
#: already share buckets
_POOLED_GRANULARITY = 60.0

#: never compact below this many husks — small heaps are cheap anyway
_COMPACT_MIN = 1024
#: compact when cancelled husks exceed this fraction of the heap
_COMPACT_FRACTION = 0.5


class Event:
    """A scheduled callback; ordered in the queue by (time, sequence number)."""

    __slots__ = ("time", "seq", "callback", "cancelled", "sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        sim: "Simulator | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Mark the event so the kernel skips it (O(1) lazy deletion)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.sim is not None:
            self.sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:g}, seq={self.seq}{state})"


class _TimerBucket:
    """One wheel slot: the timers pooled at a shared boundary event."""

    __slots__ = ("timers", "live", "event", "sim", "boundary")

    def __init__(self, sim: "Simulator", boundary: float) -> None:
        self.timers: list[PooledTimer] = []
        self.live = 0
        self.event: Event | None = None
        self.sim = sim
        self.boundary = boundary


class PooledTimer:
    """A cancellable timer pooled on the wheel (see ``schedule_pooled``).

    Cancellation is O(1) and heap-free: the timer flags itself and
    decrements its bucket's live count; when a bucket's count hits zero
    the bucket cancels its single heap event and unhooks itself from the
    wheel, so fully-cancelled windows cost the kernel nothing but one
    husk — and never linger as live objects the garbage collector has to
    keep scanning.
    """

    __slots__ = ("callback", "cancelled", "_bucket")

    def __init__(self, callback: Callable[[], None], bucket: "_TimerBucket") -> None:
        self.callback = callback
        self.cancelled = False
        self._bucket = bucket

    def cancel(self) -> None:
        """Flag the timer so its bucket skips it (never touches the heap)."""
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = None
        bucket = self._bucket
        if bucket is not None:
            bucket.live -= 1
            if bucket.live == 0:
                # the whole bucket died: drop it from the wheel so the
                # only trace left is one heap husk (reclaimed by
                # compaction) instead of a leaked bucket + timer list.
                # The identity check protects a bucket re-armed at the
                # same boundary (a zero-delay re-arm during the fire)
                if bucket.event is not None:
                    bucket.event.cancel()
                    bucket.event = None
                pool = bucket.sim._pool
                if pool.get(bucket.boundary) is bucket:
                    del pool[bucket.boundary]
            self._bucket = None


class Simulator:
    """Event loop: schedule callbacks, advance virtual time."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._processed = 0
        self._cancelled = 0
        self._compactions = 0
        self._stop_requested = False
        #: ``t_end`` of the running :meth:`run_until`, else ``-inf``
        self._horizon = -math.inf
        #: pooled-timer buckets keyed by their boundary instant
        self._pool: dict[float, _TimerBucket] = {}
        #: bucket width (s) of the pooled timer wheel
        self.pooled_granularity = _POOLED_GRANULARITY
        #: callbacks flushed before every run loop returns (lazy state)
        self._reconcilers: list[Callable[[], None]] = []

    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (diagnostics)."""
        return self._processed

    @property
    def compactions(self) -> int:
        """Number of heap compaction passes performed (diagnostics)."""
        return self._compactions

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` after ``delay`` seconds of virtual time."""
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        ev = Event(time, next(self._seq), callback, self)
        heapq.heappush(self._heap, (time, ev.seq, ev))
        return ev

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` at absolute virtual time ``time``."""
        if not time >= self._now:  # also rejects NaN
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        ev = Event(time, next(self._seq), callback, self)
        heapq.heappush(self._heap, (time, ev.seq, ev))
        return ev

    def schedule_many(
        self,
        times: Iterable[float],
        callbacks: Iterable[Callable[[], None]],
    ) -> list[Event]:
        """Bulk-schedule callbacks at absolute times (one tight loop).

        ``times`` and ``callbacks`` are consumed pairwise; sequence
        numbers are assigned in iteration order, so equal-time entries
        keep the usual FIFO tie-break.  Used by the event-driven site's
        background intake (one event per arrival of a fed chunk), where
        per-call :meth:`schedule_at` overhead would undo the benefit of
        block-drawing the randomness.
        """
        now = self._now
        heap = self._heap
        seq = self._seq
        push = heapq.heappush
        events: list[Event] = []
        append = events.append
        for time, callback in zip(times, callbacks):
            if not time >= now:  # also rejects NaN
                raise ValueError(
                    f"cannot schedule into the past (time={time}, now={now})"
                )
            ev = Event(time, next(seq), callback, self)
            append(ev)
            push(heap, (time, ev.seq, ev))
        return events

    # -- pooled timer wheel ----------------------------------------------

    def pooled_boundary(self, delay: float) -> float:
        """The absolute instant a pooled timer armed now would fire at.

        Exposed so batching layers (the SoA population pool) can key
        their own per-boundary blocks by exactly the wheel's rounding —
        deadline rounded up to the next ``pooled_granularity`` multiple.
        """
        g = self.pooled_granularity
        return math.ceil((self._now + delay) / g) * g

    def schedule_pooled(self, delay: float, callback: Callable[[], None]) -> PooledTimer:
        """Arm a cancellable timer on the coarse wheel.

        The timer fires at its deadline rounded **up** to the next
        multiple of :attr:`pooled_granularity` — late by less than one
        granule, never early.  All timers sharing a boundary ride one
        heap event; arming is a list append and cancelling a flag flip,
        so the overwhelmingly-cancelled client timeouts (probe slots,
        strategy ``t_inf`` timers) stop paying a heap push plus husk
        each.  Use :meth:`schedule` for anything that must fire at an
        exact instant.
        """
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        boundary = self.pooled_boundary(delay)
        bucket = self._pool.get(boundary)
        if bucket is None:
            # first timer at this boundary (a fully-cancelled bucket
            # removes itself, so a stale hit is impossible)
            bucket = _TimerBucket(self, boundary)
            self._pool[boundary] = bucket
            bucket.event = self.schedule_at(boundary, partial(self._fire_pool, boundary))
        timer = PooledTimer(callback, bucket)
        bucket.timers.append(timer)
        bucket.live += 1
        return timer

    def _fire_pool(self, boundary: float) -> None:
        bucket = self._pool.pop(boundary)
        bucket.event = None
        for timer in bucket.timers:
            if not timer.cancelled:
                timer.cancelled = True  # fired timers are spent
                timer._bucket = None
                callback = timer.callback
                timer.callback = None  # break the timer→owner cycle now
                callback()

    # -- husk compaction -----------------------------------------------------

    def _note_cancel(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled >= _COMPACT_MIN
            and self._cancelled >= _COMPACT_FRACTION * len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled husks and re-heapify, in place.

        The heap list is mutated via slice assignment so that the local
        ``heap`` reference held by a running :meth:`run_until` loop keeps
        seeing the compacted queue.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0
        self._compactions += 1

    # -- event loop ----------------------------------------------------------

    def add_reconciler(self, fn: Callable[[], None]) -> None:
        """Register ``fn`` to run just before any run loop returns.

        Reconcilers flush lazily-maintained model state (a vectorised
        site draining its due completion heap, say) so post-run
        inspection matches the event oracle.  They must be idempotent
        and must not schedule events.  Registering the same callable
        twice is a no-op.
        """
        if fn not in self._reconcilers:
            self._reconcilers.append(fn)

    def _reconcile(self) -> None:
        for fn in self._reconcilers:
            fn()

    def stop(self) -> None:
        """Ask the running loop to return after the current callback.

        Called from inside an event callback; the surrounding
        :meth:`run_until` returns with the clock at the current instant
        (not advanced to ``t_end``), so a campaign can end the moment its
        completion condition is met instead of polling.  A no-op outside
        a run.
        """
        self._stop_requested = True

    def claim(self, t: float) -> bool:
        """Advance to ``t`` and count one event, if one at ``t`` would pop next.

        For a callback walking its own sorted instants: ``True`` means no
        queued entry is at or before ``t``, ``t`` is within the running
        :meth:`run_until`'s ``t_end`` and no :meth:`stop` is pending, so
        the caller runs that event's body inline.  On ``False`` it uses
        :meth:`schedule_at`: an entry already queued at ``t`` has the
        smaller seq and runs first.  Always ``False`` outside run_until.
        """
        if self._stop_requested or not self._now <= t <= self._horizon:
            return False
        heap = self._heap
        if heap and heap[0][0] <= t:
            return False
        self._now = t
        self._processed += 1
        return True

    def run_until(self, t_end: float) -> None:
        """Process events with ``time <= t_end``; clock ends at ``t_end``.

        If a callback calls :meth:`stop`, the loop returns immediately
        with the clock left at that callback's instant.
        """
        if not t_end >= self._now:  # also rejects NaN
            raise ValueError(f"t_end={t_end} must be >= now={self._now}")
        self._stop_requested = False
        heap = self._heap
        pop = heapq.heappop
        self._horizon = t_end
        try:
            while heap and heap[0][0] <= t_end:
                time, _, ev = pop(heap)
                if ev.cancelled:
                    self._cancelled -= 1
                    continue
                self._now = time
                self._processed += 1
                # detach before running: a late cancel() on a fired event
                # (strategy cleanup cancels all its timers) must not count
                # as a pending husk
                ev.sim = None
                ev.callback()
                if self._stop_requested:
                    self._stop_requested = False
                    break
            else:
                self._now = t_end
        finally:
            self._horizon = -math.inf
        self._reconcile()
