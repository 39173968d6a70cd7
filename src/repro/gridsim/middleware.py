"""Client-side middleware resilience: retries, breakers, failover.

PR 6 made the *sites* unreliable; this module makes the *middleware*
unreliable and gives clients the machinery real production stacks grew
in response (DIRAC-style failover submission):

* :class:`RetryPolicy` — capped exponential backoff with deterministic
  seeded jitter and a per-attempt submit timeout, bounding how long a
  client chases one copy through a broken submission path;
* :class:`CircuitBreaker` — per-broker closed → open → half-open
  breaker on consecutive submit failures, so clients stop hammering a
  downed broker and fail over to its siblings;
* :class:`MiddlewareDomain` — the per-grid controller wired in by
  :class:`~repro.gridsim.grid.GridSimulator` when any middleware fault
  feature is configured.  It owns the broker choice (round-robin →
  breaker-driven failover), the submission-path fault draws
  (:class:`~repro.gridsim.faults.SubmitFaultConfig`, including the
  at-least-once lost-ack duplicates), the retry timers, and all
  per-broker telemetry.

Grids that configure none of this never construct a domain: every
submission takes exactly the historical code path, byte-for-byte.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.gridsim.events import restore_state
from repro.gridsim.faults import SubmitFaultConfig
from repro.gridsim.jobs import Job, JobState
from repro.util.validation import (
    check_int_at_least,
    check_nonnegative,
    check_positive,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gridsim.grid import GridSimulator

__all__ = ["CircuitBreaker", "MiddlewareDomain", "RetryPolicy"]

_CREATED = JobState.CREATED
_LOST = JobState.LOST

#: uniforms drawn per block from a private stream
_BLOCK = 256


def _uniform(buffer: deque, rng) -> float:
    """The next uniform of ``rng``, block-drawn into ``buffer``.

    A block of ``rng.random(n)`` holds the values ``n`` scalar
    ``rng.random()`` calls would return, in order, so a stream no other
    code draws from yields the same sequence for a fraction of the
    per-call cost.
    """
    if not buffer:
        buffer.extend(rng.random(_BLOCK).tolist())
    return buffer.popleft()


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side submit retry/failover policy.

    Attributes
    ----------
    max_attempts:
        Total submit attempts per logical copy (1 = no retries).
    backoff_base, backoff_factor, backoff_max:
        Capped exponential backoff before attempt ``k``:
        ``min(base · factor^(k-1), backoff_max)`` seconds.
    jitter:
        Multiplicative jitter fraction: each backoff is scaled by a
        uniform draw from ``[1-jitter, 1+jitter]`` taken from the grid's
        dedicated jitter stream — deterministic given the grid seed, so
        chaos runs replay exactly.
    submit_timeout:
        How long the client waits for a submit acknowledgement before
        treating the attempt as failed (the only way it ever learns a
        black-holed broker swallowed the call).
    breaker_threshold:
        Consecutive observed submit failures that trip a broker's
        circuit breaker open.
    breaker_reset:
        Seconds an open breaker waits before letting one half-open
        trial attempt through.
    """

    __setstate__ = restore_state

    max_attempts: int = 4
    backoff_base: float = 30.0
    backoff_factor: float = 2.0
    backoff_max: float = 600.0
    jitter: float = 0.25
    submit_timeout: float = 120.0
    breaker_threshold: int = 3
    breaker_reset: float = 1_800.0

    def __post_init__(self) -> None:
        check_int_at_least("max_attempts", self.max_attempts, 1)
        check_nonnegative("backoff_base", self.backoff_base)
        if not self.backoff_factor >= 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        check_nonnegative("backoff_max", self.backoff_max)
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(
                f"jitter must be in [0, 1), got {self.jitter!r}"
            )
        check_positive("submit_timeout", self.submit_timeout)
        check_int_at_least("breaker_threshold", self.breaker_threshold, 1)
        check_positive("breaker_reset", self.breaker_reset)


class CircuitBreaker:
    """Per-broker breaker: closed → open → half-open on submit failures.

    Closed counts consecutive failures; at ``threshold`` it opens and
    :meth:`allow` refuses traffic for ``reset_timeout`` seconds.  After
    the cooldown one half-open trial is let through: a success closes
    the breaker, a failure re-opens it (another full cooldown, another
    trip on the counter).
    """

    __slots__ = ("threshold", "reset_timeout", "failures", "opened_at", "trips")

    def __init__(self, threshold: int, reset_timeout: float) -> None:
        self.threshold = threshold
        self.reset_timeout = reset_timeout
        self.failures = 0
        #: time the breaker last opened (None = closed)
        self.opened_at: float | None = None
        #: transitions into the open state (telemetry)
        self.trips = 0

    @property
    def state(self) -> str:
        """``"closed"`` or ``"open"`` (half-open is transient: it exists
        only inside the :meth:`allow` call that admits the trial)."""
        return "closed" if self.opened_at is None else "open"

    def allow(self, now: float) -> bool:
        """May a submit attempt go to this broker right now?"""
        opened = self.opened_at
        if opened is None:
            return True
        # half-open: one trial per cooldown window.  Re-arm the window
        # immediately so concurrent clients don't all pile onto the
        # trial; the trial's own outcome closes or re-opens the breaker
        if now - opened >= self.reset_timeout:
            self.opened_at = now
            return True
        return False

    def record_failure(self, now: float) -> None:
        """Count an observed submit failure (may trip the breaker)."""
        self.failures += 1
        if self.opened_at is not None:
            # a failed half-open trial: re-open for a fresh cooldown
            self.opened_at = now
            self.trips += 1
        elif self.failures >= self.threshold:
            self.opened_at = now
            self.trips += 1


#: per-broker telemetry counters (order = report order)
_STAT_KEYS = ("submits", "rejects", "black_holed", "failovers")


class MiddlewareDomain:
    """The grid's middleware fault domain controller.

    Built by :class:`~repro.gridsim.grid.GridSimulator` only when broker
    outages, submission-path faults or a retry policy are configured;
    ``GridSimulator.submit`` delegates here in that case.  Zero-fault
    configs never construct one, so the historical submit path stays
    untouched.
    """

    __setstate__ = restore_state

    def __init__(
        self,
        grid: "GridSimulator",
        *,
        retry: RetryPolicy | None,
        faults: SubmitFaultConfig | None,
        chaos_rng=None,
        jitter_rng=None,
    ) -> None:
        self.grid = grid
        self.retry = retry
        self.faults = faults
        self._chaos_rng = chaos_rng
        self._jitter_rng = jitter_rng
        self._chaos_uniforms: deque[float] = deque()
        self._jitter_uniforms: deque[float] = deque()
        #: per-key lists of per-broker counters, aligned with
        #: ``grid.brokers``; the Counter objects live in the grid's
        #: MetricsRegistry, so ``mw.<broker>.<key>`` reads there see the
        #: same cells the hot path increments — one set of books, not two
        reg = grid.metrics
        per_broker = [
            [reg.counter(f"mw.{b.name}.{key}") for key in _STAT_KEYS]
            for b in grid.brokers
        ]
        self.counters = dict(zip(_STAT_KEYS, map(list, zip(*per_broker))))
        self._submits = self.counters["submits"]
        self._rejects = self.counters["rejects"]
        self._black_holed = self.counters["black_holed"]
        self._failovers = self.counters["failovers"]
        #: broker -> its index in ``grid.brokers``
        self._index = {b: i for i, b in enumerate(grid.brokers)}
        #: per-broker breakers (empty without a retry policy — failover
        #: is meaningless for a client that never retries)
        self.breakers = (
            [
                CircuitBreaker(retry.breaker_threshold, retry.breaker_reset)
                for _ in grid.brokers
            ]
            if retry is not None
            else []
        )
        #: at-least-once duplicates minted (lost-ack ghosts that landed)
        self.duplicates = 0

    # -- submission ------------------------------------------------------

    def submit(self, job: Job, on_start, via, task) -> Job:
        """The resilient counterpart of ``GridSimulator.submit``."""
        grid = self.grid
        job.submit_time = grid.sim._now
        grid.jobs_submitted += 1
        if task is not None:
            task.client_attempts += 1
            tr = grid._tr
            if tr is not None:
                tr.submit(task, job)
        self._attempt(job, on_start, via, task, 0)
        return job

    def _choose(self, pref: int, now: float) -> int:
        """Apply breaker-driven failover to the preferred broker, whose
        breaker is open (it may admit a half-open trial)."""
        breakers = self.breakers
        if breakers[pref].allow(now):
            return pref
        n = len(breakers)
        for k in range(1, n):
            i = (pref + k) % n
            if breakers[i].allow(now):
                self._failovers[i].value += 1
                return i
        # every breaker open: hammer the preferred one anyway (there is
        # nowhere better, and the attempt doubles as a half-open trial)
        return pref

    def _attempt(self, job: Job, on_start, via, task, attempt: int) -> None:
        grid = self.grid
        # the broker this attempt would normally route to; a closed
        # breaker admits it without a failover scan
        idx = self._index[grid.broker_for(via)]
        breakers = self.breakers
        if breakers and breakers[idx].opened_at is not None:
            idx = self._choose(idx, grid.sim._now)
        self._submits[idx].value += 1
        broker = grid.brokers[idx]
        tr = grid._tr
        if tr is not None:
            tr.hop(job, broker)
        if not broker.accepting:
            if broker.outage_mode == "black-hole":
                # the broker swallowed the call; the client only learns
                # at its own submit timeout (if it has one)
                self._black_holed[idx].value += 1
                policy = self.retry
                if policy is None or task is None:
                    job.state = _LOST
                    if tr is not None:
                        tr.fail(job, "lost")
                    return
                task.retry_pending += 1
                task.arm(
                    policy.submit_timeout,
                    partial(self._ack_timeout, job, on_start, via, task, idx, attempt),
                )
                return
            # synchronous rejection
            self._rejects[idx].value += 1
            self._failed(job, on_start, via, task, idx, attempt)
            return
        f = self.faults
        if (
            f is not None
            and f.p_fail > 0.0
            and _uniform(self._chaos_uniforms, self._chaos_rng) < f.p_fail
        ):
            self._rejects[idx].value += 1
            if (
                f.p_landed > 0.0
                and _uniform(self._chaos_uniforms, self._chaos_rng) < f.p_landed
            ):
                self._landed(job, on_start, via, task, idx, attempt, broker)
            else:
                self._failed(job, on_start, via, task, idx, attempt)
            return
        # clean accept: the historical fault channels + dispatch
        if breakers:
            # an accepted submit resets the failure run and closes the breaker
            breaker = breakers[idx]
            breaker.failures = 0
            breaker.opened_at = None
        grid._submit_plain(job, on_start, broker)

    # -- failure handling ------------------------------------------------

    def _backoff(self, attempt: int) -> float:
        """The capped, jittered delay before retry ``attempt + 1``.

        Draws exactly one jitter variate when the policy jitters, none
        otherwise.
        """
        policy = self.retry
        delay = min(
            policy.backoff_base * policy.backoff_factor**attempt,
            policy.backoff_max,
        )
        if policy.jitter > 0.0:
            delay *= 1.0 + policy.jitter * (
                2.0 * _uniform(self._jitter_uniforms, self._jitter_rng) - 1.0
            )
        return delay

    def _failed(self, job: Job, on_start, via, task, idx: int, attempt: int) -> None:
        """A client-visible submit failure: back off and retry, or give up."""
        grid = self.grid
        if self.breakers:
            self.breakers[idx].record_failure(grid.sim._now)
        policy = self.retry
        tr = grid._tr
        if policy is None or task is None or attempt + 1 >= policy.max_attempts:
            job.state = _LOST
            if tr is not None:
                tr.fail(job, "lost")
            return
        delay = self._backoff(attempt)
        task.retry_pending += 1
        if tr is not None:
            tr.retry(job, attempt + 1, delay)
        task.arm(delay, partial(self._retry, job, on_start, via, task, attempt + 1))

    def _retry(self, job: Job, on_start, via, task, attempt: int) -> None:
        task.retry_pending -= 1
        # the task may have settled (a sibling started) or the strategy's
        # own timeout may have cancelled this copy while the backoff ran
        if task.done or job.state is not _CREATED:
            return
        grid = self.grid
        grid.jobs_submitted += 1
        task.client_attempts += 1
        job.submit_time = grid.sim._now
        tr = grid._tr
        if tr is not None:
            tr.submit(task, job)
        self._attempt(job, on_start, via, task, attempt)

    def _ack_timeout(self, job: Job, on_start, via, task, idx: int, attempt: int) -> None:
        """The submit timeout fired on a black-holed attempt."""
        task.retry_pending -= 1
        if task.done or job.state is not _CREATED:
            return
        self._failed(job, on_start, via, task, idx, attempt)

    def _landed(self, job: Job, on_start, via, task, idx: int, attempt: int, broker) -> None:
        """A failed attempt whose job actually reached the broker.

        The landed copy keeps going through the normal accept path.  A
        client without retry machinery just saw a spurious error —
        behaviourally a clean accept.  A retrying client mints a fresh
        sibling copy and retries *that*, so both copies are now live:
        the landed one becomes an at-least-once duplicate the task's
        sibling-cancel must reconcile.
        """
        grid = self.grid
        policy = self.retry
        if policy is None or task is None:
            grid._submit_plain(job, on_start, broker)
            return
        if self.breakers:
            # the client observed a failure, whatever actually happened
            self.breakers[idx].record_failure(grid.sim._now)
        job.duplicate = True
        self.duplicates += 1
        tr = grid._tr
        if tr is not None:
            tr.dup(job)
        grid._submit_plain(job, on_start, broker)
        retry_job = Job(runtime=job.runtime, tag=job.tag, vo=job.vo)
        task.jobs_used += 1
        task.active_jobs.append(retry_job)
        if tr is not None:
            tr.adopt(task, retry_job)
        if grid.task_ledger is not None:
            grid.task_ledger.append((task, retry_job))
        agent = grid._agent
        if agent is not None:
            agent.watch(task, retry_job)
        if attempt + 1 >= policy.max_attempts:
            # out of budget: the fresh copy dies unsubmitted, but the
            # landed ghost is still in flight and can win the task
            retry_job.state = _LOST
            if tr is not None:
                tr.fail(retry_job, "lost")
            return
        delay = self._backoff(attempt)
        task.retry_pending += 1
        if tr is not None:
            tr.retry(retry_job, attempt + 1, delay)
        task.arm(delay, partial(self._retry, retry_job, on_start, via, task, attempt + 1))

    # -- telemetry -------------------------------------------------------

    def report(self) -> dict:
        """Per-broker telemetry keyed by broker name."""
        grid = self.grid
        out = {}
        for i, broker in enumerate(grid.brokers):
            entry = {k: cs[i].value for k, cs in self.counters.items()}
            entry["outages"] = broker.outages_started
            if self.breakers:
                entry["breaker_trips"] = self.breakers[i].trips
                entry["breaker_state"] = self.breakers[i].state
            out[broker.name] = entry
        return out
