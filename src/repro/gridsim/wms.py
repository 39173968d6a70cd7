"""Workload Management Server: match-making and site ranking.

Paper §3.1: a WMS "receives and queues the jobs submitted before
dispatching them to the connected computing centers".  Two EGEE realities
are modelled because they shape the latency distribution:

* **match-making delay** — credential delegation, requirement matching
  and dispatch take a stochastic, heavy-ish time (log-normal), which is
  the floor of the observed latency;
* **stale information** — the WMS ranks sites on load estimates
  refreshed only periodically (grid information systems publish slowly),
  plus ranking noise, so jobs regularly land on queues that are no
  longer the shortest — one of the §1 "partial information" effects.

Two dispatch engines implement the same submission contract (selected by
:attr:`~repro.gridsim.grid.GridConfig.wms_engine`):

* :class:`WorkloadManager` — the event oracle: every submission
  schedules its own dispatch event at ``now + matchmaking delay``.
* :class:`BatchedWorkloadManager` — the production lane: pending
  dispatches are pooled into *buckets*, one per dispatch quantum (the
  information-refresh window split into
  :attr:`BatchedWorkloadManager.SUBWINDOWS` sub-windows), and each
  bucket is resolved by a **single** simulator event at its boundary —
  site selection vectorised over the whole bucket (one numpy ``argmin``
  over ``(est + mm) · noise`` rows) and jobs handed to each chosen site
  in one ``enqueue_many`` call.  Jobs therefore
  reach their queue at the quantum boundary rather than at their exact
  match-making instant — a deliberate, law-level approximation (a few
  seconds against a minutes-scale latency floor) pinned against the
  oracle by ``tests/test_wms_engine_equivalence.py``.

Every broker is a member of a WMS federation: it *owns* a subset of the
computing elements (their load reports arrive on the normal
``info_refresh`` cadence) and sees the rest only through the federated
information system, which adds ``info_lag`` seconds of staleness.  A
grid without configured brokers builds one broker named ``"0"`` that
owns every site, so its view has no lagged part and the split refresh
reduces to the single periodic snapshot.  The federated view only
changes what ``current_snapshot()`` returns, so it composes with either
dispatch engine: bucket resolution ranks through the same snapshot.
"""

from __future__ import annotations

import math
from collections import deque
from functools import partial
from operator import itemgetter
from typing import Sequence

import numpy as np

from repro.gridsim.events import Simulator
from repro.gridsim.fairshare import FairShareVectorComputingElement
from repro.gridsim.jobs import Job, JobState
from repro.util.validation import check_nonnegative, check_positive

__all__ = ["BatchedWorkloadManager", "WorkloadManager"]

#: scalar draws pre-drawn per refill of the WMS randomness blocks
_DRAW_BLOCK = 256

#: states proving a job survived its site enqueue (RUNNING when the
#: site had a free core and started it synchronously)
_ENQUEUED_STATES = (JobState.QUEUED, JobState.RUNNING)

#: per-job state reads as module constants: ``EnumType.__getattr__``
#: puts every ``JobState.X`` read on the slow lookup path (~0.1 µs)
_CREATED = JobState.CREATED
_MATCHING = JobState.MATCHING


def _check_created(jobs: Sequence[Job]) -> None:
    """Raise before a burst moves any job unless every one is ``CREATED``."""
    for job in jobs:
        if job.state is not _CREATED:
            raise ValueError(f"cannot submit job in state {job.state}")


class WorkloadManager:
    """Match-maker and dispatcher over a set of computing elements.

    ``owned`` names the sites whose load reports this broker receives on
    the normal cadence (``None``: every site); the others re-measure only
    every ``info_refresh + info_lag`` seconds.  ``name`` labels the
    broker in routing (``via``), metrics and traces.
    """

    #: health-aware ranking (set by :meth:`enable_health`): when on, the
    #: stale snapshot also carries each site's ``health_penalty`` and the
    #: ranking score becomes ``(est + mm) · noise · penalty`` — banned
    #: sites (penalty inf) are masked out of match-making.  Class
    #: attributes so unconfigured grids pay nothing, not even a slot.
    _health_aware = False
    #: any penalty != 1 in the current snapshot (cheap fast-path guard)
    _penalised = False
    #: every site banned — fall back to unpenalised ranking rather than
    #: dispatch nothing (the grid has nowhere better to send work)
    _all_masked = False
    #: broker availability (middleware fault domain).  Class attributes —
    #: like the health flags above — so calm grids pay nothing: they
    #: become instance attributes only once an outage actually begins.
    accepting = True
    #: how a downed broker treats submissions: ``"reject"`` fails them
    #: synchronously, ``"black-hole"`` swallows them (the client learns
    #: only from its own submit timeout)
    outage_mode = "reject"
    #: broker-down windows begun (telemetry)
    outages_started = 0
    #: task-lifecycle recorder (grid-assigned on traced runs); the class
    #: attribute keeps untraced grids on the ``_tr is None`` fast path
    _tr = None

    def __init__(
        self,
        sim: Simulator,
        sites: Sequence[FairShareVectorComputingElement],
        rng: np.random.Generator,
        *,
        owned: Sequence[str] | None = None,
        info_lag: float = 600.0,
        name: str = "wms",
        matchmaking_median: float = 60.0,
        matchmaking_sigma: float = 0.6,
        info_refresh: float = 300.0,
        ranking_noise: float = 0.3,
        runtime_guess: float = 3600.0,
    ) -> None:
        if not sites:
            raise ValueError("WMS needs at least one computing element")
        check_nonnegative("info_lag", info_lag)
        check_positive("matchmaking_median", matchmaking_median)
        check_nonnegative("matchmaking_sigma", matchmaking_sigma)
        check_positive("info_refresh", info_refresh)
        check_nonnegative("ranking_noise", ranking_noise)
        check_positive("runtime_guess", runtime_guess)
        names = [s.name for s in sites]
        owned_set = set(names if owned is None else owned)
        unknown = owned_set.difference(names)
        if unknown:
            raise ValueError(
                f"broker {name!r} owns unknown site(s): "
                f"{', '.join(sorted(unknown))}"
            )
        self.sim = sim
        self.sites = list(sites)
        self.rng = rng
        self.name = name
        self.info_lag = float(info_lag)
        self.matchmaking_median = matchmaking_median
        self.matchmaking_sigma = matchmaking_sigma
        self.info_refresh = info_refresh
        self.ranking_noise = ranking_noise
        self.runtime_guess = runtime_guess
        self._owned_idx = [i for i, n in enumerate(names) if n in owned_set]
        self._remote_idx = [i for i, n in enumerate(names) if n not in owned_set]
        # the first full measurement primes the owned and the remote
        # view alike
        self._snapshot: np.ndarray = self._measure_loads()
        self._snapshot_time: float = sim.now
        self._remote_time: float = sim.now
        self.dispatch_count = 0
        self._log_mm_median = float(np.log(matchmaking_median))
        # block-drawn randomness (law-identical to scalar draws, far
        # cheaper per job): match-making delays and ranking-noise rows
        self._delays: deque[float] = deque()
        self._noise_rows: list[list[float]] = []
        self._noise_next = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.name}, owns={len(self._owned_idx)}/"
            f"{len(self.sites)} sites, lag={self.info_lag:g}s)"
        )

    # -- information system -------------------------------------------------

    def _measure_loads(self) -> np.ndarray:
        """Re-measure every site (owned or not) and return the snapshot."""
        self._snapshot_list = [0.0] * len(self.sites)
        self._refresh_partial(range(len(self.sites)))
        return self._snapshot

    def _refresh_partial(self, indices) -> None:
        # reading estimated_wait is a reconciliation point on the
        # vectorised site engine: every refresh advances each site's
        # background lane to the refresh instant before publishing.
        # Both views are set together — the list feeds the hot ranking
        # loop, the array is the external current_snapshot() surface
        loads = self._snapshot_list
        sites = self.sites
        guess = self.runtime_guess
        for i in indices:
            loads[i] = sites[i].estimated_wait(guess)
        self._snapshot = np.asarray(loads)
        if self._health_aware:
            # penalties travel with the load reports: a remote site's
            # ban reaches this broker only at the *lagged* refresh, so a
            # lagged broker keeps feeding a banned site for up to one
            # refresh window plus its info_lag — the federated failure
            # mode the grid-weather experiment measures
            self._refresh_health(indices)

    def enable_health(self) -> None:
        """Fold site health penalties into ranking (health-aware grids).

        Penalties are read only here and at snapshot refreshes, so a ban
        propagates with the information system's staleness — the WMS
        keeps feeding a just-banned site until its next refresh, exactly
        like a production broker working from a stale BDII view.
        """
        self._health_aware = True
        self._pen_list = [1.0] * len(self.sites)
        self._refresh_health(range(len(self.sites)))

    def _refresh_health(self, indices) -> None:
        pl = self._pen_list
        sites = self.sites
        for i in indices:
            pl[i] = sites[i].health_penalty
        self._penalised = any(p != 1.0 for p in pl)
        self._all_masked = self._penalised and all(p == math.inf for p in pl)
        self._pen_vec = np.asarray(pl)

    def current_snapshot(self) -> np.ndarray:
        """Stale load estimates: owned sites refreshed every
        ``info_refresh`` seconds, remote sites every
        ``info_refresh + info_lag``."""
        now = self.sim._now
        if now - self._snapshot_time >= self.info_refresh:
            self._refresh_partial(self._owned_idx)
            self._snapshot_time = now
        if (
            self._remote_idx
            and now - self._remote_time >= self.info_refresh + self.info_lag
        ):
            self._refresh_partial(self._remote_idx)
            self._remote_time = now
        return self._snapshot

    def snapshot_staleness(self) -> float:
        """Worst-case age (s) of the view the next dispatch would rank on.

        Pure read — it does not refresh the snapshot, so recording it in
        a trace perturbs nothing.
        """
        now = self.sim._now
        staleness = now - self._snapshot_time
        if self._remote_idx:
            staleness = max(staleness, now - self._remote_time)
        return staleness

    # -- broker outages (middleware fault domain) ----------------------------

    def begin_outage(self, mode: str = "reject") -> None:
        """Take the broker down: stop admitting new submissions.

        Work already matched or pooled keeps flowing — a crashed broker's
        previously dispatched jobs are at their sites, not inside it.
        """
        if mode not in ("reject", "black-hole"):
            raise ValueError(
                f"unknown broker outage mode {mode!r}; "
                "available: reject, black-hole"
            )
        self.accepting = False
        self.outage_mode = mode
        self.outages_started += 1

    def end_outage(self) -> None:
        """Recover the broker — with a cold information system.

        A restarted broker has no fresh load reports yet: it keeps
        serving its pre-outage snapshot for one full refresh window
        (increasingly stale the longer the outage lasted), exactly like
        a production WMS rejoining the information system mid-cadence.
        Deterministic on purpose: recovery consumes no randomness.  A
        broker with remote sites also restarts its remote clock, so its
        lagged view stays pre-outage for up to ``info_refresh +
        info_lag`` — rejoining brokers are the stalest rankers on the
        grid, which is what failover clients route into.
        """
        self.accepting = True
        self._snapshot_time = self._remote_time = self.sim.now

    # -- submission path -----------------------------------------------------

    def submit(self, job: Job) -> None:
        """Accept a job: match-making delay, then dispatch to a site."""
        if job.state is not _CREATED:
            raise ValueError(f"cannot submit job in state {job.state}")
        job.state = _MATCHING
        # partial (not a lambda) so pending dispatches survive snapshotting
        self.sim.schedule(self._next_delay(), partial(self._dispatch, job))

    def _next_delay(self) -> float:
        """Next match-making delay (block-drawn, law-identical to scalars)."""
        if not self._delays:
            self._delays.extend(
                self.rng.lognormal(
                    mean=self._log_mm_median,
                    sigma=self.matchmaking_sigma,
                    size=_DRAW_BLOCK,
                ).tolist()
            )
        return self._delays.popleft()

    def submit_many(self, jobs: Sequence[Job]) -> None:
        """Submit sibling copies together (law-identical to a submit loop);
        a burst holding any non-``CREATED`` job is rejected before one moves."""
        _check_created(jobs)
        for job in jobs:
            self.submit(job)

    def _dispatch(self, job: Job) -> None:
        if job.state is not _MATCHING:
            return  # cancelled while matching
        site = self.select_site()
        self.dispatch_count += 1
        site.enqueue(job)
        tr = self._tr
        if tr is not None and job.state in _ENQUEUED_STATES:
            # a black-holed job died inside enqueue (its fail event came
            # through the site's on_fail hook); only survivors enqueued.
            # RUNNING covers an instant synchronous start.
            tr.enqueue(job)

    def select_site(self) -> FairShareVectorComputingElement:
        """Rank sites by stale estimated wait plus multiplicative noise."""
        self.current_snapshot()
        return self.sites[self._select_index()]

    def _select_index(self) -> int:
        """Index of the ranked-best site (snapshot must be current)."""
        est = self._snapshot_list
        # the penalised branches consume the exact same noise draws as
        # the plain ones, so enabling health never shifts any RNG stream
        use_pen = self._penalised and not self._all_masked
        if self.ranking_noise > 0.0:
            if self._noise_next >= len(self._noise_rows):
                self._noise_rows = self.rng.lognormal(
                    0.0, self.ranking_noise, size=(_DRAW_BLOCK, len(est))
                ).tolist()
                self._noise_next = 0
            noise = self._noise_rows[self._noise_next]
            self._noise_next += 1
            mm = self.matchmaking_median
            # site counts are small (5–20): a plain loop beats the fixed
            # overhead of numpy ufuncs + argmin on tiny arrays
            if use_pen:
                pen = self._pen_list
                best = 0
                best_score = (est[0] + mm) * noise[0] * pen[0]
                for i in range(1, len(est)):
                    score = (est[i] + mm) * noise[i] * pen[i]
                    if score < best_score:
                        best = i
                        best_score = score
            else:
                best = 0
                best_score = (est[0] + mm) * noise[0]
                for i in range(1, len(est)):
                    score = (est[i] + mm) * noise[i]
                    if score < best_score:
                        best = i
                        best_score = score
        elif use_pen:
            mm = self.matchmaking_median
            pen = self._pen_list
            best = 0
            best_score = (est[0] + mm) * pen[0]
            for i in range(1, len(est)):
                score = (est[i] + mm) * pen[i]
                if score < best_score:
                    best = i
                    best_score = score
        else:
            best = est.index(min(est))
        return best


class BatchedWorkloadManager(WorkloadManager):
    """Windowed match-making: one event resolves a whole dispatch bucket.

    Submissions draw their match-making delay from the same block-drawn
    stream as the oracle, but instead of scheduling one dispatch event
    per job, each job joins the *bucket* of the dispatch quantum its
    delay lands in (``ceil(ready / dispatch_quantum)`` boundaries, with
    ``dispatch_quantum = info_refresh / SUBWINDOWS``).  A single
    simulator event per bucket then, at the boundary:

    1. drops jobs cancelled while they sat in the bucket,
    2. orders the survivors by their exact match-making instant (so the
       ranking-noise stream is consumed in dispatch order, like the
       oracle),
    3. refreshes the stale snapshot once and ranks **all** jobs in one
       vectorised pass — ``argmin`` over ``(est + mm) · noise`` rows,
    4. hands each site its winners in one ``enqueue_many`` call.

    The approximation relative to the oracle: jobs reach their queue at
    the quantum boundary, not at their exact ready instant, so
    individual latencies shift by less than one quantum (~19 s on the
    default grid, mean half that) while dispatch *counts*, fault rates,
    the site-ranking law and every RNG stream's law stay intact.  The
    quantum is deliberately much finer than the refresh window: buckets
    the width of the whole window resonate with closed-loop clients
    (probe slots resubmitting right after boundary-clustered starts
    wait almost a full window every cycle), which would bias the
    measured latency law the §3.2 protocol exists to capture.
    ``tests/test_wms_engine_equivalence.py`` pins the resulting
    latency/outcome laws against the oracle.
    """

    #: dispatch sub-windows per information-refresh window.  Buckets at
    #: the full window width resonate with closed-loop clients (a probe
    #: slot resubmitting right after a boundary-clustered start waits
    #: almost a whole window every cycle, inflating its measured latency
    #: well past what an open-loop submitter sees); 16 sub-windows cut
    #: the per-job alignment delay to ``info_refresh/32`` in the mean —
    #: a few seconds against a minutes-scale latency floor — while bursts
    #: and population-scale campaigns still fill buckets densely.
    SUBWINDOWS = 16

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: pending dispatches per sub-window boundary:
        #: ``[(ready, job), ...]``
        self._buckets: dict[float, list] = {}
        #: dispatch quantum: jobs whose match-making delay lands in the
        #: same quantum resolve together at its upper boundary
        self.dispatch_quantum = self.info_refresh / self.SUBWINDOWS

    def submit(self, job: Job) -> None:
        """Accept a job: pool it in its match-making window's bucket."""
        if job.state is not _CREATED:
            raise ValueError(f"cannot submit job in state {job.state}")
        job.state = _MATCHING
        delays = self._delays
        ready = self.sim._now + (delays.popleft() if delays else self._next_delay())
        w = self.dispatch_quantum
        boundary = math.ceil(ready / w) * w
        bucket = self._buckets.get(boundary)
        if bucket is None:
            bucket = self._buckets[boundary] = []
            # partial (not a lambda) so pending buckets survive snapshotting
            self.sim.schedule_at(boundary, partial(self._resolve_bucket, boundary))
        bucket.append((ready, job))

    def submit_many(self, jobs: Sequence[Job]) -> None:
        """Pool a burst of sibling copies (law-identical to a submit loop);
        a burst holding any non-``CREATED`` job is rejected before one moves."""
        _check_created(jobs)
        now = self.sim._now
        delays = self._delays
        buckets = self._buckets
        w = self.dispatch_quantum
        for job in jobs:
            job.state = _MATCHING
            ready = now + (delays.popleft() if delays else self._next_delay())
            boundary = math.ceil(ready / w) * w
            bucket = buckets.get(boundary)
            if bucket is None:
                bucket = buckets[boundary] = []
                self.sim.schedule_at(boundary, partial(self._resolve_bucket, boundary))
            bucket.append((ready, job))

    #: bucket size below which the scalar ranking path (blocked noise
    #: rows, shared with the oracle's select_site) beats numpy's fixed
    #: per-call overhead
    _VECTORISE_MIN = 5

    def _resolve_bucket(self, boundary: float) -> None:
        entries = self._buckets.pop(boundary)
        tr = self._tr
        if len(entries) == 1:
            # singleton bucket (sparse campaigns): no sorting, no
            # grouping — essentially the oracle's dispatch body
            _, job = entries[0]
            if job.state is not _MATCHING:
                return
            self.current_snapshot()
            site = self.sites[self._select_index()]
            self.dispatch_count += site.enqueue_many([job])
            if tr is not None and job.state in _ENQUEUED_STATES:
                tr.enqueue(job)
            return
        # order by exact match-making instant; the stable sort breaks
        # float ties in submission order
        entries.sort(key=itemgetter(0))
        live = [job for _, job in entries if job.state is _MATCHING]
        if not live:
            return
        self.current_snapshot()
        k = len(live)
        if k < self._VECTORISE_MIN:
            for job in live:
                if job.state is not _MATCHING:
                    continue  # cancelled by an earlier job's start callback
                site = self.sites[self._select_index()]
                self.dispatch_count += site.enqueue_many([job])
                if tr is not None and job.state in _ENQUEUED_STATES:
                    tr.enqueue(job)
            return
        est = self._snapshot
        use_pen = self._penalised and not self._all_masked
        if self.ranking_noise > 0.0:
            noise = self.rng.lognormal(0.0, self.ranking_noise, size=(k, est.size))
            scores = (est + self.matchmaking_median) * noise
            if use_pen:
                scores *= self._pen_vec
            choices = scores.argmin(axis=1)
        elif use_pen:
            choices = np.full(
                k,
                int(np.argmin((est + self.matchmaking_median) * self._pen_vec)),
            )
        else:
            choices = np.full(k, int(np.argmin(est)))
        # group winners per site, preserving dispatch order within a site
        groups: dict[int, list[Job]] = {}
        for job, site_i in zip(live, choices.tolist()):
            groups.setdefault(site_i, []).append(job)
        for site_i, bunch in groups.items():
            # re-check state: a start callback from an earlier group may
            # have cancelled a job waiting in a later one
            todo = [job for job in bunch if job.state is _MATCHING]
            if not todo:
                continue
            self.dispatch_count += self.sites[site_i].enqueue_many(todo)
            if tr is not None:
                for job in todo:
                    if job.state in _ENQUEUED_STATES:
                        tr.enqueue(job)
