"""Per-VO fair-share scheduling at computing elements.

Production grids are multi-tenant: a site's batch system splits its
capacity between virtual organisations according to negotiated *shares*,
usually with an exponentially decayed usage window (Maui/Moab and SLURM
style fair-share).  This module adds that layer on top of both site
engines without touching them:

* :class:`FairShareState` — the accounting common to both engines: one
  decayed CPU-usage counter per VO, compared as ``usage/share`` (lowest
  ratio wins the next free core).  Decay is *lazy and closed-form*
  (``usage · 2^{-Δt/halflife}``), so no per-interval decay events exist
  and the two engines apply bit-identical arithmetic.
* :class:`FairShareVectorComputingElement` — the one production site
  engine: the Lindley commit loop resolves fair-share priority at every
  start while still creating **zero events and zero Job objects** for
  background work.
* :class:`FairShareComputingElement` — the event oracle the tests run
  multi-VO grids on: per-VO FIFO queues in front of the same core pool;
  every free core is handed to the head job of the most underserved VO.

Both take a VO label per background arrival (``feed_background``'s
third array, site VO indices).

Grids build every site on the vector engine.  A site that declares
fewer than two VOs runs it with one VO (:data:`SINGLE_VO` when it
declares none), and no VO label is drawn for its background, so its RNG
streams are those of a plain FIFO.  With one VO the scheduler degrades
to plain FIFO over one queue: a decision has one candidate, so usage
never decides anything, and the commit loop runs that VO's background
in an inline FIFO run with no decay or charge.  Its client traces and
telemetry are *exactly* those of the plain event FIFO
:class:`~repro.gridsim.site.ComputingElement` (pinned by
``tests/test_fairshare.py``).  Only sites declaring two or more VOs
publish a usage split (:func:`multi_vo`).

Scheduling equivalence caveat (inherited from the base engines): traces
are bit-identical wherever no same-timestamp tie interposes a completion
and an arrival — measure-zero under continuous laws.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from functools import partial
from heapq import heapreplace
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.gridsim.events import Simulator
from repro.gridsim.jobs import Job, JobState
from repro.gridsim.site import ComputingElement, VectorComputingElement

__all__ = [
    "FairShareState",
    "FairShareComputingElement",
    "FairShareVectorComputingElement",
]

#: default decay half-life of the fair-share usage window (s)
DEFAULT_HALFLIFE = 86_400.0

_INF = math.inf

#: per-job state reads as module constants: ``EnumType.__getattr__``
#: puts every ``JobState.X`` read on the slow lookup path (~0.1 µs)
_QUEUED = JobState.QUEUED
_CANCELLED = JobState.CANCELLED
_FAILED = JobState.FAILED
_ENQUEUABLE = (JobState.MATCHING, JobState.CREATED)

#: the one VO of a site that declares none
SINGLE_VO = (("default", 1.0),)


def multi_vo(site) -> bool:
    """Whether ``site`` declares two or more VOs.

    The usage-readout rule: only such a site publishes its decayed
    usage split (the registry gauge, ``PopulationResult``'s
    ``site_usage_shares``).  A one-VO site's split is trivially all one
    VO, and its engine does not keep that VO's usage up to date.
    """
    return len(site.vo_names) >= 2


def normalize_vo_shares(
    vo_shares: Iterable[tuple[str, float]],
) -> tuple[tuple[str, float], ...]:
    """Validate ``(name, share)`` pairs and normalise shares to sum 1."""
    pairs = tuple(vo_shares)
    if not pairs:
        raise ValueError("vo_shares must name at least one VO")
    names = []
    raw = []
    for entry in pairs:
        try:
            name, share = entry
        except (TypeError, ValueError):
            raise ValueError(
                f"vo_shares entries must be (name, share) pairs, got {entry!r}"
            ) from None
        if not isinstance(name, str) or not name:
            raise ValueError(f"VO name must be a non-empty string, got {name!r}")
        share = float(share)
        if not math.isfinite(share) or share <= 0.0:
            raise ValueError(f"share of VO {name!r} must be > 0, got {share!r}")
        names.append(name)
        raw.append(share)
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise ValueError(f"duplicate VO name(s): {', '.join(sorted(dupes))}")
    total = sum(raw)
    return tuple((n, s / total) for n, s in zip(names, raw))


class FairShareState:
    """Decayed per-VO usage accounting driving scheduling decisions.

    The scheduler keeps one usage counter per VO: every dispatched job
    charges its (requested) runtime to its VO at the start instant, and
    counters decay with half-life ``halflife`` so old consumption stops
    counting against a VO.  Priority is the classic underserved-first
    rule — the candidate minimising ``usage/share`` wins, registration
    order breaking exact ties deterministically.

    Decay is applied lazily inside :meth:`select` / :meth:`charge` only,
    with the identical call sequence on both site engines, so usage
    floats (and therefore decisions) stay bit-identical across engines.
    Telemetry reads go through :meth:`decayed_usage`, which never
    commits a decay step.
    """

    __slots__ = ("names", "shares", "halflife", "_index", "_usage", "_last")

    def __init__(
        self,
        vo_shares: Iterable[tuple[str, float]],
        halflife: float = DEFAULT_HALFLIFE,
    ) -> None:
        pairs = normalize_vo_shares(vo_shares)
        if not halflife > 0.0:  # math.inf allowed: no decay
            raise ValueError(f"halflife must be > 0, got {halflife!r}")
        self.names: tuple[str, ...] = tuple(n for n, _ in pairs)
        self.shares: tuple[float, ...] = tuple(s for _, s in pairs)
        self.halflife = float(halflife)
        self._index = {n: i for i, n in enumerate(self.names)}
        self._usage = [0.0] * len(self.names)
        self._last = 0.0

    def index_of(self, vo: str) -> int:
        """VO index for a job label; unknown/empty labels map to VO 0."""
        return self._index.get(vo, 0)

    def _decay_to(self, t: float) -> None:
        if t > self._last:
            f = 0.5 ** ((t - self._last) / self.halflife)
            usage = self._usage
            for k in range(len(usage)):
                usage[k] *= f
            self._last = t

    def select(self, candidates: Sequence[int], t: float) -> int:
        """The most underserved VO among ``candidates`` at time ``t``."""
        self._decay_to(t)
        usage = self._usage
        shares = self.shares
        best = candidates[0]
        best_ratio = usage[best] / shares[best]
        for v in candidates[1:]:
            ratio = usage[v] / shares[v]
            if ratio < best_ratio:
                best = v
                best_ratio = ratio
        return best

    def charge(self, vo: int, cpu: float, t: float) -> None:
        """Account ``cpu`` seconds to VO ``vo`` at time ``t``."""
        self._decay_to(t)
        self._usage[vo] += cpu

    def decayed_usage(self, t: float) -> list[float]:
        """Usage decayed to ``t`` *without* committing the decay step."""
        f = 0.5 ** (max(t - self._last, 0.0) / self.halflife)
        return [u * f for u in self._usage]


class _PerJobBatchOps:
    """Per-job batch intake for the fair-share engines.

    Both fair-share engines keep per-VO bookkeeping inside ``enqueue``
    (the vector one also its closed-form admission), so their batch
    intake — and their ``cancel_many`` — are loops over the per-job
    operation in batch order.  Each member therefore sees the site as
    its predecessors' start callbacks left it — a member those callbacks
    cancelled is skipped — and the pair's client traces stay
    comparable.  The plain event FIFO
    (:class:`~repro.gridsim.site.ComputingElement`) batches for real:
    its queued members become husks before any running one is killed.
    """

    def enqueue_many(self, jobs: Sequence[Job]) -> int:
        n = 0
        for job in jobs:
            if job.state in _ENQUEUABLE:
                self.enqueue(job)
                n += 1
        return n


class _VoTelemetry:
    """Per-VO telemetry shared by both fair-share engines."""

    fairshare: FairShareState

    def usage_shares(self) -> dict[str, float]:
        """Each VO's fraction of the decayed usage window (0 when idle)."""
        advance = getattr(self, "_advance", None)
        if advance is not None:  # vector lane: reading usage reconciles
            advance()
        usage = self.fairshare.decayed_usage(self.sim._now)
        total = sum(usage)
        if total <= 0.0:
            return {n: 0.0 for n in self.fairshare.names}
        return {n: u / total for n, u in zip(self.fairshare.names, usage)}


class FairShareComputingElement(_VoTelemetry, _PerJobBatchOps, ComputingElement):
    """Event-driven oracle with per-VO queues and fair-share dispatch.

    Identical core pool and event mechanics as
    :class:`~repro.gridsim.site.ComputingElement`; the only change is
    *which* queued job a free core takes: the head of the queue of the
    VO minimising decayed ``usage/share``.
    """

    def __init__(
        self,
        name: str,
        n_cores: int,
        sim: Simulator,
        *,
        vo_shares: Iterable[tuple[str, float]],
        fairshare_halflife: float = DEFAULT_HALFLIFE,
        on_start: Callable[[Job], None] | None = None,
    ) -> None:
        super().__init__(name, n_cores, sim, on_start=on_start)
        self.fairshare = FairShareState(vo_shares, fairshare_halflife)
        self.vo_names = self.fairshare.names
        self._vo_queues: list[deque[Job]] = [
            deque() for _ in self.fairshare.names
        ]
        self._vo_husks = [0] * len(self.fairshare.names)

    # -- queue operations ------------------------------------------------

    def enqueue(self, job: Job) -> None:
        if job.state not in (JobState.MATCHING, JobState.CREATED):
            raise ValueError(f"cannot enqueue job in state {job.state}")
        if self.black_hole:
            self._fail_now(job)
            return
        job.state = JobState.QUEUED
        job.site = self.name
        job.queue_time = self.sim._now
        self._vo_queues[self.fairshare.index_of(job.vo)].append(job)
        if self.free_cores > 0 and self.dispatch_enabled:
            self._try_start()

    def cancel(self, job: Job) -> bool:
        if job.state is JobState.QUEUED:
            if job.site != self.name:
                return False
            job.state = JobState.CANCELLED
            self._vo_husks[self.fairshare.index_of(job.vo)] += 1
            return True
        return super().cancel(job)

    def cancel_many(self, jobs: Sequence[Job]) -> int:
        n = 0
        for job in jobs:
            if self.cancel(job):
                n += 1
        return n

    def begin_black_hole(self) -> None:
        """Fail the per-VO queues, then flip via the base hook."""
        if self.black_hole:
            return
        now = self.sim._now
        on_fail = self.on_fail
        for v, q in enumerate(self._vo_queues):
            for job in q:
                if job.state is not JobState.QUEUED:
                    continue
                job.state = JobState.FAILED
                job.end_time = now
                self.jobs_failed_bh += 1
                if on_fail is not None and job.tag != "background":
                    on_fail(job)
            q.clear()
            self._vo_husks[v] = 0
        # the base hook drains the (unused, empty) plain queue and kills
        # everything running, freeing the cores
        super().begin_black_hole()

    # -- internals -------------------------------------------------------

    def _pop_next(self) -> tuple[Job | None, int]:
        """Head job of the most underserved VO (husks dropped lazily)."""
        candidates = []
        for v, q in enumerate(self._vo_queues):
            while q and q[0].state is not JobState.QUEUED:
                q.popleft()
                self._vo_husks[v] -= 1
            if q:
                candidates.append(v)
        if not candidates:
            return None, -1
        v = self.fairshare.select(candidates, self.sim._now)
        return self._vo_queues[v].popleft(), v

    def _try_start(self) -> None:
        if not self.dispatch_enabled:
            return
        while self.free_cores > 0:
            job, v = self._pop_next()
            if job is None:
                return
            self.free_cores -= 1
            job.state = JobState.RUNNING
            job.start_time = self.sim._now
            self.jobs_started += 1
            # charge before the callback: a re-entrant cancel must see
            # updated usage
            self.fairshare.charge(v, job.runtime, self.sim._now)
            job.completion_event = self.sim.schedule(
                job.runtime, partial(self._complete, job)
            )
            self.running_jobs[job] = None
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
        if self.dispatch_enabled:
            self._try_start()

    # -- telemetry ---------------------------------------------------------

    @property
    def queue_length(self) -> int:
        return sum(map(len, self._vo_queues)) - sum(self._vo_husks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FairShareCE({self.name}, cores={self.busy_cores}/{self.n_cores}, "
            f"queued={self.queue_length})"
        )


class FairShareVectorComputingElement(_VoTelemetry, _PerJobBatchOps, VectorComputingElement):
    """The production site engine: VO-labelled background, fair-share commits.

    Grids build every site on it; a site declaring fewer than two VOs
    runs it with one VO.  The VO-independent machinery — core heap,
    running client jobs, outage gate, the wake rule, core telemetry —
    lives in the base :class:`~repro.gridsim.site.VectorComputingElement`.

    The background lane is sharded per VO at feed time
    (:meth:`feed_background` demuxes each chunk into per-VO
    arrival/runtime arrays), so the commit loop never materialises
    per-arrival tuples or mixed queues: each VO exposes one *head
    arrival* — the earlier of its next background entry and its first
    queued client job, background winning exact ties (the arrival-order
    rule of the event oracle) — and the loop resolves starts straight
    off those heads.  Background work still creates **zero events and
    zero Job objects**.

    Commits run *block-resolved*: between client interactions the
    winner sequence of the ``usage/share`` rule is a deterministic
    function of the decayed usage vector, the per-VO heads, and the
    core free-time heap, so
    maximal background-only runs are committed in one fused pass over
    plain locals — replaying the exact ``2^{-Δt/halflife}`` decay
    ladder and ``usage/share`` argmin the per-start loop commits, so
    every float (and therefore every decision) is bit-identical.  The
    pass falls back to per-start handling the moment a client job wins
    a core (its ``on_start`` callback may re-enter the site) or a
    block boundary is hit — a commit instant past ``now``, an empty
    grid, or a dispatch-gate flip.  An idle-core decision whose instant
    only one VO's head reaches needs no ``usage/share`` scan at all.

    Client admission is closed-form where the site can start the job on
    arrival: once ``enqueue`` has committed everything due, a free core
    means the newcomer is the sole candidate at ``now``, so it is
    charged and started directly instead of joining its VO FIFO for a
    second walk (:meth:`enqueue`; ``enqueue_many`` runs it per job).
    ``tests/test_fairshare_block.py`` holds blocks and admission
    bit-for-bit to a per-start :class:`FairShareState`-method oracle
    loop that appends every client and walks.

    The wake follows the base engine's one rule
    (:meth:`~repro.gridsim.site.VectorComputingElement._ensure_wake`):
    while a live client waits behind an open gate, the wake sits at
    ``max(now, _next_due)``.  With a client waiting, every walk leaves
    the memo at the next core release (or dispatch floor), so the wake
    fires once per release until a client wins a core.

    A one-VO site makes no decision at all, so once its background head
    wins a core the commit loop runs that VO's background inline, plain
    FIFO, until the client head, ``t`` or the lane's end, with no decay
    ladder and no charge (see :meth:`_commit_block`).
    """

    def __init__(
        self,
        name: str,
        n_cores: int,
        sim: Simulator,
        *,
        vo_shares: Iterable[tuple[str, float]] = SINGLE_VO,
        fairshare_halflife: float = DEFAULT_HALFLIFE,
        on_start: Callable[[Job], None] | None = None,
    ) -> None:
        super().__init__(name, n_cores, sim, on_start=on_start)
        self.fairshare = FairShareState(vo_shares, fairshare_halflife)
        #: VO names by site VO index (see :func:`multi_vo`)
        self.vo_names = self.fairshare.names
        nvo = len(self.vo_names)
        #: per-VO pending background arrivals (sorted) and runtimes;
        #: entries before the per-VO cursor ``_bgc[v]`` are committed
        self._bga: list[list[float]] = [[] for _ in range(nvo)]
        self._bgr: list[list[float]] = [[] for _ in range(nvo)]
        self._bgc: list[int] = [0] * nvo
        #: committed background entries trimmed off the array fronts
        self._bg_trimmed = 0
        #: queued client jobs per VO (husks skipped lazily)
        self._clq: list[deque[Job]] = [deque() for _ in range(nvo)]
        self._vo_husks = [0] * nvo
        #: per-VO head rows of the block resolver (merged head arrivals
        #: and their background/client components).  Valid whenever
        #: ``_heads_mut == _mut``: the commit loop maintains them
        #: through its own commits (including nested re-entrant walks —
        #: the rows are shared in place), ``enqueue`` patches them in
        #: O(1), and every other queue mutator bumps ``_mut`` so the
        #: next walk rebuilds
        self._heads = [0.0] * nvo
        self._bheads = [0.0] * nvo
        self._cheads = [0.0] * nvo
        self._mut = 0
        self._heads_mut = -1

    # -- background lane ---------------------------------------------------

    def feed_background(
        self,
        times: list[float],
        runtimes: list[float],
        vos: list[int] | None = None,
    ) -> None:
        """Append a chunk of VO-labelled background arrivals.

        The chunk is demuxed into the per-VO arrays here (one vectorised
        mask per VO): per-VO subsequences of a globally sorted chunk stay
        sorted, so the commit loop reads heads with no merge step.
        ``vos=None`` routes everything to VO 0.
        """
        n = len(times)
        if vos is not None and len(vos) != n:
            raise ValueError(
                f"vos has {len(vos)} entries for {n} arrivals"
            )
        self._advance()
        bga, bgr, bgc = self._bga, self._bgr, self._bgc
        for v in range(len(bgc)):
            c = bgc[v]
            if c:
                # trim committed prefixes so pending arrays stay
                # chunk-sized on healthy sites
                del bga[v][:c]
                del bgr[v][:c]
                self._bg_trimmed += c
                bgc[v] = 0
        if not n:
            return
        if vos is None:
            bga[0].extend(times)
            bgr[0].extend(runtimes)
        else:
            va = np.asarray(vos, dtype=np.intp)
            ta = np.asarray(times)
            ra = np.asarray(runtimes)
            routed = 0
            for v in range(len(bga)):
                m = va == v
                k = int(m.sum())
                if k:
                    bga[v].extend(ta[m].tolist())
                    bgr[v].extend(ra[m].tolist())
                    routed += k
            if routed != n:
                raise ValueError(
                    f"background VO labels out of range for {len(bga)} VOs"
                )
        self._mut += 1
        nd = times[0]
        if nd < self._next_due and not self._live_clients:
            # an arrival can never start before it lands, so the memo
            # only needs lowering to the chunk head — all-future feeds
            # leave the walk deferred.  Behind a waiting client the memo
            # is the next core release (or floor), which no arrival can
            # beat, so it, and the wake on it, stay put
            self._next_due = nd

    def background_delivered(self) -> int:
        self._advance()
        now = self.sim._now
        n = self._bg_trimmed
        for a in self._bga:
            n += bisect_right(a, now)
        return n

    # -- queue operations ------------------------------------------------

    def enqueue(self, job: Job) -> None:
        """Queue ``job``, or start it in closed form on a free core.

        After the pre-walk below, a free core, an open gate and a job
        still ``QUEUED`` prove the newcomer is the *only* candidate at
        ``d = now``: the walk (or a memo still past ``now``) left no
        arrived job waiting while a core idles.  Its start is then the
        one the commit loop would make — decay to ``now``, charge, take
        the earliest core — with no FIFO round trip and no second walk.
        ``_next_due`` stays a valid lower bound (one more busy core only
        delays later commits).  Every other case appends to the VO FIFO
        and walks.  ``enqueue_many`` runs this body per job in batch
        order, re-reading memo and gate after every start callback.
        """
        if job.state not in _ENQUEUABLE:
            raise ValueError(f"cannot enqueue job in state {job.state}")
        if self.black_hole:
            self._fail_now(job)
            return
        now = self.sim._now
        job.state = _QUEUED
        job.site = self.name
        job.queue_time = now
        # commit anything due before the newcomer joins the competition:
        # a start resolved at d == now by this reconciliation must not
        # see the new client as a candidate (the order a per-event
        # engine's earlier-scheduled events would enforce)
        if now >= self._next_due:
            self._advance()
        fs = self.fairshare
        vi = fs._index.get(job.vo, 0)
        cf = self._core_free
        e = cf[0]
        if self._dispatch_floor > e:
            e = self._dispatch_floor
        if (
            e <= now
            and job.state is _QUEUED
            and self.dispatch_enabled
            and not self.black_hole
        ):
            # settle due completions first, as the walk's ``_advance``
            # would: the start callback routes sibling cancels by state
            ends = self._client_ends
            if ends and ends[0][0] <= now:
                self._drain_completions()
            r = job.runtime
            heapreplace(cf, now + r)
            # FairShareState.charge inline: the decay ladder, then += r
            usage = fs._usage
            if now > fs._last:
                f = 0.5 ** ((now - fs._last) / fs.halflife)
                for k in range(len(usage)):
                    usage[k] *= f
                fs._last = now
            usage[vi] += r
            self._started += 1
            # only husks can sit in this VO's FIFO (a live client would
            # have been a candidate): drop them as the loop's pop would
            q = self._clq[vi]
            while q and q[0].state is not _QUEUED:
                q.popleft()
                self._vo_husks[vi] -= 1
            self._start_client(job, now)
            return
        self._clq[vi].append(job)
        self._live_clients += 1
        if self._heads_mut == self._mut:
            # O(1) head patch: a newcomer joins the back of its VO's
            # FIFO, so it becomes the client head only when there was
            # no live head before it.  The pre-walk above may have
            # started a sibling copy whose settle cancelled this very
            # job (state/site are already stamped), so a husk can reach
            # this point: it must not be installed as the head
            if job.state is _QUEUED and self._cheads[vi] == _INF:
                self._cheads[vi] = now
                if self._heads[vi] > now:
                    self._heads[vi] = now
        if e <= now:
            # a core is free but the closed form does not apply (gate
            # closed, hole, or a husk): let the walk decide, and re-arm
            self._next_due = 0.0
            self._advance()
        else:
            if e < self._next_due:
                # every core is busy past now — no start can happen
                # before ``e``, so lowering the memo there keeps the
                # walk deferred
                self._next_due = e
            self._ensure_wake()

    def cancel_many(self, jobs: Sequence[Job]) -> int:
        """Cancel per job in batch order; hold the wake rule once, after.

        No event fires inside the loop, so the one wake lands where the
        last per-job re-arm would have put it.
        """
        n = 0
        for job in jobs:
            if self._cancel(job):
                n += 1
        if n:
            self._ensure_wake()
        return n

    def _cancel(self, job: Job) -> bool:
        if job.state is _QUEUED:
            if job.site != self.name:
                return False
            job.state = _CANCELLED
            self._vo_husks[self.fairshare.index_of(job.vo)] += 1
            self._live_clients -= 1
            self._mut += 1  # the husk may be its VO's cached head
            # the memo still bounds the next commit (one competitor
            # fewer frees no core); the last waiting client takes the
            # wake with it when the caller re-holds the wake rule
            return True
        return super()._cancel(job)

    def begin_black_hole(self) -> None:
        """Fail both per-VO lanes, then flip via the base hook.

        Queued client jobs fail with their ``on_fail`` notification;
        the base hook then consumes arrived-but-unstarted background
        entries as anonymous failures (through :meth:`_drain_hole`) and
        kills the running work.
        """
        if self.black_hole:
            return
        self._advance()
        now = self.sim._now
        on_fail = self.on_fail
        failed = 0
        for v, q in enumerate(self._clq):
            for job in q:
                if job.state is not _QUEUED:
                    continue
                job.state = _FAILED
                job.end_time = now
                failed += 1
                if on_fail is not None and job.tag != "background":
                    on_fail(job)
            q.clear()
            self._vo_husks[v] = 0
        self.jobs_failed_bh += failed
        self._mut += 1
        super().begin_black_hole()

    def _drain_hole(self, t: float) -> None:
        """Consume per-VO background arrivals <= ``t`` as failures."""
        bga, bgc = self._bga, self._bgc
        failed = 0
        for v in range(len(bgc)):
            c = bgc[v]
            j = bisect_right(bga[v], t, c)
            if j > c:
                failed += j - c
                bgc[v] = j
        if failed:
            self.jobs_failed_bh += failed
            self._mut += 1

    # -- the fair-share commit loop ----------------------------------------

    def _commit_block(self, t: float) -> None:
        """Commit every start at or before ``t``, fair-share order.

        Each start's decision instant ``d`` is the first moment a free
        core and an arrived job coexist — ``max(min core-free, dispatch
        floor)``, pushed up to the earliest pending arrival when every
        head is still in the future (the idle-core case, where the
        plain engine's ``max(arrival, m)`` applies).  All VOs whose
        head arrived by ``d`` compete and the decayed ``usage/share``
        argmin picks the winner; commits stop as soon as ``d`` passes
        ``t``, memoising that instant in ``_next_due``.

        Background-only runs are resolved without a single method call
        or attribute write — the decay ladder multiplies the usage
        vector in place, the argmin scans the per-VO heads, the winner
        bumps its VO cursor — and shared state is written back only at
        block boundaries: before a client start callback (which may
        re-enter this site) and at every exit.  The float sequence is
        exactly the one a per-start ``FairShareState.select`` /
        ``charge`` loop commits.

        On a one-VO site a background head that wins starts a *run*: the
        plain FIFO recurrence ``start = max(arrival, min core-free,
        floor)`` commits that VO's background entries inline until one
        arrives after the client head (background wins ties), a start
        passes ``t`` or the lane ends.  The run skips the decay ladder
        and the charge: with one VO every decision has one candidate,
        so its usage never decides anything (and :func:`multi_vo` keeps
        it unpublished).  Sites with two or more VOs never enter it.
        """
        fs = self.fairshare
        usage = fs._usage
        shares = fs.shares
        halflife = fs.halflife
        last = fs._last
        bga, bgr, bgc = self._bga, self._bgr, self._bgc
        clq = self._clq
        husks = self._vo_husks
        nvo = len(bgc)
        one = nvo == 1
        rng = range(nvo)
        rng1 = range(1, nvo)
        cf = self._core_free
        floor = self._dispatch_floor
        INF = _INF
        QUEUED = JobState.QUEUED
        heads = self._heads
        bheads = self._bheads
        cheads = self._cheads
        started = 0
        refill = self._mut != self._heads_mut
        while True:
            if refill:
                refill = False
                self._heads_mut = self._mut
                for v in rng:
                    a = bga[v]
                    c = bgc[v]
                    b = a[c] if c < len(a) else INF
                    bheads[v] = b
                    q = clq[v]
                    while q:
                        head = q[0]
                        if head.state is QUEUED:
                            j = head.queue_time
                            break
                        q.popleft()
                        husks[v] -= 1
                    else:
                        j = INF
                    cheads[v] = j
                    heads[v] = b if b <= j else j
            d = cf[0]
            if floor > d:
                d = floor
            if d > t:
                fs._last = last
                self._started += started
                self._next_due = d
                return
            a0 = heads[0]
            w = 0
            tie = False
            for v in rng1:
                h = heads[v]
                if h < a0:
                    a0 = h
                    w = v
                    tie = False
                elif h == a0:
                    tie = True
            if a0 > d:
                if a0 > t:
                    fs._last = last
                    self._started += started
                    self._next_due = a0  # inf when both lanes are empty
                    return
                d = a0  # idle core: the next arrival starts when it lands
                # only VOs whose head is a0 compete: a sole one wins
                # without the usage/share scan, a tie falls through to it
                v = -1 if tie else w
            else:
                v = -1
            if one and bheads[0] <= cheads[0]:
                # the one-VO run: commit the background run ahead of the
                # client head on locals, no decay ladder, no charge
                a = bga[0]
                rt = bgr[0]
                c = bgc[0]
                n = len(a)
                j = cheads[0]
                while True:
                    heapreplace(cf, d + rt[c])
                    c += 1
                    started += 1
                    if c == n:
                        b = INF
                        break
                    b = a[c]
                    if b > j:
                        break
                    d = cf[0]
                    if floor > d:
                        d = floor
                    if b > d:
                        d = b
                    if d > t:
                        break
                bgc[0] = c
                bheads[0] = b
                heads[0] = b if b <= j else j
                continue
            # the exact decay ladder the per-start loop commits
            if d > last:
                f = 0.5 ** ((d - last) / halflife)
                for k in rng:
                    usage[k] *= f
                last = d
            if v < 0:
                br = 0.0
                for u in rng:
                    if heads[u] <= d:
                        r = usage[u] / shares[u]
                        if v < 0 or r < br:
                            v = u
                            br = r
            b = bheads[v]
            if b <= cheads[v]:
                # the background head wins (ties go to background — the
                # arrival-order rule of the mixed queue)
                c = bgc[v]
                r = bgr[v][c]
                heapreplace(cf, d + r)
                usage[v] += r
                started += 1
                c += 1
                bgc[v] = c
                a = bga[v]
                nb = a[c] if c < len(a) else INF
                bheads[v] = nb
                j = cheads[v]
                heads[v] = nb if nb <= j else j
            else:
                q = clq[v]
                # cheads[v] names the first *QUEUED* client's arrival,
                # but cancelled husks may still sit in front of it (the
                # O(1) enqueue patch installs a head without scanning
                # the deque) — drop them at pop time, as the per-start
                # loop does
                job = q.popleft()
                while job.state is not QUEUED:
                    husks[v] -= 1
                    job = q.popleft()
                self._live_clients -= 1
                r = job.runtime
                heapreplace(cf, d + r)
                usage[v] += r
                started += 1
                # patch the winner's head rows before the start callback
                # so they stay valid for nested walks (and for the cheap
                # path below when the callback leaves the queues alone)
                while q:
                    head = q[0]
                    if head.state is QUEUED:
                        j = head.queue_time
                        break
                    q.popleft()
                    husks[v] -= 1
                else:
                    j = INF
                cheads[v] = j
                b = bheads[v]
                heads[v] = b if b <= j else j
                # block boundary: write shared state back before the
                # start callback — it may cancel siblings here, re-enter
                # _advance, or read telemetry
                fs._last = last
                self._started += started
                started = 0
                self._start_client(job, d)
                if not self.dispatch_enabled:
                    return  # end_outage resets the memo
                cf = self._core_free
                floor = self._dispatch_floor
                last = fs._last
                refill = self._mut != self._heads_mut

    # -- telemetry ---------------------------------------------------------

    @property
    def queue_length(self) -> int:
        self._advance()
        now = self.sim._now
        n = self._live_clients
        bga, bgc = self._bga, self._bgc
        for v in range(len(bgc)):
            n += bisect_right(bga[v], now, bgc[v]) - bgc[v]
        return n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FairShareVectorCE({self.name}, "
            f"cores={self.busy_cores}/{self.n_cores}, "
            f"queued={self.queue_length})"
        )
