"""Test-only oracles for the engine pairs that implement the same law.

Production grids run one implementation per law.  The alternatives live
here, as references the equivalence suites compare production against:

* :class:`EventSiteGrid` — a grid whose sites run on the fully
  event-driven :class:`~repro.gridsim.site.ComputingElement` (sites with
  fewer than two VOs) / :class:`~repro.gridsim.fairshare.FairShareComputingElement`
  instead of the one vector engine;
* :class:`ScalarFairShareCE` — the vector fair-share site with its fused
  block resolver replaced by the per-start ``FairShareState`` method
  loop, and its closed-form admission replaced by append-then-walk;
* :func:`run_population_taskcore` — the population driver held on the
  per-task TaskCore path even where the struct-of-arrays pool engages;
* :func:`chain_launches_rechaining` — the population launch walker with
  one heap event per launch instant instead of ``Simulator.claim``
  (:func:`rechaining_launches` installs it on both driver paths);
* :func:`audit_conservation_reference` — the conservation audit as a
  group-by over the ledger, one ``(task, [jobs])`` group per task;
* :func:`decompose_reference` — the latency decomposition with one
  ``jid -> t`` map per stamped kind behind a kind lookup, and a
  keyword-built record per completed task;
* :func:`lifo_ties` — the event kernel with same-instant events popped
  last-in first-out instead of first-in first-out;
* :func:`mw_totals`, :func:`pending_dispatches`,
  :func:`vo_queue_lengths` — the middleware's cross-broker counter
  totals, a batched broker's unresolved dispatches and a fair-share
  site's per-VO queues, readouts only tests take;
* :func:`eq1_expectation` … :func:`eq4_std` — the paper's Eqs. (1)–(4)
  transcribed as printed, the references for the geometric-sum moments
  of :mod:`repro.core.strategies`;
* :func:`delayed_expectation_for_t0` — one row of the delayed ``E_J``
  surface from a single 1-D pass, the reference for the batched band
  kernel;
* :func:`integrate`, :func:`table_rows`, :func:`series_named` — the
  whole-grid quadrature, table-row and curve readouts the tests compare
  experiment outputs with;
* :class:`OutageProcess` — an up/down renewal process that drives a
  site's outage hooks by hand.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from contextlib import contextmanager
from heapq import heapreplace
from unittest import mock

import numpy as np

from repro.core.model import GriddedLatencyModel
from repro.core.strategies import StrategyMoments
from repro.gridsim import chaos
from repro.gridsim.chaos import _IN_FLIGHT, _STARTED, ConservationReport
from repro.gridsim.events import Simulator
from repro.gridsim.fairshare import (
    FairShareComputingElement,
    FairShareVectorComputingElement,
)
from repro.gridsim.grid import (
    _WARM_CACHE,
    GridConfig,
    GridSimulator,
    GridSnapshot,
)
from repro.gridsim.jobs import Job, JobState
from repro.gridsim.site import ComputingElement
from repro.gridsim.tracing import TaskBreakdown
from repro.population import driver, soa
from repro.population.spec import PopulationSpec
from repro.util.grids import TimeGrid
from repro.util.rng import RngLike
from repro.util.series import Series, SeriesBundle
from repro.util.tables import Table
from repro.util.validation import check_positive, check_probability

#: every (site engine, WMS engine) corner a grid can be built on
CORNERS = [
    ("vector", "batched"),
    ("vector", "event"),
    ("event", "batched"),
    ("event", "event"),
]

_INF = float("inf")


class EventSiteGrid(GridSimulator):
    """A grid on the event-driven site oracles (same config, same seeds).

    A site declaring fewer than two VOs runs the plain event FIFO, so the
    production engine's one-VO lane is held to an engine that has no VO
    machinery at all; the others run the event fair-share engine.
    """

    def _build_site(self, sc):
        if len(sc.vo_shares) >= 2:
            return FairShareComputingElement(
                sc.name,
                sc.n_cores,
                self.sim,
                vo_shares=sc.vo_shares,
                fairshare_halflife=self.config.fairshare_halflife,
                on_start=self._notify_start,
            )
        return ComputingElement(
            sc.name, sc.n_cores, self.sim, on_start=self._notify_start
        )


_GRID_CLS = {"vector": GridSimulator, "event": EventSiteGrid}


def make_grid(
    config: GridConfig, seed: RngLike = None, site_engine: str = "vector"
) -> GridSimulator:
    """Build ``config`` on the named site engine."""
    return _GRID_CLS[site_engine](config, seed=seed)


def engine_pair(
    config: GridConfig, seed: int
) -> tuple[GridSimulator, GridSimulator]:
    """The same grid on the vector engine and on the event oracle."""
    return make_grid(config, seed, "vector"), make_grid(config, seed, "event")


def warmed_snapshot_on(
    config: GridConfig, seed: int, duration: float, site_engine: str = "vector"
) -> GridSnapshot:
    """A warmed-grid snapshot built on the named site engine."""
    grid = make_grid(config, seed, site_engine)
    grid.warm_up(duration)
    return grid.snapshot()


def chaos_on(site_engine: str):
    """Context in which :func:`~repro.gridsim.chaos.run_chaos` builds its
    grid on the named site engine."""
    return mock.patch.object(chaos, "GridSimulator", _GRID_CLS[site_engine])


class ScalarFairShareCE(FairShareVectorComputingElement):
    """Per-start oracle of the fair-share block resolver and admission.

    One start per iteration through the :class:`FairShareState` method
    calls — ``select`` then ``charge`` at the same decision instant, the
    call sequence both fair-share engines have always committed.  Every
    client joins its VO FIFO and is started (if at all) by that loop:
    ``enqueue_many`` is a loop over ``enqueue``, which appends and then
    walks.  The production block path and closed-form admission must
    replay this oracle's float ladder bit-for-bit.
    """

    def enqueue(self, job: Job) -> None:
        if job.state not in (JobState.MATCHING, JobState.CREATED):
            raise ValueError(f"cannot enqueue job in state {job.state}")
        if self.black_hole:
            self._fail_now(job)
            return
        now = self.sim._now
        job.state = JobState.QUEUED
        job.site = self.name
        job.queue_time = now
        # commit what is due first: a start at d == now must not see
        # the newcomer as a candidate
        if now >= self._next_due:
            self._advance()
        self._clq[self.fairshare.index_of(job.vo)].append(job)
        self._live_clients += 1
        e = self._core_free[0]
        if self._dispatch_floor > e:
            e = self._dispatch_floor
        if e <= now:
            self._next_due = 0.0  # a core is free: walk now
            self._advance()
        elif e < self._next_due:
            self._next_due = e  # no start before the next core release
        if job.state is JobState.QUEUED:
            self._ensure_wake()

    def _commit_block(self, t: float) -> None:
        fs = self.fairshare
        bga, bgr, bgc = self._bga, self._bgr, self._bgc
        clq = self._clq
        husks = self._vo_husks
        nvo = len(bgc)
        QUEUED = JobState.QUEUED
        # this path pops queues without maintaining the cached head rows
        self._heads_mut = -1
        while True:
            cf = self._core_free
            d = cf[0]
            if self._dispatch_floor > d:
                d = self._dispatch_floor
            if d > t:
                self._next_due = d
                return
            # per-VO head arrivals: background vs first live client,
            # background winning exact ties (arrival order)
            heads = []
            a0 = _INF
            for v in range(nvo):
                a = bga[v]
                c = bgc[v]
                b = a[c] if c < len(a) else _INF
                q = clq[v]
                while q and q[0].state is not QUEUED:
                    q.popleft()
                    husks[v] -= 1
                j = q[0].queue_time if q else _INF
                arr = b if b <= j else j
                heads.append((arr, b))
                if arr < a0:
                    a0 = arr
            if a0 > d:
                if a0 > t:
                    self._next_due = a0  # inf when both lanes are empty
                    return
                d = a0  # idle core: the next arrival starts when it lands
            candidates = [v for v in range(nvo) if heads[v][0] <= d]
            v = fs.select(candidates, d)
            arr, b = heads[v]
            if b <= arr:  # the background head wins its VO slot
                c = bgc[v]
                r = bgr[v][c]
                heapreplace(cf, d + r)
                fs.charge(v, r, d)
                bgc[v] = c + 1
                self._started += 1
            else:
                job = clq[v].popleft()
                self._live_clients -= 1
                heapreplace(cf, d + job.runtime)
                fs.charge(v, job.runtime, d)
                self._started += 1
                self._start_client(job, d)
                # the callback may cancel siblings here or close the
                # gate — state is re-read from self at the loop head
                if not self.dispatch_enabled:
                    return


def use_scalar_commits(grid: GridSimulator) -> None:
    """Switch every vector fair-share site of ``grid`` to the scalar oracle."""
    for site in grid.sites:
        if type(site) is FairShareVectorComputingElement:
            site.__class__ = ScalarFairShareCE


def run_population_taskcore(
    grid: GridSimulator,
    spec: PopulationSpec,
    *,
    seed: RngLike = 0,
    horizon_slack: float = 100_000.0,
) -> driver.PopulationResult:
    """:func:`~repro.population.run_population` on per-task TaskCores only."""
    return driver._run_population(
        grid, spec, seed=seed, horizon_slack=horizon_slack, pool=False
    )


def chain_launches_rechaining(sim, launch_times, start: float, launch) -> None:
    """Reference for :func:`~repro.population.soa.chain_launches`.

    The walker re-chains itself with one ``schedule_at`` per distinct
    launch instant, so every instant takes a heap round trip and draws
    a sequence number.  The claiming walker must fire the same launches
    in the same order relative to every other event, with the same
    ``events_processed``.
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


@contextmanager
def rechaining_launches():
    """Run the pool and the TaskCore driver on the re-chaining walker."""
    with mock.patch.object(
        soa, "chain_launches", chain_launches_rechaining
    ), mock.patch.object(driver, "chain_launches", chain_launches_rechaining):
        yield


@contextmanager
def lifo_ties():
    """Run every new :class:`Simulator` with a last-in first-out tie-break.

    No model rule orders events that share an instant; the kernel pops
    them in scheduling order only because its sequence numbers count up.
    Inside this context they count down, so same-instant events pop in
    the reverse order.  A result that holds under both orders does not
    hinge on that implementation choice.  The warmed-snapshot cache is
    emptied for the duration (and restored after), so warm-ups run under
    the flipped order too rather than forking a first-in first-out one.
    """
    init = Simulator.__init__

    def lifo_init(self) -> None:
        init(self)
        self._seq = itertools.count(0, -1)

    with mock.patch.object(Simulator, "__init__", lifo_init), mock.patch.dict(
        _WARM_CACHE, clear=True
    ):
        yield


def pending_dispatches(wms) -> int:
    """Jobs a batched broker holds in unresolved dispatch buckets.

    Cancelled husks still sit in their bucket until its boundary; only
    jobs still matching count.
    """
    return sum(
        1
        for bucket in wms._buckets.values()
        for _, job in bucket
        if job.state is JobState.MATCHING
    )


def vo_queue_lengths(site) -> dict[str, int]:
    """Waiting jobs per VO on a fair-share site, husks discounted.

    Reads the event engine's per-VO queues directly; on the vector engine
    it first reconciles the background lane to now and counts the
    background arrivals due but not yet started.
    """
    names = site.fairshare.names
    if isinstance(site, FairShareComputingElement):
        return {
            n: len(q) - h
            for n, q, h in zip(names, site._vo_queues, site._vo_husks)
        }
    site._advance()
    now = site.sim._now
    out = {}
    for v, name in enumerate(names):
        c = site._bgc[v]
        n_bg = bisect_right(site._bga[v], now, c) - c
        out[name] = n_bg + len(site._clq[v]) - site._vo_husks[v]
    return out


def mw_totals(grid: GridSimulator) -> dict:
    """Cross-broker middleware counter totals of ``grid``.

    Plain ints summed over the per-broker registry counters, plus the
    breaker trips and the duplicate count.
    """
    mw = grid._mw
    out = {k: sum(c.value for c in cs) for k, cs in mw.counters.items()}
    out["breaker_trips"] = sum(b.trips for b in mw.breakers)
    out["duplicates"] = mw.duplicates
    return out


def audit_conservation_reference(grid: GridSimulator) -> ConservationReport:
    """Reference for :func:`~repro.gridsim.chaos.audit_conservation`.

    Groups the ledger per task, then checks each group; the production
    audit must return an equal report, violations in the same order.
    """
    ledger = grid.task_ledger
    if ledger is None:
        raise RuntimeError(
            "no task ledger: call grid.enable_task_ledger() before the "
            "campaign you want audited"
        )
    violations: list[str] = []
    groups: dict[int, tuple[object, list]] = {}
    for task, job in ledger:
        groups.setdefault(id(task), (task, []))[1].append(job)
    by_state: dict[str, int] = {}
    done_tasks = 0
    dup_live = 0
    for task, jobs in groups.values():
        label = f"task@{id(task):#x}"
        if len(jobs) != task.jobs_used:
            violations.append(
                f"{label}: {len(jobs)} ledgered copies but jobs_used="
                f"{task.jobs_used} (copies minted off the books?)"
            )
        if len(set(map(id, jobs))) != len(jobs):
            violations.append(f"{label}: a copy was ledgered twice")
        started = [j for j in jobs if j.state in _STARTED]
        in_flight = [j for j in jobs if j.state in _IN_FLIGHT]
        for j in jobs:
            by_state[j.state.value] = by_state.get(j.state.value, 0) + 1
            if j.duplicate:
                dup_live += 1
                # the winner is the copy that started; an outage may kill
                # it afterwards (CANCELLED/FAILED with a start time), and
                # it still won — the task settled on it
                if not (task.done and not math.isnan(j.start_time)):
                    violations.append(
                        f"{label}: duplicate {j!r} neither reconciled by "
                        "sibling-cancel nor the task's winner"
                    )
        if task.done:
            done_tasks += 1
            if len(started) > 1:
                violations.append(
                    f"{label}: done with {len(started)} started copies "
                    "(sibling-cancel raced a second start)"
                )
            if in_flight:
                violations.append(
                    f"{label}: done but {len(in_flight)} copies still "
                    f"in flight ({', '.join(j.state.value for j in in_flight)})"
                )
        else:
            violations.append(
                f"{label}: not settled — finish or expire() every task "
                "before auditing"
            )
    mw = grid._mw
    if mw is not None:
        if mw.duplicates != grid.duplicates_reconciled + dup_live:
            violations.append(
                f"duplicate ledger leak: minted {mw.duplicates}, "
                f"reconciled {grid.duplicates_reconciled}, "
                f"{dup_live} won — the books don't balance"
            )
        attempts = sum(t.client_attempts for t, _ in groups.values())
        if attempts != grid.jobs_submitted:
            violations.append(
                f"attempt counters disagree: tasks made {attempts} "
                f"attempts, grid counted {grid.jobs_submitted}"
            )
    elif len(ledger) != grid.jobs_submitted:
        violations.append(
            f"ledger holds {len(ledger)} copies but the grid counted "
            f"{grid.jobs_submitted} submissions"
        )
    return ConservationReport(
        tasks=len(groups),
        done_tasks=done_tasks,
        jobs=len(ledger),
        by_state=by_state,
        duplicates=mw.duplicates if mw is not None else 0,
        duplicates_reconciled=grid.duplicates_reconciled,
        violations=tuple(violations),
    )


def decompose_reference(events) -> list[TaskBreakdown]:
    """Reference for :func:`~repro.gridsim.tracing.decompose`.

    Stamps with a negative job id are never filed, so a winner without
    one falls back along its whole span; the production pass must return
    equal records, floats equal.
    """
    tasks: dict[int, tuple] = {}
    complete: dict[int, tuple] = {}
    # one jid -> t map per stamped kind; last write wins: a retried
    # job's fresh submit supersedes
    submit: dict[int, float] = {}
    enqueue: dict[int, float] = {}
    start: dict[int, float] = {}
    stamps = {"submit": submit, "enqueue": enqueue, "start": start}
    for kind, t, tid, jid, aux in events:
        if kind == "task":
            tasks[tid] = (t, aux[0], aux[1], aux[2])
        elif kind == "complete":
            complete[tid] = (t, jid)
        else:
            stamp = stamps.get(kind)
            if stamp is not None and jid >= 0:
                stamp[jid] = t
    out = []
    for tid in sorted(complete):
        t_done, winner = complete[tid]
        t0, label, vo, runtime = tasks[tid]
        t_submit = submit.get(winner, t0)
        t_enqueue = enqueue.get(winner, t_submit)
        t_start = start.get(winner, t_done)
        out.append(
            TaskBreakdown(
                task_id=tid,
                label=label,
                vo=vo,
                runtime=runtime,
                t_launch=t0,
                retry_loss=t_submit - t0,
                middleware=t_enqueue - t_submit,
                queue_wait=t_start - t_enqueue,
                makespan=t_done - t0,
            )
        )
    return out


# -- references for the analytic layer ------------------------------------


def integrate(grid: TimeGrid, y) -> float:
    """Trapezoid integral of ``y`` over the whole of ``grid``.

    The quadrature the survival-curve tests compare closed forms against,
    e.g. ``E[J] = ∫ P(J > t) dt``.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape[-1] != grid.n:
        raise ValueError(
            f"integrand has {y.shape[-1]} samples, grid has {grid.n} points"
        )
    if y.size < 2:
        return 0.0
    return float((y[1:] + y[:-1]).sum() * 0.5 * grid.dt)


def eq1_expectation(model: GriddedLatencyModel, t_inf: float) -> float:
    """Eq. (1) as printed: ``E_J = (1/F̃(t∞)) ∫₀^{t∞} (1-F̃(u)) du``."""
    k = model.index_of(t_inf)
    p = float(model.F[k])
    if p <= 0.0:
        return float("inf")
    return float(model.A[k] / p)


def eq2_std(model: GriddedLatencyModel, t_inf: float) -> float:
    """Eq. (2) exactly as printed (three-term variance expression)."""
    k = model.index_of(t_inf)
    p = float(model.F[k])
    if p <= 0.0:
        return float("inf")
    t = float(model.times[k])
    s = model.S
    a = float(model.A[k])  # ∫ (1-F̃)
    u_int = float(model.grid.cumint(model.times * s)[k])  # ∫ u(1-F̃)
    var = (
        -(1.0 / p**2) * a**2
        + (2.0 / p) * u_int
        + (2.0 * t * (1.0 - p) / p**2) * a
    )
    return float(np.sqrt(max(0.0, var)))


def single_moments_reference(
    model: GriddedLatencyModel, t_inf: float
) -> StrategyMoments:
    """Eqs. (1)–(2) from the model's ``F``, ``A`` and ``A1`` alone.

    The single-resubmission moments as they were computed before single
    resubmission became the ``b = 1`` burst: per-round success ``F̃(t∞)``
    and the truncated moments ``∫u·f̃ = A - t·S``, ``∫u²·f̃ = 2·A1 - t²·S``
    by parts.  :func:`~repro.core.strategies.multiple_moments` at ``b = 1``
    must reproduce it bit for bit.
    """
    k = model.index_of(t_inf)
    p = float(model.F[k])
    if p <= 0.0:
        return StrategyMoments(expectation=float("inf"), std=float("inf"))
    t = model.times[k]
    q = 1.0 - p
    m1 = float((model.A - model.times * model.S)[k])
    m2 = float((2.0 * model.A1 - model.times**2 * model.S)[k])
    e_j = (t * q + m1) / p
    e_j2 = (t**2) * q * (1.0 + q) / p**2 + 2.0 * t * q * m1 / p**2 + m2 / p
    return StrategyMoments(
        expectation=e_j, std=float(np.sqrt(max(0.0, e_j2 - e_j**2)))
    )


def eq3_expectation(model: GriddedLatencyModel, b: int, t_inf: float) -> float:
    """Eq. (3) as printed: Eq. (1) with ``F̃ → 1-(1-F̃)^b``."""
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    k = model.index_of(t_inf)
    surv_b = model.S**b
    p = float(1.0 - surv_b[k])
    if p <= 0.0:
        return float("inf")
    a_b = float(model.grid.cumint(surv_b)[k])
    return a_b / p


def eq4_std(model: GriddedLatencyModel, b: int, t_inf: float) -> float:
    """Eq. (4) exactly as printed."""
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    k = model.index_of(t_inf)
    surv_b = model.S**b
    p = float(1.0 - surv_b[k])
    if p <= 0.0:
        return float("inf")
    t = float(model.times[k])
    q = 1.0 - p  # (1-F̃(t∞))^b
    a_b = float(model.grid.cumint(surv_b)[k])
    u_int = float(model.grid.cumint(model.times * surv_b)[k])
    var = (2.0 / p) * u_int + (2.0 * t * q / p**2) * a_b - (1.0 / p**2) * a_b**2
    return float(np.sqrt(max(0.0, var)))


def delayed_expectation_for_t0(model: GriddedLatencyModel, k0: int) -> np.ndarray:
    """Reference for one row of :func:`~repro.core.strategies.delayed.delayed_expectation_bands`.

    ``E_J`` for fixed ``t0`` (grid index ``k0``) at every ``t∞`` of the
    grid: one shifted product and one cumulative sum per row.  Entries
    outside ``t0 <= t∞ <= min(2·t0, t_max)`` or with ``F̃(t∞) = 0`` are
    ``+inf``.  The production kernel evaluates blocks of rows in shared
    2-D passes and caches them on the model.
    """
    n = model.grid.n
    if not 1 <= k0 < n:
        raise ValueError(f"t0 index {k0} outside grid (1..{n - 1})")
    S = model.S
    out = np.full(n, np.inf)
    hi = min(2 * k0, n - 1)
    ks = np.arange(k0, hi + 1)
    # G0(v) = S(v)·S(v - t0) on v >= t0 ; ∫_{t0}^{t_k} G0 = c[k] - c[k0]
    g0 = np.zeros(n)
    g0[k0:] = S[k0:] * S[: n - k0]
    c = model.grid.cumint(g0)
    a = model.A
    d = a[k0] - a[ks - k0]  # ∫_{t∞-t0}^{t0} S(u) du
    p = model.F[ks]
    q = S[ks]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = a[k0] + ((c[ks] - c[k0]) + q * d) / p
    out[ks] = np.where(p > 0.0, vals, np.inf)
    return out


def table_rows(table: Table) -> list[dict]:
    """Rows of a rendered experiment table as dicts keyed by column name."""
    return [dict(zip(table.columns, row)) for row in table.rows]


def series_named(bundle: SeriesBundle, label: str) -> Series:
    """The curve of ``bundle`` with the given label."""
    for s in bundle.series:
        if s.label == label:
            return s
    raise KeyError(f"no series labelled {label!r} in {bundle.title!r}")


class OutageProcess:
    """Alternating up/down renewal process attached to one site.

    Up durations are exponential with mean ``mean_uptime``; outage
    durations exponential with mean ``mean_downtime``.  An outage closes
    the site's dispatch gate (queued jobs stall) and kills each running
    job with probability ``kill_running``; recovery reopens the gate.
    Product runs take site outages from the storm process of
    :mod:`repro.gridsim.weather`; this process drives the same
    ``begin_outage``/``end_outage`` hooks by hand, so the engine
    equivalence suites can place outages on a quiet grid.
    """

    def __init__(
        self,
        site,
        sim: Simulator,
        rng: np.random.Generator,
        *,
        mean_uptime: float = 5 * 86_400.0,
        mean_downtime: float = 4 * 3600.0,
        kill_running: float = 0.5,
    ) -> None:
        check_positive("mean_uptime", mean_uptime)
        check_positive("mean_downtime", mean_downtime)
        check_probability("kill_running", kill_running)
        self.site = site
        self.sim = sim
        self.rng = rng
        self.mean_uptime = mean_uptime
        self.mean_downtime = mean_downtime
        self.kill_running = kill_running
        self.is_down = False
        self.outages_started = 0
        #: jobs this process's outages killed mid-run (both lanes)
        self.jobs_killed = 0

    def start(self) -> None:
        """Arm the process (first outage after one up period)."""
        self.sim.schedule(
            float(self.rng.exponential(self.mean_uptime)), self._go_down
        )

    def _go_down(self) -> None:
        self.is_down = True
        self.outages_started += 1
        before = self.site.jobs_killed
        self.site.begin_outage(self.rng, self.kill_running)
        self.jobs_killed += self.site.jobs_killed - before
        self.sim.schedule(
            float(self.rng.exponential(self.mean_downtime)), self._come_up
        )

    def _come_up(self) -> None:
        self.is_down = False
        self.site.end_outage()
        self.sim.schedule(
            float(self.rng.exponential(self.mean_uptime)), self._go_down
        )
