"""Deterministic chaos harness: seeded fault schedules + conservation audit.

The middleware fault domain (broker outages, at-least-once submission
faults, client retries and failover) multiplies the ways a task's copies
can end — started, cancelled by sibling-cancel, lost to a fault channel,
rejected out of retry budget, or minted as a lost-ack duplicate and
reconciled later.  This module is the race detector for all of it:

* :func:`fault_schedule` turns ``(base config, seed)`` into a
  reproducible chaos regime — scheduled broker outages, submission-path
  faults and a retry policy, every parameter drawn from one seeded
  generator so a failing schedule replays exactly;
* :func:`standard_schedules` names the three hand-built acceptance
  scenarios (broker outage mid-dispatch-bucket, duplicate-on-retry,
  storm hitting broker and owned sites together);
* :func:`run_chaos` runs a mixed-strategy campaign under a schedule
  with the grid's task ledger enabled, then audits it;
* :func:`audit_conservation` replays the ledger and proves every task
  is accounted for **exactly once**: every minted copy belongs to
  exactly one task, done tasks hold exactly one started copy and no
  in-flight stragglers, duplicates are reconciled or won, and the
  grid-level attempt counters foot with the per-task ones;
* :func:`chaos_matrix` sweeps schedules across both WMS dispatch laws
  — the CI smoke job (``repro chaos --matrix``) runs this.

Everything is deterministic given ``(config, seed)``; no wall clocks,
no unseeded randomness.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.strategies import (
    DelayedResubmission,
    MultipleSubmission,
    SingleResubmission,
)
from repro.gridsim.client import _run_campaign
from repro.gridsim.faults import FaultModel, SubmitFaultConfig
from repro.gridsim.federation import BrokerConfig
from repro.gridsim.grid import (
    _WMS_ENGINES,
    GridConfig,
    GridSimulator,
    SiteConfig,
)
from repro.gridsim.jobs import JobState
from repro.gridsim.middleware import RetryPolicy
from repro.gridsim.weather import (
    BrokerOutageConfig,
    StormConfig,
    WeatherConfig,
)
from repro.util.validation import check_int_at_least, check_positive

__all__ = [
    "ChaosResult",
    "ConservationReport",
    "audit_conservation",
    "chaos_grid_config",
    "chaos_matrix",
    "fault_schedule",
    "run_chaos",
    "standard_schedules",
]

def chaos_grid_config(
    *,
    n_sites: int = 4,
    n_brokers: int = 2,
    seed: int = 7,
    utilization: float = 0.8,
    p_lost: float = 0.02,
    p_stuck: float = 0.02,
) -> GridConfig:
    """A small federated grid the chaos schedules perturb.

    Sites declare no VO shares, so each runs the fair-share engine with
    one VO, whose FIFO lane skips the decay ladder and keeps runs fast;
    two brokers give failover somewhere to go.  Deterministic given
    ``seed``.
    """
    check_int_at_least("n_sites", n_sites, 1)
    if not 1 <= n_brokers <= n_sites:
        raise ValueError(
            f"n_brokers must be in [1, n_sites={n_sites}], got {n_brokers}"
        )
    rng = np.random.default_rng(seed)
    cores_choices = np.array([8, 16, 24, 32, 48])
    sites = tuple(
        SiteConfig(
            name=f"ce{i:02d}",
            n_cores=int(rng.choice(cores_choices)),
            utilization=float(utilization * rng.uniform(0.9, 1.05)),
            runtime_median=float(rng.uniform(1800.0, 5400.0)),
            runtime_sigma=float(rng.uniform(0.6, 1.0)),
        )
        for i in range(n_sites)
    )
    bounds = np.linspace(0, n_sites, n_brokers + 1).round().astype(int)
    brokers = tuple(
        BrokerConfig(
            name=f"wms-{k}",
            sites=tuple(s.name for s in sites[bounds[k] : bounds[k + 1]]),
            info_lag=600.0,
        )
        for k in range(n_brokers)
    )
    return GridConfig(
        sites=sites,
        faults=FaultModel(p_lost=p_lost, p_stuck=p_stuck),
        brokers=brokers,
    )


def fault_schedule(
    base: GridConfig,
    seed: int,
    *,
    start: float = 6 * 3600.0,
    window: float = 4 * 3600.0,
    n_broker_outages: int = 2,
    mean_outage: float = 1_800.0,
    p_fail: float = 0.15,
    p_landed: float = 0.5,
    retry: RetryPolicy | None = RetryPolicy(),
) -> GridConfig:
    """Generate a seeded chaos regime on top of ``base``.

    Draws ``n_broker_outages`` scheduled broker-outage windows (random
    broker, start uniform in ``[start, start+window)``, exponential
    duration, random reject/black-hole mode) and layers the
    submission-path fault channel plus ``retry`` on top.  The same
    ``(base, seed)`` always yields the same config — a failing chaos run
    replays bit-for-bit.
    """
    if not base.brokers:
        raise ValueError("fault_schedule needs a federated base config")
    check_positive("window", window)
    rng = np.random.default_rng(seed)
    names = [b.name for b in base.brokers]
    outages = []
    for _ in range(n_broker_outages):
        broker = names[int(rng.integers(len(names)))]
        t0 = float(start + rng.uniform(0.0, window))
        duration = float(60.0 + rng.exponential(mean_outage))
        mode = "reject" if rng.random() < 0.5 else "black-hole"
        outages.append(
            BrokerOutageConfig(
                broker=broker, start=t0, duration=duration, mode=mode
            )
        )
    prev = base.weather
    weather = WeatherConfig(
        storm=prev.storm if prev is not None else None,
        black_holes=prev.black_holes if prev is not None else (),
        broker_outages=tuple(outages),
    )
    return dataclasses.replace(
        base,
        weather=weather,
        submit_faults=SubmitFaultConfig(p_fail=p_fail, p_landed=p_landed),
        retry=retry,
    )


def standard_schedules(
    base: GridConfig, *, start: float = 6 * 3600.0
) -> list[tuple[str, GridConfig]]:
    """The three named acceptance scenarios, built on ``base``.

    * ``outage-mid-bucket`` — a scheduled reject outage opening at an
      instant that is *not* a dispatch-quantum boundary, so the batched
      lane has a half-filled bucket in flight when the broker dies;
    * ``dup-on-retry`` — a flaky submission path where most failures
      actually landed: every retry is a potential duplicate;
    * ``storm-broker-site`` — storms that take a broker down *together
      with* a site subset (shared cause), in black-hole mode, so clients
      burn their submit timeout learning the broker is gone.
    """
    if not base.brokers:
        raise ValueError("standard_schedules needs a federated base config")
    retry = RetryPolicy(
        max_attempts=4,
        backoff_base=30.0,
        backoff_max=600.0,
        submit_timeout=120.0,
        breaker_threshold=2,
        breaker_reset=900.0,
    )
    first = base.brokers[0].name
    # deliberately off-boundary: the default dispatch quantum is
    # info_refresh/16 = 18.75 s, and start+101.3 is aligned to neither
    mid_bucket = dataclasses.replace(
        base,
        weather=WeatherConfig(
            broker_outages=(
                BrokerOutageConfig(
                    broker=first,
                    start=start + 101.3,
                    duration=2_700.0,
                    mode="reject",
                ),
                BrokerOutageConfig(
                    broker=first,
                    start=start + 7_200.0,
                    duration=1_800.0,
                    mode="black-hole",
                ),
            )
        ),
        retry=retry,
    )
    dup_on_retry = dataclasses.replace(
        base,
        submit_faults=SubmitFaultConfig(p_fail=0.35, p_landed=0.6),
        retry=retry,
    )
    storm_both = dataclasses.replace(
        base,
        weather=WeatherConfig(
            storm=StormConfig(
                mean_interval=5_400.0,
                mean_duration=1_800.0,
                subset_size=min(2, len(base.sites)),
                kill_running=0.3,
                broker_prob=1.0,
                broker_mode="black-hole",
            )
        ),
        submit_faults=SubmitFaultConfig(p_fail=0.1, p_landed=0.5),
        retry=retry,
    )
    return [
        ("outage-mid-bucket", mid_bucket),
        ("dup-on-retry", dup_on_retry),
        ("storm-broker-site", storm_both),
    ]


# -- conservation audit ----------------------------------------------------


@dataclass(frozen=True)
class ConservationReport:
    """Outcome of one task-conservation audit.

    ``by_state`` partitions every ledgered job by its final state;
    ``violations`` is empty iff every task is accounted for exactly
    once (see :func:`audit_conservation` for the invariants).
    """

    tasks: int
    done_tasks: int
    jobs: int
    by_state: dict = field(default_factory=dict)
    duplicates: int = 0
    duplicates_reconciled: int = 0
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True iff the audit found no violations."""
        return not self.violations


_STARTED = (JobState.RUNNING, JobState.COMPLETED)
_IN_FLIGHT = (JobState.CREATED, JobState.MATCHING, JobState.QUEUED)


def audit_conservation(grid: GridSimulator) -> ConservationReport:
    """Prove every ledgered task is accounted for exactly once.

    Requires :meth:`GridSimulator.enable_task_ledger` to have been on
    for the whole campaign, every submission to have gone through a
    :class:`~repro.gridsim.client.TaskCore`, and every task to be
    settled (finished or expired) before the audit.  Checked invariants:

    * every task's ledger entries match its ``jobs_used`` counter — no
      copy minted off the books, none double-registered;
    * a done task holds **at most one** started copy (RUNNING or
      COMPLETED — the winner) and **no** in-flight copies (CREATED /
      MATCHING / QUEUED): sibling-cancel really settled everything,
      including retry sagas and lost-ack duplicates;
    * every at-least-once duplicate was either reconciled by
      sibling-cancel or *is* the task's winner — and the reconciliation
      counters foot with the mint counter;
    * the grid's submission counter foots with the per-task attempt
      counters (middleware grids) or the ledger size (plain grids).
    """
    ledger = grid.task_ledger
    if ledger is None:
        raise RuntimeError(
            "no task ledger: call grid.enable_task_ledger() before the "
            "campaign you want audited"
        )
    # One pass over the ledger into int-keyed accumulators, then one
    # pass over the tasks in first-ledger order.  The per-task tallies
    # hold only ints, so a ledger of any size allocates no tracked
    # object per task and wakes no collector pass over the heap the
    # campaign left behind; labels and state names are built for
    # violating tasks only.
    tasks: list = []  # in first-ledger order
    copies: dict[int, int] = {}
    started: dict[int, int] = {}
    # (id(job) << 64) | id(task) per ledger entry: a copy filed twice
    # under the same task is ledgered twice
    seen: set[int] = set()
    twice: set[int] = set()
    stray: dict[int, list] = {}  # done task -> its in-flight copies
    dup_bad: dict[int, list] = {}  # task -> unreconciled duplicates
    # final state value -> jobs, in first-seen order; keyed by the
    # member's str value, whose hash is cached, not by the member, whose
    # Enum.__hash__ is a Python call per ledger entry
    counts: dict[str, int] = {}
    dup_live = 0
    for task, job in ledger:
        tid = id(task)
        n = copies.get(tid)
        if n is None:
            copies[tid] = 1
            tasks.append(task)
        else:
            copies[tid] = n + 1
        key = id(job) << 64 | tid
        if key in seen:
            twice.add(tid)
        else:
            seen.add(key)
        state = job.state
        value = state._value_
        counts[value] = counts.get(value, 0) + 1
        if state in _STARTED:
            started[tid] = started.get(tid, 0) + 1
        elif state in _IN_FLIGHT and task.done:
            stray.setdefault(tid, []).append(job)
        if job.duplicate:
            dup_live += 1
            # the winner is the copy that started; an outage may kill it
            # afterwards (CANCELLED/FAILED with a start time), and it
            # still won — the task settled on it
            if not (task.done and not math.isnan(job.start_time)):
                dup_bad.setdefault(tid, []).append(job)
    violations: list[str] = []
    done_tasks = 0
    for task in tasks:
        tid = id(task)
        n = copies[tid]
        if n != task.jobs_used:
            violations.append(
                f"task@{tid:#x}: {n} ledgered copies but jobs_used="
                f"{task.jobs_used} (copies minted off the books?)"
            )
        if tid in twice:
            violations.append(f"task@{tid:#x}: a copy was ledgered twice")
        for j in dup_bad.get(tid, ()):
            violations.append(
                f"task@{tid:#x}: duplicate {j!r} neither reconciled by "
                "sibling-cancel nor the task's winner"
            )
        if task.done:
            done_tasks += 1
            s = started.get(tid, 0)
            if s > 1:
                violations.append(
                    f"task@{tid:#x}: done with {s} started copies "
                    "(sibling-cancel raced a second start)"
                )
            if tid in stray:
                late = stray[tid]
                violations.append(
                    f"task@{tid:#x}: done but {len(late)} copies still "
                    f"in flight ({', '.join(j.state.value for j in late)})"
                )
        else:
            violations.append(
                f"task@{tid:#x}: not settled — finish or expire() every "
                "task before auditing"
            )
    mw = grid._mw
    if mw is not None:
        if mw.duplicates != grid.duplicates_reconciled + dup_live:
            violations.append(
                f"duplicate ledger leak: minted {mw.duplicates}, "
                f"reconciled {grid.duplicates_reconciled}, "
                f"{dup_live} won — the books don't balance"
            )
        attempts = sum(t.client_attempts for t in tasks)
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
        tasks=len(tasks),
        done_tasks=done_tasks,
        jobs=len(ledger),
        by_state=counts,
        duplicates=mw.duplicates if mw is not None else 0,
        duplicates_reconciled=grid.duplicates_reconciled,
        violations=tuple(violations),
    )


# -- chaos campaigns -------------------------------------------------------


@dataclass(frozen=True)
class ChaosResult:
    """One chaos campaign: outcome stats + its conservation report."""

    finished: int
    gave_up: int
    mean_latency: float
    report: ConservationReport
    weather: dict
    #: recorded lifecycle events when ``config.tracing`` was on
    #: (see :mod:`repro.gridsim.tracing`); empty otherwise
    events: tuple = ()

    @property
    def ok(self) -> bool:
        """True iff the conservation audit passed."""
        return self.report.ok


def run_chaos(
    config: GridConfig,
    *,
    seed: int = 11,
    n_tasks: int = 60,
    warm: float = 6 * 3600.0,
    task_interval: float = 180.0,
    runtime: float = 600.0,
    t_inf: float = 1_800.0,
    horizon: float = 10 * 3600.0,
) -> ChaosResult:
    """Run a mixed-strategy campaign under ``config`` and audit it.

    Tasks cycle through the paper's three strategies (single, multiple
    ``b=2``, delayed) so sibling-cancel, burst submission and staggered
    copies all meet the fault schedule.  Unfinished tasks are expired at
    the horizon (their in-flight copies cancelled — exactly what a
    giving-up client does), then the task ledger is audited.
    """
    check_int_at_least("n_tasks", n_tasks, 1)
    grid = GridSimulator(config, seed=seed)
    grid.warm_up(warm)
    grid.enable_task_ledger()
    strategies = (
        SingleResubmission(t_inf=t_inf),
        MultipleSubmission(b=2, t_inf=t_inf),
        DelayedResubmission(t0=t_inf / 1.5, t_inf=t_inf),
    )
    results, tasks = _run_campaign(
        grid, strategies, n_tasks, task_interval, runtime, horizon
    )
    for task in tasks:
        task.expire()
    report = audit_conservation(grid)
    j = np.array([r[0] for r in results])
    return ChaosResult(
        finished=len(results),
        gave_up=n_tasks - len(results),
        mean_latency=float(j.mean()) if j.size else float("nan"),
        report=report,
        weather=grid.weather_report(),
        events=tuple(grid._tr.events) if grid._tr is not None else (),
    )


def chaos_matrix(
    base: GridConfig | None = None,
    schedules: list[tuple[str, GridConfig]] | None = None,
    *,
    seed: int = 11,
    n_tasks: int = 45,
    warm: float = 6 * 3600.0,
    horizon: float = 10 * 3600.0,
) -> list[dict]:
    """Audit every schedule under both WMS engines.

    Returns one row dict per (corner, schedule) with the campaign stats
    and the audit outcome; callers decide what a violation means.
    """
    if base is None:
        base = chaos_grid_config()
    if schedules is None:
        schedules = standard_schedules(base, start=warm)
    rows = []
    for wms_engine in _WMS_ENGINES:
        for name, cfg in schedules:
            out = run_chaos(
                dataclasses.replace(cfg, wms_engine=wms_engine),
                seed=seed,
                n_tasks=n_tasks,
                warm=warm,
                horizon=horizon,
            )
            rows.append(
                {
                    "corner": wms_engine,
                    "schedule": name,
                    "finished": out.finished,
                    "gave_up": out.gave_up,
                    "jobs": out.report.jobs,
                    "duplicates": out.report.duplicates,
                    "reconciled": out.report.duplicates_reconciled,
                    "ok": out.ok,
                    "violations": out.report.violations,
                }
            )
    return rows
