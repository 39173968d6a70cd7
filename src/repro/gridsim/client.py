"""Client-side strategy executors running against the simulated grid.

These replay the paper's three strategies *mechanistically* — actual
submissions, timers and cancellations on the DES — rather than sampling
from a latency law.  They serve two purposes:

* end-to-end validation: latencies measured under the single-submission
  protocol feed the analytic model, whose predicted strategy gains are
  then compared against strategies *executed* on the same grid;
* the paper's future-work experiment: what happens when a whole fleet of
  users adopts an aggressive strategy (load feedback included), see
  :mod:`repro.experiments.adoption_sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.strategies import Strategy, round_shape
from repro.gridsim.grid import GridSimulator
from repro.gridsim.jobs import Job
from repro.util.validation import check_int_at_least, check_positive

__all__ = [
    "StrategyOutcome",
    "TaskCore",
    "launch_task",
    "run_strategy_on_grid",
]


@dataclass(frozen=True)
class StrategyOutcome:
    """Result of executing a strategy for many tasks on the grid.

    Attributes
    ----------
    j:
        Realised total latencies of the tasks that succeeded (s).
    jobs_submitted:
        Grid jobs submitted per task — the finished tasks first (aligned
        with ``j``), then the partial counts of the tasks that gave up,
        so the submission pressure of an unfinished campaign is not
        silently dropped.
    gave_up:
        Tasks still unfinished when the simulation horizon was reached.
    """

    j: np.ndarray
    jobs_submitted: np.ndarray
    gave_up: int

    @property
    def mean_j(self) -> float:
        """Mean realised total latency."""
        return float(self.j.mean())

    @property
    def mean_jobs(self) -> float:
        """Mean number of grid jobs per task (gave-up tasks included)."""
        return float(self.jobs_submitted.mean())


class TaskCore:
    """Lifecycle core of one client task: copies, timers, batch cancel.

    This is the single bookkeeping engine behind the strategy executors,
    the probe slots (:mod:`repro.gridsim.probes`) and the population
    driver (:mod:`repro.population`): it owns the done flag, the list of
    in-flight copies and the armed timers, and settles the whole task in
    one pass the moment a copy starts — cancelling every timer (O(1)
    each on the pooled wheel) and batch-cancelling all sibling copies in
    a single :meth:`GridSimulator.cancel_many` call.

    Subclasses implement ``finished(winner)`` (what "the task is done"
    means: record a latency, launch the next probe, …) and drive
    :meth:`submit_copy` / :meth:`submit_copies` / :meth:`arm` (strategy
    tasks per their :func:`~repro.core.strategies.round_shape`).

    ``vo`` labels every submitted copy (fair-share sites account them to
    that VO) and ``via`` pins the broker on federated grids; the
    defaults leave single-tenant grids unperturbed.
    """

    __slots__ = ("grid", "runtime", "vo", "via", "t_start", "jobs_used",
                 "done", "active_jobs", "timers", "agent_retries",
                 "client_attempts", "retry_pending", "task_id")

    #: tag stamped on every submitted copy
    tag = "task"
    #: strategy label recorded in the task's trace events
    trace_label = "task"

    def __init__(
        self,
        grid: GridSimulator,
        runtime: float,
        vo: str = "",
        via: int | str | None = None,
    ) -> None:
        self.grid = grid
        self.runtime = runtime
        self.vo = vo
        self.via = via
        self.t_start = grid.sim._now
        self.jobs_used = 0
        self.done = False
        self.active_jobs: list[Job] = []
        self.timers: list = []
        #: system-side resubmissions consumed (the self-healing agent's
        #: per-task retry budget)
        self.agent_retries = 0
        #: submit attempts made on this task's behalf by the middleware
        #: retry policy (0 on grids without a middleware fault domain)
        self.client_attempts = 0
        #: client-side retries currently backing off / awaiting an ack —
        #: while non-zero the ResubmissionAgent defers rescuing this task
        self.retry_pending = 0
        tr = grid._tr
        #: trace-assigned task id (-1 on untraced grids)
        self.task_id = tr.task_created(self) if tr is not None else -1

    def submit_copy(self) -> Job:
        """Submit one more copy of the task's payload."""
        return self.submit_copies(1)[0]

    def submit_copies(self, n: int) -> list[Job]:
        """Submit a burst of ``n`` copies through one middleware pass."""
        runtime = self.runtime
        tag = self.tag
        vo = self.vo
        jobs = [Job(runtime=runtime, tag=tag, vo=vo) for _ in range(n)]
        self.jobs_used += n
        self.active_jobs.extend(jobs)
        grid = self.grid
        if grid.task_ledger is not None:
            grid.task_ledger.extend((self, job) for job in jobs)
        grid.submit_many(jobs, self._on_start, via=self.via, task=self)
        agent = grid._agent
        if agent is not None:
            # lost/stuck jobs register too — spotting exactly those is
            # the monitoring agent's purpose
            for job in jobs:
                agent.watch(self, job)
        return jobs

    def arm(self, delay: float, callback) -> object:
        """Arm a cancellable timer (pooled under the batched WMS engine)."""
        timer = self.grid.schedule_timeout(delay, callback)
        self.timers.append(timer)
        return timer

    def _on_start(self, winner: Job) -> None:
        if self.done:
            # a sibling copy started in the same instant: kill the extra
            self.grid.cancel(winner)
            return
        self.done = True
        self._settle(winner)
        tr = self.grid._tr
        if tr is not None:
            tr.complete(self, winner)
        self.finished(winner)

    def _settle(self, winner: Job | None) -> None:
        """Cancel every timer and every copy other than ``winner``.

        Also drops the task's references to its timers and copies: a
        settled task owns nothing that still needs it, and releasing
        the lists here lets plain reference counting reclaim the whole
        task island instead of leaving timer↔task cycles for the
        garbage collector to chase.
        """
        for ev in self.timers:
            ev.cancel()
        self.timers = []
        # cancelled middleware retry/ack timers never fire to decrement
        # their counter — a settled task has nothing pending by definition
        self.retry_pending = 0
        active = self.active_jobs
        self.active_jobs = []
        if len(active) == 1 and active[0] is winner:
            return  # the common single-copy win: nothing to cancel
        others = [job for job in active if job is not winner]
        if others:
            self.grid.cancel_many(others)

    def expire(self) -> None:
        """Abandon the task: mark done and cancel everything in flight."""
        if self.done:
            return
        self.done = True
        self._settle(None)
        tr = self.grid._tr
        if tr is not None:
            tr.expire(self)

    def finished(self, winner: Job) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class _StrategyTask(TaskCore):
    """A task running rounds of its strategy's :func:`round_shape`.

    A round submits ``b`` copies and cancels them at age ``t∞``; the
    next starts ``t0`` later, inside that cancel when ``t0 == t∞``.
    The first copy to start records ``(total latency, jobs used)``.
    Built positionally by :func:`launch_task`.
    """

    __slots__ = ("strategy", "results", "on_done")

    def __init__(
        self, grid, strategy, runtime, results, vo="", via=None, on_done=None
    ) -> None:
        # set before TaskCore.__init__: a traced grid reads trace_label
        self.strategy = strategy
        TaskCore.__init__(self, grid, runtime, vo, via)
        self.results = results
        self.on_done = on_done
        self._round()

    @property
    def trace_label(self) -> str:
        """Strategy label recorded in the task's trace events."""
        return self.strategy.name

    def finished(self, winner: Job) -> None:
        self.results.append((self.grid.sim._now - self.t_start, self.jobs_used))
        if self.on_done is not None:
            self.on_done()

    def _round(self) -> None:
        if self.done:
            return
        # no shape or batch is stored: a settled task's pooled timers
        # outlive it, so the timer keeps only the round's first index
        b, t0, t_inf = round_shape(self.strategy)
        first = len(self.active_jobs)
        self.submit_copies(b)
        self.arm(t_inf, partial(self._cancel, first))
        if t0 != t_inf:
            self.arm(t0, self._round)

    def _cancel(self, first: int) -> None:
        if self.done:
            return
        b, t0, t_inf = round_shape(self.strategy)
        batch = self.active_jobs[first : first + b]
        # a timed-out copy still queued at a site is the client telling
        # the grid that site swallowed its work (health observation)
        self.grid.report_failed(batch)
        self.grid.cancel_many(batch)
        if t0 == t_inf:
            self._round()


def launch_task(
    grid: GridSimulator,
    strategy: Strategy,
    runtime: float,
    results: list,
    *,
    vo: str = "",
    via: int | str | None = None,
    on_done=None,
):
    """Start one task executing ``strategy`` on the grid *now*.

    The task runs rounds of the strategy's
    :func:`~repro.core.strategies.round_shape` — ``b`` copies every
    ``t0``, each cancelled at age ``t∞`` — until one copy starts (a
    strategy without a round shape raises ``TypeError``); it then
    appends ``(total latency, jobs used)``
    to ``results`` and calls ``on_done`` (if given) — the hook the
    campaign runners use to stop the simulator the instant their last
    task completes.  ``vo`` labels the copies for fair-share accounting
    and ``via`` pins a broker on federated grids — this is the
    building block :mod:`repro.population` drives fleets with.
    """
    return _StrategyTask(grid, strategy, runtime, results, vo, via, on_done)


def _run_campaign(
    grid: GridSimulator,
    strategies: tuple[Strategy, ...],
    n_tasks: int,
    task_interval: float,
    runtime: float,
    horizon: float,
) -> tuple[list[tuple[float, int]], list[_StrategyTask]]:
    """Launch ``n_tasks`` tasks and run until the last one finishes.

    Task ``i`` runs ``strategies[i % len(strategies)]`` from
    ``now + i * task_interval``; the grid advances until every task
    finished (the last completion stops the simulator) or ``horizon``
    virtual seconds elapse.  Every launch is preloaded as its own event
    rather than chained: a launch instant can tie with a pooled-timer or
    dispatch-window boundary, and the preloaded insertion order decides
    those ties.  Returns the ``(latency, jobs)`` results in completion
    order and the tasks launched.
    """
    check_positive("task_interval", task_interval)
    check_positive("runtime", runtime)
    check_positive("horizon", horizon)
    results: list[tuple[float, int]] = []
    tasks: list[_StrategyTask] = []
    pending = [n_tasks]

    def on_done() -> None:
        pending[0] -= 1
        if pending[0] == 0:
            grid.sim.stop()

    def launch(strategy: Strategy) -> None:
        tasks.append(
            launch_task(grid, strategy, runtime, results, on_done=on_done)
        )

    for i in range(n_tasks):
        grid.sim.schedule_at(
            grid.now + i * task_interval,
            partial(launch, strategies[i % len(strategies)]),
        )
    grid.run_until(grid.now + horizon)
    return results, tasks


def run_strategy_on_grid(
    grid: GridSimulator,
    strategy: Strategy,
    n_tasks: int,
    *,
    task_interval: float = 300.0,
    runtime: float = 600.0,
    horizon: float = 500_000.0,
) -> StrategyOutcome:
    """Execute ``n_tasks`` independent tasks under ``strategy``.

    Tasks are launched every ``task_interval`` virtual seconds (staggered,
    as an application workflow would); each runs the strategy until one of
    its copies starts.  The simulation is advanced until all tasks finish
    or ``horizon`` virtual seconds elapse — event-driven: the last task's
    completion stops the simulator at that exact instant (no polling), so
    a saturated grid burns through its horizon in one ``run_until`` call
    instead of spinning an hourly advance loop.  Tasks that gave up keep
    their partial job counts in ``jobs_submitted`` (after the finished
    tasks' counts) rather than being dropped.

    Parameters
    ----------
    grid:
        The simulated grid (should be warmed up first).
    strategy:
        A :class:`SingleResubmission`, :class:`MultipleSubmission` or
        :class:`DelayedResubmission` instance.
    n_tasks:
        Number of independent tasks to run.
    task_interval:
        Gap between task launches (s).
    runtime:
        Execution time of the real payload once started (s).
    horizon:
        Hard stop for the whole experiment (virtual s).
    """
    n_tasks = check_int_at_least("n_tasks", n_tasks, 1)
    round_shape(strategy)  # reject an unsupported strategy before running
    results, tasks = _run_campaign(
        grid, (strategy,), n_tasks, task_interval, runtime, horizon
    )

    j = np.array([r[0] for r in results])
    # finished tasks first (aligned with j), then the gave-up stragglers'
    # partial submission counts; tasks the horizon cut off before their
    # launch instant contribute zero jobs
    jobs = np.array(
        [r[1] for r in results]
        + [t.jobs_used for t in tasks if not t.done]
        + [0] * (n_tasks - len(tasks)),
        dtype=np.int64,
    )
    if j.size == 0:
        raise RuntimeError(
            "no task finished within the horizon — grid saturated or "
            "timeouts unreachable"
        )
    return StrategyOutcome(j=j, jobs_submitted=jobs, gave_up=n_tasks - j.size)
