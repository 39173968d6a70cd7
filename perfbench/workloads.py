"""The benchmark's workloads: one repetition of each, with its checks.

Every workload is driven through public entry points of
``repro.population``, ``repro.gridsim`` and ``repro.experiments`` only.
A repetition sets up from scratch (an emptied warm cache, a freshly
warmed and restored grid or freshly built experiment contexts), runs the
timed call, checks its outputs and returns a :class:`Rep`.  Passing a
:class:`~perfbench.spans.SpanRecorder` makes it a traced repetition: the
layer wrappers of :mod:`perfbench.layers` are installed around the timed
call and removed afterwards.

Population days are also checked against ``expected.json``: the digest
and law metrics committed per seed by ``expected.py``.  A run at a seed
listed there must reproduce them exactly, so a change that moves the
simulated law fails the benchmark instead of reading as a speed-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from perfbench.layers import (
    Instrumentation,
    grid_counters,
    install_paper,
    install_population,
)

__all__ = [
    "EXPECTED",
    "PAPER_ARTIFACTS",
    "Rep",
    "WORKLOADS",
    "chaos_grid",
    "make_workload",
]

ROOT = Path(__file__).resolve().parent.parent
#: committed experiment artifacts, the paper pipeline's ground truth
RESULTS_DIR = ROOT / "benchmarks" / "results"
#: the seed every committed artifact was rendered at
PAPER_SEED = 2009
#: committed outputs of the population workloads (written by expected.py)
EXPECTED = Path(__file__).resolve().parent / "expected.json"
#: seed of every population grid: its background load, weather and fault
#: draws are one fixed scenario, and ``--seed`` draws the population that
#: meets it.  With a per-seed grid, the chaos day's trace ranged from
#: 188k to 268k events over six seeds (186k to 210k with the grid fixed):
#: run time that follows the weather, not the code.
GRID_SEED = PAPER_SEED
#: virtual warm-up of every population grid (s)
WARM = 6 * 3600.0
#: set-ups per population repetition; ``setup_s`` is their median
SETUPS = 5
#: the warm cache's default byte budget, restored after emptying it
_WARM_CACHE_BYTES = 256 * 1024 * 1024

#: id -> (context dt or None for context-free, run kwargs), exactly as
#: the pytest benchmarks that write ``benchmarks/results/<id>.txt``
#: call them; ``multi-vo`` is left out (pop-calm covers that layer)
PAPER_ARTIFACTS: dict[str, tuple[float | None, dict]] = {
    "fig1": (1.0, {}),
    "table1": (1.0, {}),
    "fig2": (1.0, {"b_max": 10}),
    "table2": (1.0, {"b_max": 20}),
    "fig3": (1.0, {"b_max": 10}),
    "fig5": (1.0, {"n_slices": 8}),
    "table3": (1.0, {}),
    "fig6": (1.0, {"b_max": 5}),
    "fig8": (2.0, {"b_max": 5}),
    "table4": (2.0, {}),
    "table5": (2.0, {"radius": 5}),
    "table6": (2.0, {}),
    "val-mc": (2.0, {"n_tasks": 20_000}),
    "abl-eq5": (2.0, {}),
    "abl-rho": (2.0, {}),
    "abl-family": (2.0, {}),
    "abl-grid": (2.0, {}),
    "abl-adopt": (2.0, {}),
    "val-des": (None, {"n_tasks": 120, "probe_days": 1.5}),
    "grid-weather": (None, {}),
}


@dataclass
class Rep:
    """What one repetition measured and checked."""

    setup_s: float
    run_s: float
    #: settled simulated tasks (population days) or artifacts rendered
    tasks: int
    attempted: int
    failed: int
    #: sha256 over the simulated outputs; equal across repetitions of a seed
    digest: str
    #: simulated-law statistics (fixed for a seed)
    law: dict = field(default_factory=dict)
    #: per-layer work counters and timings measured without spans
    work: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    #: host speed over the repetition (:mod:`perfbench.hostspeed`); the
    #: end-to-end times are ``setup_s`` and ``run_s`` scaled by it
    speed: float = 1.0


def empty_warm_cache() -> None:
    """Drop every cached warmed snapshot, so set-up is paid again."""
    from repro.gridsim.grid import configure_warm_cache

    configure_warm_cache(max_bytes=1)
    configure_warm_cache(max_bytes=_WARM_CACHE_BYTES)


def _timed(rec, name: str, fn, *args, **kwargs):
    """Call ``fn``, recorded as a ``name`` span when tracing."""
    if rec is not None:
        fn = rec.wrap(name, fn)
    return fn(*args, **kwargs)


@contextmanager
def _pools():
    """Collect every ``TaskPool`` built inside the block.

    The pool's own ``pending`` counter says how many tasks the SoA
    runtime settled, counted apart from the J arrays it reads out.
    """
    from repro.population.soa import TaskPool

    pools: list = []
    init = TaskPool.__init__

    def capture(pool, *args, **kwargs):
        init(pool, *args, **kwargs)
        pools.append(pool)

    TaskPool.__init__ = capture
    try:
        yield pools
    finally:
        TaskPool.__init__ = init


@contextmanager
def _instrumented(rec, installer):
    if rec is None:
        yield
        return
    with Instrumentation(rec) as ins:
        installer(ins)
        yield


def _law(js: list, jobs: list) -> dict:
    j = np.concatenate(js)
    n_jobs = np.concatenate(jobs)
    if not j.size:
        return {"task_j_p50_s": 0.0, "task_j_p99_s": 0.0, "jobs_per_task": 0.0}
    return {
        "task_j_p50_s": float(np.percentile(j, 50)),
        "task_j_p99_s": float(np.percentile(j, 99)),
        "jobs_per_task": float(n_jobs.sum()) / j.size,
    }


def _digest_result(result, extra: tuple = ()) -> str:
    h = hashlib.sha256()
    for f in result.fleets:
        h.update(np.ascontiguousarray(f.j, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(f.jobs_submitted, dtype=np.int64).tobytes())
        h.update(repr(f.gave_up).encode())
    h.update(repr((result.broker_dispatches, result.duration, extra)).encode())
    return h.hexdigest()


def committed(name: str, n_tasks: int) -> dict:
    """``{seed: {"digest", law...}}`` committed for a workload at a size."""
    if not EXPECTED.is_file():
        return {}
    entry = json.loads(EXPECTED.read_text()).get(name, {})
    return entry.get("seeds", {}) if entry.get("tasks") == n_tasks else {}


def _check_committed(table: dict, seed: int, digest: str, law: dict, problems: list) -> int:
    """1 if ``seed`` has committed outputs and this run differs, else 0."""
    want = table.get(str(seed))
    if want is None or want == {"digest": digest, **law}:
        return 0
    problems.append(f"outputs differ from those committed for seed {seed}")
    return 1


def _check_day(result, launched: int, settled, grid_jobs, problems: list) -> int:
    """Failed operations of the checks every population day must pass.

    ``settled`` is the runtime's own count of tasks done (the pool's
    counter or the ledger audit; ``None`` where the runtime keeps it in
    its workers), ``grid_jobs`` the grid's count of client jobs submitted
    during the run (``None`` where duplicates and rescues add jobs no task
    counts).  Both are counted apart from the J and jobs arrays.
    """
    failed = 0
    finished = result.total_finished
    if finished != launched:
        failed += abs(launched - finished)
        problems.append(f"{finished} of {launched} tasks finished")
    if settled is not None and settled != finished:
        failed += abs(settled - finished)
        problems.append(f"{settled} tasks settled but {finished} have a J")
    jobs = sum(int(f.jobs_submitted.sum()) for f in result.fleets)
    if grid_jobs is not None and jobs != grid_jobs:
        failed += 1
        problems.append(f"tasks used {jobs} jobs but the grid took {grid_jobs}")
    j = np.concatenate([f.j for f in result.fleets])
    bad = int(np.count_nonzero(~(np.isfinite(j) & (j > 0))))
    if bad:
        failed += bad
        problems.append(f"{bad} tasks have a J that is not finite and positive")
    return failed


class PopulationDay:
    """A population day on one grid, restored from a warmed snapshot.

    With ``chaos=True`` the grid carries the task ledger and tracing
    (set by :func:`chaos_grid`); the run then ends with the conservation
    audit and the latency decomposition, both checked.
    """

    def __init__(self, name: str, config, n_tasks: int, *, chaos: bool = False) -> None:
        from repro.population.presets import fleet_population_spec

        self.config = config
        self.spec = fleet_population_spec(n_tasks)
        self.chaos = chaos
        #: committed outputs per seed (``expected.json``)
        self.committed = committed(name, n_tasks)

    def repetition(self, seed: int, rec=None) -> Rep:
        from repro.gridsim import warmed_snapshot
        from repro.population import run_population

        setups = []
        for _ in range(SETUPS):
            empty_warm_cache()
            t0 = perf_counter()
            snap = _timed(rec, "phase.warm", warmed_snapshot, self.config, GRID_SEED, WARM)
            grid = _timed(rec, "phase.restore", snap.restore)
            setups.append(perf_counter() - t0)
        if self.chaos:
            grid.enable_task_ledger()

        before = grid_counters(grid)
        work: dict = {}
        with _instrumented(rec, install_population), _pools() as pools:
            t1 = perf_counter()
            result = _timed(
                rec, "driver.run_population", run_population, grid, self.spec, seed=seed
            )
            if self.chaos:
                report, records, work = self._audit(grid, rec)
            run_s = perf_counter() - t1
        after = grid_counters(grid)
        work.update({k: after[k] - before[k] for k in after})

        launched = self.spec.total_tasks
        problems: list = []
        if self.chaos:
            settled, grid_jobs = report.done_tasks, None
        else:
            settled = sum(p.n - p.pending for p in pools)
            grid_jobs = work["grid.jobs_submitted"]
        failed = _check_day(result, launched, settled, grid_jobs, problems)
        if self.chaos:
            failed += self._check_chaos(result, report, records, problems)
        law = _law(
            [f.j for f in result.fleets],
            [f.jobs_submitted for f in result.fleets],
        )
        digest = _digest_result(result, (work["grid.jobs_submitted"],))
        failed += _check_committed(self.committed, seed, digest, law, problems)
        return Rep(
            setup_s=float(np.median(setups)),
            run_s=run_s,
            tasks=result.total_finished,
            attempted=launched,
            failed=failed,
            digest=digest,
            law=law,
            work=work,
            problems=problems,
        )

    @staticmethod
    def _audit(grid, rec):
        from repro.gridsim.chaos import audit_conservation
        from repro.gridsim.tracing import decompose

        t = perf_counter()
        report = _timed(rec, "chaos.audit", audit_conservation, grid)
        t_audit = perf_counter() - t
        t = perf_counter()
        records = _timed(rec, "tracing.decompose", decompose, grid.trace.events)
        t_decompose = perf_counter() - t
        n = len(records) or 1
        work = {
            "chaos.audit_s": t_audit,
            "chaos.violations": len(report.violations),
            "tracing.decompose_s": t_decompose,
            "tracing.events": len(grid.trace.events),
            "j.retry_loss_mean_s": sum(r.retry_loss for r in records) / n,
            "j.middleware_mean_s": sum(r.middleware for r in records) / n,
            "j.queue_wait_mean_s": sum(r.queue_wait for r in records) / n,
        }
        return report, records, work

    @staticmethod
    def _check_chaos(result, report, records, problems: list) -> int:
        failed = len(report.violations)
        if report.violations:
            problems.append(f"conservation audit: {report.violations[0]}")
        unbalanced = sum(
            1
            for r in records
            if not math.isclose(
                r.retry_loss + r.middleware + r.queue_wait,
                r.makespan,
                rel_tol=1e-9,
                abs_tol=1e-6,
            )
        )
        if unbalanced:
            failed += unbalanced
            problems.append(f"{unbalanced} decompositions do not sum to J")
        js = np.sort(np.concatenate([f.j for f in result.fleets]))
        spans = np.sort(np.array([r.makespan for r in records]))
        if js.shape != spans.shape:
            failed += abs(js.size - spans.size)
            problems.append(
                f"{spans.size} decomposed tasks for {js.size} finished"
            )
        elif not np.array_equal(js, spans):
            failed += int(np.count_nonzero(js != spans))
            problems.append("decomposed makespans differ from the tasks' J")
        return failed


class ShardedDay:
    """``pop-calm``'s day through the 2-process sharded runtime.

    Set-up warms each shard's grid into the warm cache exactly as
    ``run_population_sharded`` keys it, so the timed call finds the
    warm-up done and times the launch, the workers and the exchange.
    """

    def __init__(self, name: str, config, n_tasks: int, shards: int = 2) -> None:
        from repro.population.presets import fleet_population_spec

        self.config = config
        self.spec = fleet_population_spec(n_tasks)
        self.shards = shards
        self.committed = committed(name, n_tasks)

    def _warm(self) -> None:
        from repro.gridsim import warmed_snapshot
        from repro.population.shard import shard_configs

        cfgs, _ = shard_configs(self.config, self.shards)
        seeds = np.random.SeedSequence(GRID_SEED).generate_state(self.shards)
        for cfg, s in zip(cfgs, seeds):
            warmed_snapshot(cfg, int(s), WARM)

    def repetition(self, seed: int, rec=None) -> Rep:
        from repro.population.shard import run_population_sharded

        setups = []
        for _ in range(SETUPS):
            empty_warm_cache()
            t0 = perf_counter()
            _timed(rec, "phase.warm", self._warm)
            setups.append(perf_counter() - t0)

        cpu0 = os.times()
        with _instrumented(rec, _install_shard_parent):
            t1 = perf_counter()
            result = _timed(
                rec,
                "driver.run_population_sharded",
                run_population_sharded,
                self.config,
                self.spec,
                shards=self.shards,
                seed=seed,
                grid_seed=GRID_SEED,
                warm=WARM,
            )
            run_s = perf_counter() - t1
        cpu1 = os.times()
        children = (cpu1.children_user + cpu1.children_system) - (
            cpu0.children_user + cpu0.children_system
        )
        parent = (cpu1.user + cpu1.system) - (cpu0.user + cpu0.system)

        launched = self.spec.total_tasks
        work = {
            "wms.dispatches": sum(result.broker_dispatches),
            "grid.jobs_submitted": result.metrics.get("grid.jobs_submitted", 0),
            "shard.parent_cpu_s": parent,
            "shard.children_cpu_s": children,
            "shard.cpu_util": children / (self.shards * run_s),
        }
        problems: list = []
        failed = _check_day(result, launched, None, work["grid.jobs_submitted"], problems)
        law = _law(
            [f.j for f in result.fleets],
            [f.jobs_submitted for f in result.fleets],
        )
        digest = _digest_result(result)
        failed += _check_committed(self.committed, seed, digest, law, problems)
        return Rep(
            setup_s=float(np.median(setups)),
            run_s=run_s,
            tasks=result.total_finished,
            attempted=launched,
            failed=failed,
            digest=digest,
            law=law,
            work=work,
            problems=problems,
        )


def _install_shard_parent(ins) -> None:
    # only the parent side: forked workers inherit class patches but
    # their spans would die with them, so the grid layers stay unwrapped
    from repro.population.spec import PopulationSpec

    ins.method("phase.launch", PopulationSpec, "launch_times")


class PaperArtifacts:
    """Regenerate the committed artifacts and compare them byte for byte.

    The artifacts exist at the paper's seed only, so every repetition
    renders them at ``PAPER_SEED``; the benchmark seed permutes the order
    the experiments run in, which must not change a byte either (the
    context caches are filled by whichever experiment asks first).
    """

    def __init__(self, ids=None) -> None:
        self.ids = tuple(PAPER_ARTIFACTS) if ids is None else tuple(ids)
        self.expected = {
            eid: (RESULTS_DIR / f"{eid}.txt").read_text(encoding="utf-8")
            for eid in self.ids
        }

    def repetition(self, seed: int, rec=None) -> Rep:
        from repro.experiments import ReproContext, run_experiment

        order = [
            self.ids[k] for k in np.random.default_rng(seed).permutation(len(self.ids))
        ]
        dts = sorted({PAPER_ARTIFACTS[e][0] for e in self.ids} - {None})
        empty_warm_cache()
        work: dict = {}
        texts: dict[str, str] = {}
        with _instrumented(rec, install_paper):
            t0 = perf_counter()
            contexts = {
                dt: _timed(rec, "phase.setup", ReproContext, seed=PAPER_SEED, dt=dt)
                for dt in dts
            }
            setup_s = perf_counter() - t0
            t1 = perf_counter()
            for eid in order:
                dt, kwargs = PAPER_ARTIFACTS[eid]
                if dt is not None:
                    kwargs = dict(kwargs, ctx=contexts[dt])
                t = perf_counter()
                texts[eid] = _timed(
                    rec, f"experiments.{eid}", lambda: run_experiment(eid, **kwargs).render()
                ) + "\n"
                work[f"experiments.{eid}_s"] = perf_counter() - t
            run_s = perf_counter() - t1

        mismatched = [e for e in self.ids if texts[e] != self.expected[e]]
        h = hashlib.sha256()
        for eid in self.ids:
            h.update(texts[eid].encode())
        return Rep(
            setup_s=setup_s,
            run_s=run_s,
            tasks=len(self.ids),
            attempted=len(self.ids),
            failed=len(mismatched),
            digest=h.hexdigest(),
            work=work,
            problems=[f"{e} differs from the committed artifact" for e in mismatched],
        )


def chaos_grid():
    """The fleet grid split across 2 brokers under ``storm-broker-site``.

    The fault traffic is the repository's own ``storm-broker-site``
    schedule (:func:`repro.gridsim.chaos.standard_schedules`): storms
    that black-hole a broker together with a site subset, a flaky submit
    path whose failures often land anyway, and its retry policy.  On top
    come the health machine, the resubmission agent and tracing.  Storms
    kill no running jobs here: ``audit_conservation`` reports a
    duplicate that won its task and was then killed by a site outage as
    a violation (the kill leaves it cancelled).
    """
    from repro.gridsim.chaos import standard_schedules
    from repro.gridsim.federation import BrokerConfig
    from repro.gridsim.health import HealthConfig
    from repro.gridsim.weather import ResubmitConfig
    from repro.population.presets import fleet_grid_config

    base = fleet_grid_config()
    names = tuple(s.name for s in base.sites)
    half = len(names) // 2
    federated = replace(
        base,
        brokers=(
            BrokerConfig("wms-a", names[:half]),
            BrokerConfig("wms-b", names[half:]),
        ),
    )
    storm = dict(standard_schedules(federated))["storm-broker-site"]
    weather = replace(storm.weather, storm=replace(storm.weather.storm, kill_running=0.0))
    return replace(
        storm,
        weather=weather,
        health=HealthConfig(),
        resubmit=ResubmitConfig(),
        tracing=True,
    )


#: workload name -> tasks in its population day (None: the paper pipeline)
WORKLOADS = {
    "pop-calm": 100_000,
    "pop-chaos-traced": 25_000,
    "pop-sharded": 100_000,
    "paper-artifacts": None,
}


def make_workload(name: str, n_tasks: int | None = None, artifacts=None):
    """Build a workload; ``n_tasks``/``artifacts`` shrink it for smoke tests."""
    from repro.population.presets import fleet_grid_config

    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; available: {', '.join(WORKLOADS)}")
    n = WORKLOADS[name] if n_tasks is None else n_tasks
    if name == "pop-calm":
        return PopulationDay(name, fleet_grid_config(), n)
    if name == "pop-chaos-traced":
        return PopulationDay(name, chaos_grid(), n, chaos=True)
    if name == "pop-sharded":
        return ShardedDay(name, fleet_grid_config(), n)
    return PaperArtifacts(artifacts)
