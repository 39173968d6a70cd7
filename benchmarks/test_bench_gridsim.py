"""Benchmarks: DES validation, fleet-adoption extension, raw DES substrate.

The substrate benches (warm-up, warmed fork, probe campaign, adoption
fleet) isolate the kernels the ISSUE-2 overhaul targeted and the ISSUE-3
vectorised site queues accelerate, so the gridsim speedup is tracked in
``BENCH_core.json`` like the PR 1 kernels; the two experiment benches
measure the end-to-end wall time of ``val-des`` and ``abl-adopt``.  The
two scenario benches (saturated site, outage day) stress the regimes
where the vectorised background lane does the most reconciliation work:
an unboundedly growing queue, and gate toggles with running-job kills.
"""

import numpy as np

from repro.core.strategies import MultipleSubmission
from repro.experiments import run_experiment
from repro.gridsim import (
    FaultModel,
    GridConfig,
    GridSimulator,
    ProbeExperiment,
    SiteConfig,
    default_grid_config,
    run_strategy_on_grid,
    warmed_grid,
)
from repro.gridsim.grid import _WARM_CACHE

from oracles import OutageProcess, table_rows


def test_bench_val_des(benchmark, save_result):
    result = benchmark.pedantic(
        lambda: run_experiment("val-des", n_tasks=120, probe_days=1.5),
        rounds=2,
        iterations=1,
        warmup_rounds=1,
    )
    save_result(result)
    (table,) = result.tables
    ratios = [float(r["ratio"]) for r in table_rows(table)]
    assert all(0.4 < r < 2.5 for r in ratios)


def test_bench_adoption_sweep(benchmark, ctx_fast, save_result):
    result = benchmark.pedantic(
        lambda: run_experiment("abl-adopt", ctx=ctx_fast),
        rounds=2,
        iterations=1,
        warmup_rounds=1,
    )
    save_result(result)
    (table,) = result.tables
    # 4 baseline fleets + the surface-calibrated delayed fleet
    assert len(table.rows) == 5
    assert any("delayed" in str(row[1]) for row in table.rows)


def test_bench_grid_warm_up(benchmark):
    """Raw DES speed: a 12-hour warm-up of the default 12-site grid."""

    def warm():
        grid = GridSimulator(default_grid_config(), seed=5)
        grid.warm_up(12 * 3600.0)
        return grid

    grid = benchmark.pedantic(warm, rounds=3, iterations=1, warmup_rounds=1)
    assert grid.utilization() > 0.5


def test_bench_warmed_fork(benchmark):
    """Snapshot path: forking a cached warmed grid (vs re-warming it)."""
    _WARM_CACHE.clear()
    cfg = default_grid_config()
    warmed_grid(cfg, seed=5, duration=12 * 3600.0)  # build + freeze master

    grid = benchmark.pedantic(
        lambda: warmed_grid(cfg, seed=5, duration=12 * 3600.0),
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )
    assert grid.now == 12 * 3600.0


def test_bench_probe_campaign(benchmark):
    """Raw DES speed: one simulated probe-day on a warmed default grid."""

    def campaign():
        grid = warmed_grid(default_grid_config(), seed=5, duration=6 * 3600.0)
        return ProbeExperiment(grid, n_slots=20).run(86_400.0)

    trace = benchmark.pedantic(campaign, rounds=3, iterations=1, warmup_rounds=1)
    assert len(trace) > 100


def test_bench_probe_day(benchmark):
    """Client-pipeline stress: a dense 64-slot probe-day.

    Three times the §3.2 protocol's submission rate, so the windowed
    dispatch buckets actually fill — this is the bench the batched WMS
    lane (windowed buckets + pooled timeout timers + the reconciliation
    fast path) is aimed at.
    """

    def campaign():
        grid = warmed_grid(default_grid_config(), seed=5, duration=6 * 3600.0)
        return ProbeExperiment(grid, n_slots=64).run(86_400.0)

    trace = benchmark.pedantic(campaign, rounds=3, iterations=1, warmup_rounds=1)
    assert len(trace) > 1000


def test_bench_saturated_site(benchmark):
    """Scenario: a 64-core site at utilisation 1.1 for three simulated days.

    The queue grows without bound, so every telemetry reconciliation
    walks a long backlog — the worst case for the vectorised lane's lazy
    commits.
    """
    cfg = GridConfig(
        sites=(SiteConfig("hot", 64, utilization=1.1, runtime_median=1800.0),),
        faults=FaultModel(),
    )

    def run():
        grid = GridSimulator(cfg, seed=11)
        grid.warm_up(3 * 86_400.0)
        return grid

    grid = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert grid.total_queue_length() > 100
    assert grid.utilization() == 1.0


def test_bench_outage_day(benchmark):
    """Scenario: a probe-day on a grid whose sites cycle through outages.

    Outage toggles force the background lane to reconcile and re-aim
    client wakes; running-job kills reshuffle the core free-time heap.
    """
    cfg = GridConfig(
        sites=(
            SiteConfig("a", 16, utilization=0.9, runtime_median=1800.0),
            SiteConfig("b", 32, utilization=0.9, runtime_median=2400.0),
            SiteConfig("c", 24, utilization=0.95, runtime_median=3600.0),
        ),
        faults=FaultModel(p_lost=0.02, p_stuck=0.02),
    )

    def run():
        grid = GridSimulator(cfg, seed=13)
        for k, site in enumerate(grid.sites):
            OutageProcess(
                site,
                grid.sim,
                np.random.default_rng(500 + k),
                mean_uptime=20_000.0,
                mean_downtime=6_000.0,
                kill_running=0.5,
            ).start()
        grid.warm_up(3600.0)
        return ProbeExperiment(grid, n_slots=12, timeout=6000.0).run(86_400.0)

    trace = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert len(trace) > 100


def test_bench_adoption_fleet(benchmark):
    """Raw DES speed: one 200-task burst fleet on a warmed default grid."""

    def fleet():
        grid = warmed_grid(default_grid_config(), seed=7, duration=6 * 3600.0)
        return run_strategy_on_grid(
            grid,
            MultipleSubmission(b=3, t_inf=4000.0),
            200,
            task_interval=100.0,
            runtime=600.0,
        )

    outcome = benchmark.pedantic(fleet, rounds=3, iterations=1, warmup_rounds=1)
    assert outcome.j.size > 100


def test_bench_weather_storm_day(benchmark):
    """Scenario: a probe-day through the full weather/health stack.

    Storms toggle correlated site subsets (background reconciliation +
    running-job kills), a mid-day black hole bulk-fails its queue and
    draws probe re-admission traffic, and every client outcome feeds the
    EWMA health machine — the bookkeeping riding on top of the
    vectorised site lane that this bench keeps honest.
    """
    from repro.gridsim import (
        BlackHoleConfig,
        HealthConfig,
        ResubmitConfig,
        StormConfig,
        WeatherConfig,
    )

    cfg = GridConfig(
        sites=(
            SiteConfig("a", 16, utilization=0.9, runtime_median=1800.0),
            SiteConfig("b", 32, utilization=0.9, runtime_median=2400.0),
            SiteConfig("c", 24, utilization=0.95, runtime_median=3600.0),
        ),
        faults=FaultModel(p_lost=0.02, p_stuck=0.02),
        weather=WeatherConfig(
            storm=StormConfig(
                mean_interval=3 * 3600.0,
                mean_duration=1800.0,
                subset_size=2,
                kill_running=0.5,
            ),
            black_holes=(
                BlackHoleConfig(site="b", start=40_000.0, duration=8_000.0),
            ),
        ),
        health=HealthConfig(),
        resubmit=ResubmitConfig(),
    )

    def run():
        grid = GridSimulator(cfg, seed=13)
        grid.warm_up(3600.0)
        trace = ProbeExperiment(grid, n_slots=12, timeout=6000.0).run(86_400.0)
        return grid, trace

    grid, trace = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert len(trace) > 100
    report = grid.weather_report()
    assert report["storms_started"] >= 1
    assert sum(report["black_hole_failures"].values()) > 0


def test_bench_broker_storm_day(benchmark):
    """Scenario: a task day through the middleware fault domain.

    Storms down a broker together with a site subset, the submission
    path errors (half the errors silently landing, so duplicates are
    minted and reconciled), and every copy takes the resilient path —
    backoff timers, circuit breakers, failover.  This bench pins the
    cost of the retry/duplicate machinery riding on the client lane,
    and its conservation audit keeps the bookkeeping honest under time
    pressure.
    """
    from repro.gridsim import audit_conservation, fault_schedule
    from repro.gridsim.chaos import chaos_grid_config, run_chaos

    cfg = fault_schedule(
        chaos_grid_config(n_sites=6, n_brokers=2, seed=3),
        seed=29,
        start=3_600.0,
        window=6 * 3_600.0,
        n_broker_outages=3,
        p_fail=0.2,
        p_landed=0.5,
    )

    def run():
        return run_chaos(
            cfg,
            seed=17,
            n_tasks=150,
            warm=3_600.0,
            task_interval=120.0,
            horizon=86_400.0,
        )

    out = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert out.finished > 100
    assert out.report.violations == ()
    assert out.report.jobs >= 150


def test_bench_trace_day(benchmark):
    """Scenario: the broker-storm task day with end-to-end tracing on.

    Identical campaign to ``test_bench_broker_storm_day`` but with
    ``GridConfig.tracing`` enabled, so every lifecycle hook takes its
    recording branch and the latency histogram fills.  Comparing the
    two benches reads off the tracing overhead directly; the span count
    assertion keeps the recorder honest about actually recording.
    """
    import dataclasses

    from repro.gridsim import fault_schedule
    from repro.gridsim.chaos import chaos_grid_config, run_chaos

    cfg = dataclasses.replace(
        fault_schedule(
            chaos_grid_config(n_sites=6, n_brokers=2, seed=3),
            seed=29,
            start=3_600.0,
            window=6 * 3_600.0,
            n_broker_outages=3,
            p_fail=0.2,
            p_landed=0.5,
        ),
        tracing=True,
    )

    def run():
        return run_chaos(
            cfg,
            seed=17,
            n_tasks=150,
            warm=3_600.0,
            task_interval=120.0,
            horizon=86_400.0,
        )

    out = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert out.finished > 100
    assert out.report.violations == ()
    assert len(out.events) > 4 * out.finished
