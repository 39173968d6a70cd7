"""Middleware fault domain + chaos harness: validation, laws, conservation.

Four layers under test.  **Configs** (RetryPolicy, SubmitFaultConfig,
BrokerOutageConfig and their GridConfig cross-checks) must die at
construction with a named parameter.  **Mechanics**: circuit-breaker
transitions, broker outages in both modes (reject bounces, black-hole
swallows until the client's submit timeout), stale snapshots on
recovery, retries failing over across the federation, and at-least-once
duplicates minted on retry and reconciled by sibling-cancel.  **Laws**:
a retry policy with nothing to retry is invisible — bit-identical
outcomes on a single-broker grid — and grids without any middleware
fault domain never build one.  **Conservation**: the seeded chaos
schedules run on every site×WMS engine corner (event sites on the
test-only oracle grid) and the auditor proves every task accounted for
exactly once; a tampered ledger must fail it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.strategies import MultipleSubmission, SingleResubmission
from repro.gridsim import (
    BrokerConfig,
    BrokerOutageConfig,
    CircuitBreaker,
    FaultModel,
    GridConfig,
    GridSimulator,
    Job,
    JobState,
    RetryPolicy,
    SiteConfig,
    StormConfig,
    SubmitFaultConfig,
    WeatherConfig,
    audit_conservation,
    chaos_grid_config,
    chaos_matrix,
    fault_schedule,
    run_chaos,
    run_strategy_on_grid,
    standard_schedules,
)
from repro.gridsim.client import launch_task
from oracles import chaos_on, mw_totals


def fed_config(**kw) -> GridConfig:
    """A small two-broker grid the fault scenarios perturb."""
    defaults = dict(
        sites=(
            SiteConfig("a", 8, utilization=0.7, runtime_median=600.0),
            SiteConfig("b", 8, utilization=0.7, runtime_median=600.0),
            SiteConfig("c", 8, utilization=0.7, runtime_median=900.0),
            SiteConfig("d", 8, utilization=0.7, runtime_median=900.0),
        ),
        matchmaking_median=30.0,
        faults=FaultModel(p_lost=0.0, p_stuck=0.0),
        brokers=(
            BrokerConfig(name="wms-a", sites=("a", "b")),
            BrokerConfig(name="wms-b", sites=("c", "d")),
        ),
    )
    defaults.update(kw)
    return GridConfig(**defaults)


class TestConfigValidation:
    """Bad middleware configs die at construction with a named parameter."""

    def test_retry_policy(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError, match="submit_timeout"):
            RetryPolicy(submit_timeout=0.0)
        with pytest.raises(ValueError, match="breaker_threshold"):
            RetryPolicy(breaker_threshold=0)
        with pytest.raises(ValueError, match="breaker_reset"):
            RetryPolicy(breaker_reset=-1.0)

    def test_submit_fault_config(self):
        with pytest.raises(ValueError, match="p_fail"):
            SubmitFaultConfig(p_fail=1.5)
        with pytest.raises(ValueError, match="p_landed"):
            SubmitFaultConfig(p_landed=-0.1)

    def test_broker_outage_config(self):
        with pytest.raises(ValueError, match="broker"):
            BrokerOutageConfig(broker="")
        with pytest.raises(ValueError, match="start"):
            BrokerOutageConfig(broker="x", start=-1.0)
        with pytest.raises(ValueError, match="duration"):
            BrokerOutageConfig(broker="x", duration=0.0)
        with pytest.raises(ValueError, match="mode"):
            BrokerOutageConfig(broker="x", mode="flaky")

    def test_weather_config_rejects_wrong_types(self):
        with pytest.raises(TypeError, match="BrokerOutageConfig"):
            WeatherConfig(broker_outages=(3,))

    def test_grid_config_rejects_unknown_broker_name(self):
        weather = WeatherConfig(
            broker_outages=(BrokerOutageConfig(broker="wms-z"),)
        )
        with pytest.raises(ValueError, match="wms-z.*wms-a"):
            fed_config(weather=weather)

    def test_grid_config_rejects_broker_outage_without_federation(self):
        weather = WeatherConfig(
            broker_outages=(BrokerOutageConfig(broker="wms-a"),)
        )
        with pytest.raises(ValueError, match="no federated brokers"):
            fed_config(brokers=(), weather=weather)

    def test_grid_config_rejects_storm_broker_prob_without_federation(self):
        weather = WeatherConfig(storm=StormConfig(broker_prob=0.5))
        with pytest.raises(ValueError, match="broker_prob"):
            fed_config(brokers=(), weather=weather)

    def test_grid_config_rejects_wrong_middleware_types(self):
        with pytest.raises(TypeError, match="submit_faults"):
            fed_config(submit_faults=3)
        with pytest.raises(TypeError, match="retry"):
            fed_config(retry=3)

    def test_chaos_grid_config_bounds(self):
        with pytest.raises(ValueError, match="n_brokers"):
            chaos_grid_config(n_sites=2, n_brokers=3)

    def test_fault_schedule_needs_federation(self):
        with pytest.raises(ValueError, match="federated"):
            fault_schedule(fed_config(brokers=()), seed=1)


class TestCircuitBreaker:
    """closed → open → half-open trial → closed (or back open)."""

    def test_trips_after_threshold_and_half_opens(self):
        br = CircuitBreaker(threshold=2, reset_timeout=100.0)
        assert br.state == "closed" and br.allow(0.0)
        br.record_failure(0.0)
        assert br.state == "closed"
        br.record_failure(1.0)
        assert br.state == "open" and br.trips == 1
        assert not br.allow(50.0)  # cooling down
        assert br.allow(101.0)  # half-open: one trial
        assert not br.allow(150.0)  # trial window re-armed

    def test_failed_trial_reopens(self):
        br = CircuitBreaker(threshold=1, reset_timeout=100.0)
        br.record_failure(0.0)
        assert br.trips == 1
        assert br.allow(100.0)
        br.record_failure(100.0)
        assert br.state == "open" and br.trips == 2
        assert not br.allow(150.0)


class TestBrokerOutages:
    def outage_grid(self, mode: str, retry=None, seed: int = 13):
        weather = WeatherConfig(
            broker_outages=(
                BrokerOutageConfig(
                    broker="wms-a", start=3_600.0, duration=1_800.0, mode=mode
                ),
            )
        )
        return GridSimulator(
            fed_config(weather=weather, retry=retry), seed=seed
        )

    def test_scheduled_outage_flips_accepting_and_recovers(self):
        grid = self.outage_grid("reject")
        broker = grid.brokers[0]
        assert broker.accepting
        grid.run_until(3_700.0)
        assert not broker.accepting and broker.outage_mode == "reject"
        assert broker.outages_started == 1
        grid.run_until(5_500.0)
        assert broker.accepting

    def test_recovered_broker_serves_stale_snapshot(self):
        grid = self.outage_grid("reject")
        broker = grid.brokers[0]
        grid.run_until(5_500.0)
        # recovery reset the snapshot clock: the pre-outage view is
        # served for one full refresh window from the recovery instant
        assert broker._snapshot_time == pytest.approx(5_400.0)

    def test_reject_without_retry_loses_the_copy(self):
        grid = self.outage_grid("reject")
        grid.run_until(3_700.0)
        job = Job(runtime=600.0)
        grid.submit(job, via="wms-a")
        assert job.state is JobState.LOST
        assert mw_totals(grid)["rejects"] == 1

    def test_black_hole_without_retry_loses_the_copy(self):
        grid = self.outage_grid("black-hole")
        grid.run_until(3_700.0)
        job = Job(runtime=600.0)
        grid.submit(job, via="wms-a")
        assert job.state is JobState.LOST
        assert mw_totals(grid)["black_holed"] == 1

    def test_retry_fails_over_to_surviving_broker(self):
        retry = RetryPolicy(
            max_attempts=3,
            backoff_base=60.0,
            breaker_threshold=1,
            breaker_reset=7_200.0,
        )
        grid = self.outage_grid("reject", retry=retry)
        grid.run_until(3_700.0)
        results: list = []
        launch_task(
            grid, SingleResubmission(t_inf=3_000.0), 600.0, results, via="wms-a"
        )
        grid.run_until(3_700.0 + 4_000.0)
        totals = mw_totals(grid)
        assert results, "task should finish via the surviving broker"
        assert totals["failovers"] >= 1
        assert totals["breaker_trips"] >= 1
        assert grid._mw.breakers[0].trips >= 1

    def test_clean_accept_recloses_the_breaker(self):
        retry = RetryPolicy(
            max_attempts=3,
            backoff_base=60.0,
            breaker_threshold=1,
            breaker_reset=7_200.0,
        )
        grid = self.outage_grid("reject", retry=retry)
        grid.run_until(3_700.0)
        launch_task(
            grid, SingleResubmission(t_inf=3_000.0), 600.0, [], via="wms-a"
        )
        grid.run_until(3_800.0)
        breaker = grid._mw.breakers[0]
        assert breaker.state == "open"
        # past the outage and the reset timeout: the half-open trial lands
        grid.run_until(3_700.0 + 7_300.0)
        launch_task(
            grid, SingleResubmission(t_inf=3_000.0), 600.0, [], via="wms-a"
        )
        assert breaker.state == "closed" and breaker.failures == 0

    def test_storm_can_down_a_broker(self):
        weather = WeatherConfig(
            storm=StormConfig(
                mean_interval=1_800.0,
                mean_duration=900.0,
                subset_size=2,
                broker_prob=1.0,
                broker_mode="reject",
            )
        )
        grid = GridSimulator(fed_config(weather=weather), seed=3)
        grid.run_until(24 * 3_600.0)
        started = sum(b.outages_started for b in grid.brokers)
        assert grid.storm.broker_outages_started >= 1
        assert started == grid.storm.broker_outages_started
        # at least one full down -> recover cycle completed (a final storm
        # may still be in flight at the horizon, so not all need be up)
        still_down = sum(not b.accepting for b in grid.brokers)
        assert started - still_down >= 1

    def test_storm_without_broker_prob_keeps_site_stream(self):
        """broker_prob=0 consumes no draws: site weather is unchanged."""
        storm = StormConfig(mean_interval=1_800.0, mean_duration=900.0)
        plain = GridSimulator(
            fed_config(weather=WeatherConfig(storm=storm)), seed=3
        )
        plain.run_until(24 * 3_600.0)
        assert plain.storm.broker_outages_started == 0
        grid = self.outage_grid("reject")  # scheduled outage, same sites
        assert all(b.accepting for b in grid.brokers)


class TestDuplicates:
    def test_lost_ack_mints_duplicate_and_sibling_cancel_reconciles(self):
        cfg = fed_config(
            submit_faults=SubmitFaultConfig(p_fail=1.0, p_landed=1.0),
            retry=RetryPolicy(max_attempts=3, backoff_base=30.0, jitter=0.0),
        )
        grid = GridSimulator(cfg, seed=5)
        grid.warm_up(1_800.0)
        grid.enable_task_ledger()
        results: list = []
        task = launch_task(grid, SingleResubmission(t_inf=3_000.0), 600.0, results)
        grid.run_until(grid.now + 6_000.0)
        if not task.done:
            task.expire()
        mw = grid._mw
        assert mw.duplicates >= 1, "every attempt lands as a ghost"
        assert mw.duplicates == grid.duplicates_reconciled + sum(
            1 for _, j in grid.task_ledger if j.duplicate
        )
        assert audit_conservation(grid).violations == ()

    def test_without_retry_landed_failure_is_a_clean_accept(self):
        cfg = fed_config(
            submit_faults=SubmitFaultConfig(p_fail=1.0, p_landed=1.0)
        )
        grid = GridSimulator(cfg, seed=5)
        job = Job(runtime=600.0)
        grid.submit(job, via=0)
        # no retry context: nobody would ever resubmit, so the landed
        # copy just runs — no duplicate to reconcile
        assert job.state is not JobState.LOST
        assert grid._mw.duplicates == 0


class TestZeroFaultParity:
    """A retry policy with nothing to retry is invisible (single broker)."""

    @pytest.mark.parametrize("wms_engine", ["batched", "event"])
    def test_retry_on_calm_single_broker_grid_is_bit_identical(self, wms_engine):
        base = dataclasses.replace(
            chaos_grid_config(n_brokers=1), wms_engine=wms_engine
        )
        outcomes = []
        for cfg in (base, dataclasses.replace(base, retry=RetryPolicy())):
            grid = GridSimulator(cfg, seed=3)
            grid.warm_up(2 * 3_600.0)
            outcomes.append(
                run_strategy_on_grid(
                    grid,
                    MultipleSubmission(b=2, t_inf=1_800.0),
                    20,
                    task_interval=120.0,
                    runtime=600.0,
                )
            )
        plain, resilient = outcomes
        assert np.array_equal(plain.j, resilient.j)
        assert np.array_equal(plain.jobs_submitted, resilient.jobs_submitted)
        assert plain.gave_up == resilient.gave_up

    def test_no_middleware_domain_without_fault_config(self):
        assert GridSimulator(fed_config(), seed=1)._mw is None
        assert (
            GridSimulator(fed_config(retry=RetryPolicy()), seed=1)._mw
            is not None
        )
        assert (
            GridSimulator(
                fed_config(submit_faults=SubmitFaultConfig()), seed=1
            )._mw
            is not None
        )


class TestConservation:
    @pytest.mark.parametrize("site_engine", ["vector", "event"])
    @pytest.mark.parametrize("wms_engine", ["batched", "event"])
    def test_standard_schedules_conserve_on_every_corner(
        self, site_engine, wms_engine
    ):
        base = chaos_grid_config()
        for name, cfg in standard_schedules(base):
            run_cfg = dataclasses.replace(cfg, wms_engine=wms_engine)
            with chaos_on(site_engine):
                out = run_chaos(
                    run_cfg, n_tasks=12, warm=2 * 3_600.0, horizon=6 * 3_600.0
                )
            assert out.ok, f"{name}: {out.report.violations}"
            assert out.finished + out.gave_up == 12
            assert out.report.tasks == 12

    def test_generated_schedule_is_reproducible_and_conserves(self):
        base = chaos_grid_config()
        a = fault_schedule(base, seed=21, start=2 * 3_600.0)
        b = fault_schedule(base, seed=21, start=2 * 3_600.0)
        assert a == b  # same seed, same schedule
        assert a != fault_schedule(base, seed=22, start=2 * 3_600.0)
        out = run_chaos(a, n_tasks=12, warm=2 * 3_600.0, horizon=6 * 3_600.0)
        assert out.report.violations == ()

    def test_matrix_rows_cover_all_corners(self):
        base = chaos_grid_config(n_sites=2, n_brokers=2)
        sched = [("dup", fault_schedule(base, 9, n_broker_outages=0))]
        rows = chaos_matrix(
            base, sched, n_tasks=6, warm=1_800.0, horizon=4 * 3_600.0
        )
        assert {r["corner"] for r in rows} == {"batched", "event"}
        assert all(r["ok"] for r in rows)

    def test_outage_killed_duplicate_winner_is_not_a_violation(self):
        """A lost-ack duplicate that wins its task and is then killed by
        a storm still won it — the audit must not report it as a leak."""
        cfg = dict(standard_schedules(chaos_grid_config(seed=4)))[
            "storm-broker-site"
        ]
        assert cfg.weather.storm.kill_running > 0
        out = run_chaos(cfg, seed=4, n_tasks=30, horizon=8 * 3_600.0)
        assert out.report.duplicates > out.report.duplicates_reconciled
        assert sum(out.weather["jobs_killed"].values()) > 0
        assert out.report.violations == ()

    def test_audit_requires_ledger(self):
        grid = GridSimulator(fed_config(), seed=1)
        with pytest.raises(RuntimeError, match="enable_task_ledger"):
            audit_conservation(grid)

    def test_tampered_ledger_fails_the_audit(self):
        cfg = fed_config(retry=RetryPolicy())
        grid = GridSimulator(cfg, seed=5)
        grid.enable_task_ledger()
        results: list = []
        task = launch_task(grid, SingleResubmission(t_inf=3_000.0), 600.0, results)
        grid.run_until(6_000.0)
        if not task.done:
            task.expire()
        assert audit_conservation(grid).violations == ()
        # an off-the-books copy breaks the jobs_used invariant
        grid.task_ledger.append((task, Job(runtime=600.0)))
        report = audit_conservation(grid)
        assert not report.ok
        assert any("off the books" in v for v in report.violations)

    def test_unsettled_task_is_a_violation(self):
        grid = GridSimulator(fed_config(retry=RetryPolicy()), seed=5)
        grid.enable_task_ledger()
        launch_task(grid, SingleResubmission(t_inf=30_000.0), 600.0, [])
        report = audit_conservation(grid)
        assert any("not settled" in v for v in report.violations)


class TestTelemetry:
    def faulty_grid(self, seed: int = 5) -> GridSimulator:
        cfg = fed_config(
            submit_faults=SubmitFaultConfig(p_fail=0.5, p_landed=0.5),
            retry=RetryPolicy(max_attempts=3, backoff_base=30.0),
        )
        return GridSimulator(cfg, seed=seed)

    def run_campaign(self, grid: GridSimulator) -> None:
        results: list = []
        tasks = [
            launch_task(grid, SingleResubmission(t_inf=1_800.0), 600.0, results)
            for _ in range(10)
        ]
        grid.run_until(grid.now + 6 * 3_600.0)
        for t in tasks:
            t.expire()

    def test_weather_report_carries_broker_sections(self):
        grid = self.faulty_grid()
        self.run_campaign(grid)
        report = grid.weather_report()
        assert set(report["brokers"]) == {"wms-a", "wms-b"}
        per_broker = report["brokers"]["wms-a"]
        assert {
            "submits",
            "rejects",
            "failovers",
            "outages",
            "breaker_trips",
            "breaker_state",
        } <= set(per_broker)
        assert report["duplicates"]["created"] >= report["duplicates"]["reconciled"]
        total_submits = sum(b["submits"] for b in report["brokers"].values())
        assert total_submits == grid.jobs_submitted

    def test_registry_reads_middleware_counters(self):
        def mw_total(grid, key):
            m = grid.metrics
            return sum(
                m.value(n)
                for n in m.snapshot()
                if n.startswith("mw.") and n.endswith(f".{key}")
            )

        grid = self.faulty_grid()
        self.run_campaign(grid)
        assert mw_total(grid, "submits") > 0
        assert mw_total(grid, "submits") >= mw_total(grid, "rejects")
        # calm grids publish no middleware counters, so every total is zero
        calm = GridSimulator(fed_config(), seed=5)
        calm.run_until(1_200.0)
        assert mw_total(calm, "submits") == 0
        assert calm.metrics.value("grid.duplicates_reconciled") == 0
