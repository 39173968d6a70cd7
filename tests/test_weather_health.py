"""Grid weather and the site health machine: validation, law equivalence.

Three subsystems under test.  **Weather** (storms, black holes): the
deterministic black-hole path must be bit-identical across site engines
(it consumes no randomness by design), storms without kill draws too.
**Health** (EWMA bans, probe re-admission): the operator loop is
deterministic given the observation stream, and its ban penalties reach
brokers only at snapshot-refresh time — staleness this suite measures
explicitly on a federated grid.  **Self-healing** (resubmission agent):
rescues failed-and-missing tasks under a retry budget, composable with
the user-side strategies.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.strategies import SingleResubmission
from repro.gridsim import (
    BlackHoleConfig,
    BrokerConfig,
    FairShareVectorComputingElement,
    FaultModel,
    GridConfig,
    GridSimulator,
    HealthConfig,
    HealthState,
    Job,
    JobState,
    ProbeExperiment,
    ResubmissionAgent,
    ResubmitConfig,
    Simulator,
    SiteConfig,
    StormConfig,
    StormProcess,
    WeatherConfig,
    run_strategy_on_grid,
)
from repro.gridsim.middleware import RetryPolicy
from repro.gridsim.site import ComputingElement
from repro.population import FleetSpec, PopulationSpec, run_population
from oracles import engine_pair, mw_totals


def config(util: float = 0.85, **kw) -> GridConfig:
    defaults = dict(
        sites=(
            SiteConfig("a", 8, utilization=util, runtime_median=600.0),
            SiteConfig("b", 16, utilization=util, runtime_median=900.0),
            SiteConfig("c", 4, utilization=min(util + 0.05, 1.3), runtime_median=900.0),
        ),
        matchmaking_median=30.0,
        faults=FaultModel(p_lost=0.02, p_stuck=0.02),
    )
    defaults.update(kw)
    return GridConfig(**defaults)


def site_fingerprint(grid: GridSimulator) -> tuple:
    """Per-site observable state (engine-independent fields only)."""
    return (
        grid.now,
        tuple(s.queue_length for s in grid.sites),
        tuple(s.busy_cores for s in grid.sites),
        tuple(s.jobs_started for s in grid.sites),
        tuple(s.jobs_completed for s in grid.sites),
        tuple(s.jobs_killed for s in grid.sites),
        tuple(s.jobs_failed_bh for s in grid.sites),
        tuple(bg.jobs_generated for bg in grid.background),
    )


class TestWeatherValidation:
    """Bad weather configs die at construction with a named parameter."""

    def test_storm_config(self):
        with pytest.raises(ValueError, match="mean_interval"):
            StormConfig(mean_interval=0.0)
        with pytest.raises(ValueError, match="subset_size"):
            StormConfig(subset_size=0)
        with pytest.raises(ValueError, match="kill_running"):
            StormConfig(kill_running=-0.1)

    def test_black_hole_config(self):
        with pytest.raises(ValueError, match="non-empty"):
            BlackHoleConfig(site="")
        with pytest.raises(ValueError, match="start"):
            BlackHoleConfig(site="a", start=-1.0)
        with pytest.raises(ValueError, match="duration"):
            BlackHoleConfig(site="a", duration=0.0)
        # an open-ended hole is legal
        assert math.isinf(BlackHoleConfig(site="a").duration)

    def test_weather_config_types(self):
        with pytest.raises(TypeError, match="StormConfig"):
            WeatherConfig(storm=3)
        with pytest.raises(TypeError, match="BlackHoleConfig"):
            WeatherConfig(black_holes=(3,))

    def test_health_config(self):
        with pytest.raises(ValueError, match="alpha"):
            HealthConfig(alpha=0.0)
        with pytest.raises(ValueError, match="ban_threshold"):
            HealthConfig(ban_threshold=1.5)
        with pytest.raises(ValueError, match="recover <= degrade <= ban"):
            HealthConfig(recover_threshold=0.9, degrade_threshold=0.5)
        with pytest.raises(ValueError, match="min_observations"):
            HealthConfig(min_observations=0)
        with pytest.raises(TypeError, match="min_observations"):
            HealthConfig(min_observations=True)
        with pytest.raises(ValueError, match="degraded_penalty"):
            HealthConfig(degraded_penalty=0.5)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize(
        "cls, name",
        [
            (StormConfig, "subset_size"),
            (ResubmitConfig, "max_retries"),
            (RetryPolicy, "max_attempts"),
            (RetryPolicy, "breaker_threshold"),
            (HealthConfig, "min_observations"),
            (HealthConfig, "n_probes"),
        ],
    )
    def test_infinite_integer_names_its_field(self, cls, name, value):
        # int(inf) overflows; the error must still name the field
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            cls(**{name: value})

    def test_resubmit_config(self):
        with pytest.raises(ValueError, match="period"):
            ResubmitConfig(period=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            ResubmitConfig(max_retries=-1)
        with pytest.raises(ValueError, match="backoff_factor"):
            ResubmitConfig(backoff_factor=0.5)

    def test_grid_config_cross_checks(self):
        with pytest.raises(ValueError, match="exceeds the 3 configured"):
            config(weather=WeatherConfig(storm=StormConfig(subset_size=5)))
        with pytest.raises(ValueError, match="not a configured site"):
            config(
                weather=WeatherConfig(black_holes=(BlackHoleConfig(site="nope"),))
            )
        with pytest.raises(TypeError, match="weather"):
            config(weather=3)
        with pytest.raises(TypeError, match="health"):
            config(health=3)
        with pytest.raises(TypeError, match="resubmit"):
            config(resubmit=3)

    @pytest.mark.parametrize(
        "name,kind",
        [
            ("weather", "WeatherConfig"),
            ("health", "HealthConfig"),
            ("resubmit", "ResubmitConfig"),
            ("submit_faults", "SubmitFaultConfig"),
            ("retry", "RetryPolicy"),
        ],
    )
    def test_optional_subsystem_type_message(self, name, kind):
        with pytest.raises(TypeError) as info:
            config(**{name: 3})
        assert str(info.value) == f"{name} must be a {kind}, got int"


class TestHealthMachine:
    """The operator loop on a live grid, driven by explicit observations."""

    def make_grid(self, seed: int = 7, **health_kw) -> GridSimulator:
        kw = dict(
            min_observations=3,
            ban_cooldown=600.0,
            probe_timeout=300.0,
            probe_runtime=5.0,
        )
        kw.update(health_kw)
        return GridSimulator(
            config(util=0.2, health=HealthConfig(**kw)), seed=seed
        )

    def test_warmup_gate_blocks_early_transitions(self):
        grid = self.make_grid()
        health = grid._health
        health.observe_failure("a")
        health.observe_failure("a")
        assert health._records["a"].state is HealthState.OK

    def test_degrade_then_ban_publishes_penalties(self):
        grid = self.make_grid()
        health = grid._health
        site = grid._site_by_name["a"]
        # EWMA after n straight failures is 1 - (1-alpha)^n; with
        # alpha=0.2 it crosses degrade=0.5 at n=4 and ban=0.8 at n=8
        for _ in range(4):
            health.observe_failure("a")
        assert health._records["a"].state is HealthState.DEGRADED
        assert site.health_penalty == HealthConfig().degraded_penalty
        for _ in range(10):
            health.observe_failure("a")
        assert health._records["a"].state is HealthState.BANNED
        assert math.isinf(site.health_penalty)
        assert health.transitions == {"ok->degraded": 1, "degraded->banned": 1}

    def test_degraded_site_recovers_on_successes(self):
        grid = self.make_grid()
        health = grid._health
        for _ in range(4):
            health.observe_failure("b")
        assert health._records["b"].state is HealthState.DEGRADED
        for _ in range(10):
            health.observe_success("b")
        assert health._records["b"].state is HealthState.OK
        assert grid._site_by_name["b"].health_penalty == 1.0

    def test_probe_readmission_on_healthy_site(self):
        grid = self.make_grid()
        health = grid._health
        for _ in range(10):
            health.observe_failure("a")
        assert health._records["a"].state is HealthState.BANNED
        # ride out the cooldown; probes start promptly on the idle site
        grid.run_until(grid.now + 2000.0)
        assert health._records["a"].state is HealthState.OK
        assert grid._site_by_name["a"].health_penalty == 1.0
        assert health.probes_sent == HealthConfig().n_probes
        assert health.transitions["banned->probing"] == 1
        assert health.transitions["probing->ok"] == 1

    def test_black_hole_site_fails_probes_and_stays_contained(self):
        grid = self.make_grid()
        health = grid._health
        grid._site_by_name["a"].begin_black_hole()
        for _ in range(10):
            health.observe_failure("a")
        # two full cooldown+probe cycles: the hole fails every probe
        grid.run_until(grid.now + 2500.0)
        assert health._records["a"].state in (HealthState.BANNED, HealthState.PROBING)
        assert health.transitions["probing->banned"] >= 1
        assert "probing->ok" not in health.transitions
        assert math.isinf(grid._site_by_name["a"].health_penalty)


class TestBlackHoleSites:
    """Deterministic hole semantics, unit level and across engines."""

    @pytest.mark.parametrize(
        "site_cls", [ComputingElement, FairShareVectorComputingElement]
    )
    def test_arrivals_fail_instantly_while_open(self, site_cls):
        sim = Simulator()
        site = site_cls("ce", 2, sim)
        site.begin_black_hole()
        job = Job(runtime=10.0)
        site.enqueue(job)
        assert job.state is JobState.FAILED
        batch = [Job(runtime=10.0) for _ in range(3)]
        assert site.enqueue_many(batch) == 3
        assert all(j.state is JobState.FAILED for j in batch)
        assert site.jobs_failed_bh == 4
        assert site.estimated_wait(600.0) == 0.0  # the attractor

    @pytest.mark.parametrize(
        "site_cls", [ComputingElement, FairShareVectorComputingElement]
    )
    def test_flip_fails_queued_and_kills_running(self, site_cls):
        sim = Simulator()
        site = site_cls("ce", 1, sim)
        jobs = [Job(runtime=10_000.0) for _ in range(3)]
        for j in jobs:
            site.enqueue(j)
        sim.run_until(100.0)
        assert jobs[0].state is JobState.RUNNING
        site.begin_black_hole()
        assert jobs[0].state is JobState.FAILED
        assert jobs[1].state is JobState.FAILED
        assert jobs[2].state is JobState.FAILED
        assert site.busy_cores == 0
        assert site.jobs_killed == 1
        assert site.jobs_failed_bh == 2
        site.end_black_hole()
        fresh = Job(runtime=50.0)
        site.enqueue(fresh)
        sim.run_until(sim._now + 1000.0)
        assert fresh.state is JobState.COMPLETED

    def test_failed_jobs_are_cancel_noops(self):
        sim = Simulator()
        site = ComputingElement("ce", 1, sim)
        site.begin_black_hole()
        job = Job(runtime=10.0)
        site.enqueue(job)
        grid = GridSimulator(config(util=0.1), seed=3)
        grid.cancel(job)  # already failed: must not resurrect or raise
        assert job.state is JobState.FAILED

    def test_hole_window_bit_identical_across_site_engines(self):
        weather = WeatherConfig(
            black_holes=(BlackHoleConfig(site="b", start=2000.0, duration=6000.0),)
        )
        traces, fps, reports = [], [], []
        for g in engine_pair(config(weather=weather, health=HealthConfig()), 37):
            g.warm_up(600.0)
            traces.append(
                ProbeExperiment(g, n_slots=6, timeout=5000.0).run(30_000.0)
            )
            fps.append(site_fingerprint(g))
            reports.append(g.weather_report())
        tv, te = traces
        np.testing.assert_array_equal(tv.submit_times, te.submit_times)
        np.testing.assert_array_equal(tv.latencies, te.latencies)
        assert fps[0] == fps[1]
        assert reports[0] == reports[1]
        assert sum(reports[0]["black_hole_failures"].values()) > 0

    def test_fairshare_hole_bit_identical_across_site_engines(self):
        shares = (("atlas", 0.6), ("cms", 0.4))
        cfg = config(
            sites=(
                SiteConfig("a", 8, utilization=0.5, vo_shares=shares),
                SiteConfig("b", 8, utilization=0.5, vo_shares=shares),
            ),
            weather=WeatherConfig(
                black_holes=(BlackHoleConfig(site="a", start=1000.0, duration=4000.0),)
            ),
        )
        outcomes, fps = [], []
        for g in engine_pair(cfg, 11):
            g.warm_up(500.0)
            outcomes.append(
                run_strategy_on_grid(
                    g,
                    SingleResubmission(t_inf=3000.0),
                    20,
                    task_interval=120.0,
                    runtime=60.0,
                )
            )
            fps.append(site_fingerprint(g))
        np.testing.assert_array_equal(outcomes[0].j, outcomes[1].j)
        np.testing.assert_array_equal(
            outcomes[0].jobs_submitted, outcomes[1].jobs_submitted
        )
        assert fps[0] == fps[1]


class TestStorms:
    def test_storm_bit_identical_across_site_engines_without_kills(self):
        weather = WeatherConfig(
            storm=StormConfig(
                mean_interval=5000.0,
                mean_duration=2000.0,
                subset_size=2,
                kill_running=0.0,
            )
        )
        traces, fps, reports = [], [], []
        for g in engine_pair(config(weather=weather), 23):
            g.warm_up(600.0)
            traces.append(
                ProbeExperiment(g, n_slots=6, timeout=5000.0).run(40_000.0)
            )
            fps.append(site_fingerprint(g))
            reports.append(g.weather_report())
        tv, te = traces
        np.testing.assert_array_equal(tv.submit_times, te.submit_times)
        np.testing.assert_array_equal(tv.latencies, te.latencies)
        assert fps[0] == fps[1]
        assert reports[0] == reports[1]
        assert reports[0]["storms_started"] >= 2
        assert reports[0]["outages_started"] >= reports[0]["storms_started"]

    def test_storm_skips_down_sites_and_recovers_subset_together(self):
        sim = Simulator()
        sites = [ComputingElement(f"ce{i}", 2, sim) for i in range(3)]
        sites[0].begin_outage(np.random.default_rng(0), 0.0)
        storm = StormProcess(
            sites,
            sim,
            np.random.default_rng(5),
            StormConfig(
                mean_interval=100.0,
                mean_duration=50.0,
                subset_size=3,
                kill_running=0.0,
            ),
        )
        storm.start()
        sim.run_until(400.0)
        assert storm.storms_started >= 1
        # the manually downed site rode every storm out unaffected: a
        # full-grid storm downs at most the two healthy sites
        assert 2 <= storm.outages_started <= 2 * storm.storms_started
        assert not sites[0].dispatch_enabled
        # each storm recovers its subset together; advance until a
        # storm-free instant shows both healthy sites back up
        deadline = sim._now + 100_000.0
        while sim._now < deadline and not all(
            s.dispatch_enabled for s in sites[1:]
        ):
            sim.run_until(sim._now + 10.0)
        assert all(s.dispatch_enabled for s in sites[1:])

    def test_storm_process_rejects_oversized_subset(self):
        sim = Simulator()
        sites = [ComputingElement("ce", 2, sim)]
        with pytest.raises(ValueError, match="subset_size"):
            StormProcess(
                sites, sim, np.random.default_rng(0), StormConfig(subset_size=2)
            )


class TestSelfHealing:
    def hole_config(self, **kw) -> GridConfig:
        return config(
            util=0.2,
            faults=FaultModel(),
            weather=WeatherConfig(
                black_holes=(BlackHoleConfig(site="b", start=500.0, duration=8000.0),)
            ),
            **kw,
        )

    def test_agent_rescues_hole_victims_faster_than_t_inf(self):
        outcomes = {}
        for healing in (False, True):
            cfg = self.hole_config(
                resubmit=ResubmitConfig(period=120.0, backoff_base=30.0)
                if healing
                else None
            )
            grid = GridSimulator(cfg, seed=31)
            grid.warm_up(400.0)
            outcomes[healing] = run_strategy_on_grid(
                grid,
                SingleResubmission(t_inf=6000.0),
                30,
                task_interval=60.0,
                runtime=60.0,
            )
            if healing:
                report = grid.weather_report()
        assert report["resubmit"]["resubmissions"] > 0
        assert outcomes[True].mean_j < outcomes[False].mean_j

    def test_retry_budget_is_respected(self):
        # a task whose every copy dies instantly: the agent must stop
        # exactly at max_retries even though sweeps keep finding bodies
        sim = Simulator()
        agent = ResubmissionAgent(
            sim, ResubmitConfig(period=100.0, max_retries=2, backoff_base=10.0)
        )

        class DoomedTask:
            done = False
            agent_retries = 0
            copies = 0

            def submit_copy(self):
                self.copies += 1
                dead = Job(runtime=1.0)
                dead.state = JobState.LOST
                agent.watch(self, dead)

        task = DoomedTask()
        first = Job(runtime=1.0)
        first.state = JobState.LOST
        agent.watch(task, first)
        agent.start()
        sim.run_until(10_000.0)
        assert agent.resubmissions == 2
        assert task.copies == 2
        assert agent.detected == 3  # the original and both doomed copies

    def test_agent_stops_watching_finished_tasks(self):
        sim = Simulator()
        agent = ResubmissionAgent(sim, ResubmitConfig(period=100.0))

        class FinishedTask:
            done = True
            agent_retries = 0

            def submit_copy(self):
                raise AssertionError("finished tasks must never be resubmitted")

        dead = Job(runtime=1.0)
        dead.state = JobState.STUCK
        agent.watch(FinishedTask(), dead)
        agent.start()
        sim.run_until(1_000.0)
        assert agent.detected == 0
        assert agent.resubmissions == 0
        assert agent._watch == []

    def test_agent_detects_middleware_faults_on_calm_grid(self):
        cfg = config(
            util=0.2,
            faults=FaultModel(p_lost=0.5, p_stuck=0.0),
            resubmit=ResubmitConfig(period=60.0, backoff_base=10.0),
        )
        grid = GridSimulator(cfg, seed=13)
        out = run_strategy_on_grid(
            grid,
            SingleResubmission(t_inf=50_000.0),
            10,
            task_interval=30.0,
            runtime=30.0,
        )
        report = grid.weather_report()
        assert report["resubmit"]["detected"] > 0
        assert report["resubmit"]["resubmissions"] > 0
        assert out.gave_up == 0


class TestWeatherTelemetry:
    def test_calm_grid_reports_zeros(self):
        grid = GridSimulator(config(util=0.3), seed=2)
        grid.warm_up(1000.0)
        report = grid.weather_report()
        assert report["outages_started"] == 0
        assert report["storms_started"] == 0
        assert set(report["jobs_killed"].values()) == {0}
        assert set(report["black_hole_failures"].values()) == {0}
        assert "health" not in report
        assert "resubmit" not in report

    def test_population_result_carries_weather(self):
        cfg = config(
            util=0.3,
            weather=WeatherConfig(
                storm=StormConfig(
                    mean_interval=4000.0, mean_duration=1000.0, subset_size=2
                )
            ),
        )
        grid = GridSimulator(cfg, seed=9)
        grid.warm_up(500.0)
        spec = PopulationSpec(
            fleets=(
                FleetSpec(
                    vo="atlas",
                    strategy=SingleResubmission(t_inf=4000.0),
                    n_tasks=10,
                    runtime=60.0,
                ),
            ),
            window=3600.0,
        )
        result = run_population(grid, spec, seed=1)
        assert result.weather["storms_started"] >= 0
        assert result.weather == grid.weather_report()


class TestBanPropagationStaleness:
    """Bans travel with load snapshots: owned fast, federated lagged."""

    def fed_config(self, info_lag: float = 900.0) -> GridConfig:
        return config(
            util=0.3,
            health=HealthConfig(min_observations=3, ban_cooldown=1e8),
            brokers=(
                BrokerConfig("wms-a", ("a", "b"), info_lag=info_lag),
                BrokerConfig("wms-b", ("c",), info_lag=info_lag),
            ),
        )

    def first_inf_times(self, grid: GridSimulator, idx: int) -> list[float]:
        """When each broker's penalty view of site ``idx`` went to inf.

        Polls through ``current_snapshot()`` — the exact read dispatch
        performs — so refreshes happen on each broker's own cadence.
        """
        times = [math.nan for _ in grid.brokers]
        horizon = grid.now + 10_000.0
        while grid.now < horizon and any(math.isnan(t) for t in times):
            grid.run_until(grid.now + 50.0)
            for k, broker in enumerate(grid.brokers):
                broker.current_snapshot()
                if math.isnan(times[k]) and math.isinf(broker._pen_list[idx]):
                    times[k] = grid.now
        return times

    def test_remote_ban_arrives_after_owner_ban(self):
        grid = GridSimulator(self.fed_config(info_lag=900.0), seed=21)
        grid.warm_up(1000.0)
        for _ in range(10):
            grid._health.observe_failure("a")  # owned by wms-a
        assert math.isinf(grid._site_by_name["a"].health_penalty)
        owner_t, remote_t = self.first_inf_times(grid, idx=0)
        assert not math.isnan(owner_t) and not math.isnan(remote_t)
        # the owner learns within one refresh; the federated broker only
        # once its lagged view of the remote site refreshes
        assert owner_t <= remote_t
        assert remote_t - owner_t <= grid.config.info_refresh + 900.0 + 100.0

    def test_single_wms_stops_feeding_banned_site(self):
        grid = GridSimulator(
            config(util=0.3, health=HealthConfig(min_observations=3)), seed=15
        )
        grid.warm_up(1000.0)
        for _ in range(10):
            grid._health.observe_failure("b")
        # let the ban propagate through one information-system refresh
        grid.run_until(grid.now + 2 * grid.config.info_refresh)
        jobs = [grid.submit(Job(runtime=30.0)) for _ in range(12)]
        grid.run_until(grid.now + 3000.0)
        placed = {j.site for j in jobs if j.site}
        assert "b" not in placed
        assert placed  # the healthy sites absorbed the traffic


class TestAgentWithClientRetries:
    """The agent and the middleware retry policy must not double-rescue."""

    def test_agent_defers_while_a_client_retry_is_pending(self):
        # a dead copy whose task still has a client-side retry backing
        # off: the sweep must neither count nor rescue it — the retry
        # policy already resubmitted on the user's behalf
        sim = Simulator()
        agent = ResubmissionAgent(
            sim, ResubmitConfig(period=100.0, backoff_base=10.0)
        )

        class RetryingTask:
            done = False
            agent_retries = 0
            retry_pending = 1

            def submit_copy(self):
                raise AssertionError(
                    "the agent must defer to the pending client retry"
                )

        task = RetryingTask()
        dead = Job(runtime=1.0)
        dead.state = JobState.LOST
        agent.watch(task, dead)
        agent.start()
        sim.run_until(1_000.0)
        assert agent.detected == 0 and agent.resubmissions == 0
        assert task.agent_retries == 0
        # the client gives up: the very next sweep takes over
        task.retry_pending = 0
        rescued = []
        task.submit_copy = lambda: rescued.append(1)
        sim.run_until(2_000.0)
        assert agent.detected == 1 and agent.resubmissions == 1
        assert task.agent_retries == 1 and rescued == [1]

    @pytest.mark.parametrize("wms_engine", ["batched", "event"])
    def test_agent_composes_with_retry_and_failover(self, wms_engine):
        from repro.gridsim import (
            RetryPolicy,
            SubmitFaultConfig,
            audit_conservation,
        )
        from repro.gridsim.client import launch_task

        cfg = config(
            util=0.3,
            wms_engine=wms_engine,
            faults=FaultModel(p_lost=0.15, p_stuck=0.0),
            brokers=(
                BrokerConfig(name="wms-a", sites=("a", "b")),
                BrokerConfig(name="wms-b", sites=("c",)),
            ),
            submit_faults=SubmitFaultConfig(p_fail=0.4, p_landed=0.5),
            retry=RetryPolicy(max_attempts=3, backoff_base=60.0),
            resubmit=ResubmitConfig(period=120.0, backoff_base=30.0),
        )
        grid = GridSimulator(cfg, seed=17)
        grid.warm_up(1_800.0)
        grid.enable_task_ledger()
        results: list = []
        tasks = [
            launch_task(
                grid, SingleResubmission(t_inf=30_000.0), 120.0, results
            )
            for _ in range(15)
        ]
        grid.run_until(grid.now + 8 * 3_600.0)
        for t in tasks:
            t.expire()
        # both rescue channels fired, and every copy — client-submitted,
        # middleware-retried or agent-rescued — is still accounted for
        # exactly once
        assert grid.weather_report()["resubmit"]["resubmissions"] > 0
        assert mw_totals(grid)["submits"] > len(tasks)
        assert audit_conservation(grid).violations == ()
        # the two rescue channels keep disjoint books: the agent's per-task
        # budget holds, and every grid submission traces back to a client
        # attempt (a minted-but-settled duplicate sibling consumes a ledger
        # slot without an attempt, so jobs_used may exceed the attempts)
        assert sum(t.client_attempts for t in tasks) == grid.jobs_submitted
        for t in tasks:
            assert t.agent_retries <= 3
            assert t.client_attempts >= 1
            assert not t.retry_pending  # settled tasks left nothing armed
