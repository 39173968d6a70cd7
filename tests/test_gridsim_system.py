"""System-level tests: full grid, probe campaigns, strategy executors."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.core.strategies import (
    DelayedResubmission,
    MultipleSubmission,
    SingleResubmission,
)
from repro.gridsim import (
    BatchedWorkloadManager,
    BrokerConfig,
    FairShareVectorComputingElement,
    FaultModel,
    GridConfig,
    GridSimulator,
    ProbeExperiment,
    RetryPolicy,
    SiteConfig,
    default_grid_config,
    run_chaos,
    run_strategy_on_grid,
)
from repro.gridsim.jobs import Job, JobState


def small_config(**kw) -> GridConfig:
    """A light grid for fast tests."""
    defaults = dict(
        sites=(
            SiteConfig("a", 8, utilization=0.8, runtime_median=600.0),
            SiteConfig("b", 16, utilization=0.8, runtime_median=600.0),
            SiteConfig("c", 4, utilization=0.9, runtime_median=900.0),
        ),
        matchmaking_median=30.0,
        faults=FaultModel(p_lost=0.02, p_stuck=0.02),
    )
    defaults.update(kw)
    return GridConfig(**defaults)


@pytest.fixture()
def grid():
    g = GridSimulator(small_config(), seed=3)
    g.warm_up(3600.0)
    return g


class TestGridSimulator:
    def test_default_config_shape(self):
        cfg = default_grid_config(n_sites=5, seed=1)
        assert len(cfg.sites) == 5
        assert all(8 <= s.n_cores <= 128 for s in cfg.sites)
        assert cfg.faults.rho > 0.0

    def test_config_requires_sites(self):
        with pytest.raises(ValueError):
            GridConfig(sites=())

    def test_warm_up_builds_load(self, grid):
        assert grid.utilization() > 0.3
        assert grid.now == 3600.0

    def test_deterministic_given_seed(self):
        a = GridSimulator(small_config(), seed=11)
        b = GridSimulator(small_config(), seed=11)
        a.warm_up(7200.0)
        b.warm_up(7200.0)
        assert a.total_queue_length() == b.total_queue_length()
        assert a.sim.events_processed == b.sim.events_processed

    def test_submit_and_start_callback(self, grid):
        started = []
        job = Job(runtime=10.0, tag="t")
        grid.submit(job, on_start=started.append)
        grid.run_until(grid.now + 50_000.0)
        if job.state in (JobState.LOST, JobState.STUCK):
            assert started == []
        else:
            assert started == [job]
            assert job.start_time - job.submit_time > 0.0

    def test_fault_rates_materialise(self):
        cfg = small_config(faults=FaultModel(p_lost=0.2, p_stuck=0.2))
        g = GridSimulator(cfg, seed=5)
        jobs = [Job(runtime=1.0) for _ in range(2000)]
        for j in jobs:
            g.submit(j)
        assert g.jobs_lost / 2000 == pytest.approx(0.2, abs=0.03)
        assert g.jobs_stuck / 2000 == pytest.approx(0.2 * 0.8, abs=0.03)

    def test_cancel_in_every_state(self, grid):
        # matching
        j1 = Job(runtime=10.0)
        grid.submit(j1)
        if j1.state is JobState.MATCHING:
            grid.cancel(j1)
            assert j1.state is JobState.CANCELLED
        # stuck/lost
        j2 = Job(runtime=10.0)
        j2.state = JobState.STUCK
        j2.site = ""
        grid.cancel(j2)
        assert j2.state is JobState.CANCELLED

    def test_utilization_bounded(self, grid):
        assert 0.0 <= grid.utilization() <= 1.0

    def test_config_defaults_ignore_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_WMS_ENGINE", "event")
        monkeypatch.setenv("REPRO_SITE_ENGINE", "event")
        cfg = small_config()
        assert cfg.wms_engine == "batched"
        g = GridSimulator(cfg, seed=1)
        assert type(g.wms) is BatchedWorkloadManager
        assert all(type(s) is FairShareVectorComputingElement for s in g.sites)
        # import-time budgets too; a fresh interpreter, because reloading
        # the grid module in-process would fork its class identities
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(
            os.environ,
            REPRO_WARM_CACHE_MAX="1",
            REPRO_WARM_CACHE_BYTES="1",
            PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])
            ),
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import repro.gridsim.grid as g; "
                "print(g._WARM_CACHE_MAX, g._WARM_CACHE_MAX_BYTES)",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["16", str(256 * 1024 * 1024)]

    def test_grid_stack_runs_without_scipy(self):
        # the DES, the population pool, chaos and tracing need numpy only;
        # scipy loads with the first fit.  A fresh interpreter, because
        # this one has long since imported it
        script = """
import dataclasses, sys
import numpy as np
import repro, repro.gridsim, repro.population
from repro.core.strategies import MultipleSubmission, SingleResubmission
from repro.gridsim import (
    GridConfig, GridSimulator, SiteConfig, chaos_grid_config, run_chaos,
    run_strategy_on_grid, warmed_snapshot,
)
from repro.population import FleetSpec, PopulationSpec, run_population
from repro.population.soa import pool_supported

cfg = GridConfig(sites=(SiteConfig("a", 8, utilization=0.6),))
spec = PopulationSpec(
    fleets=(FleetSpec("vo", SingleResubmission(t_inf=3600.0), 20),),
    window=3600.0,
)
for traced in (False, True):
    grid = warmed_snapshot(
        dataclasses.replace(cfg, tracing=traced), seed=1, duration=3600.0
    ).restore()
    assert pool_supported(grid) is not traced
    assert run_population(grid, spec, seed=1).total_finished == 20
out = run_chaos(
    dataclasses.replace(chaos_grid_config(seed=7), tracing=True),
    n_tasks=4, warm=1800.0, horizon=4 * 3600.0,
)
assert out.ok and out.events
grid = GridSimulator(cfg, seed=2)
grid.warm_up(1800.0)
run_strategy_on_grid(grid, MultipleSubmission(b=2, t_inf=1800.0), 3)
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
assert not loaded, loaded[:5]
fit = repro.fit_distribution(np.random.default_rng(1).weibull(1.5, 200), "weibull")
assert "scipy.stats" in sys.modules
assert np.isfinite(fit.log_likelihood) and 0.0 <= fit.ks_pvalue <= 1.0
"""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])
            ),
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_no_library_module_reads_the_environment(self):
        pkg = Path(repro.__file__).resolve().parent
        readers = [
            str(path.relative_to(pkg))
            for path in sorted(pkg.rglob("*.py"))
            if "os.environ" in (text := path.read_text(encoding="utf-8"))
            or "getenv" in text
        ]
        assert readers == []

    def test_every_submit_path_draws_the_same_fault_channels(self):
        """submit, submit_many and the middleware accept tail share one
        fault gate: same seed, same lost/stuck verdict per job."""
        faults = FaultModel(p_lost=0.3, p_stuck=0.3)
        verdicts = []
        for path in ("submit", "submit_many", "middleware"):
            extra = {"retry": RetryPolicy()} if path == "middleware" else {}
            g = GridSimulator(small_config(faults=faults, **extra), seed=7)
            jobs = [Job(runtime=10.0) for _ in range(60)]
            if path == "submit_many":
                g.submit_many(jobs)
            else:
                for job in jobs:
                    g.submit(job)
            verdicts.append(
                ([j.state for j in jobs], g.jobs_lost, g.jobs_stuck)
            )
        assert verdicts[0] == verdicts[1] == verdicts[2]
        states = verdicts[0][0]
        assert JobState.LOST in states and JobState.STUCK in states

    def test_lost_job_does_not_advance_the_round_robin(self):
        cfg = small_config(
            faults=FaultModel(p_lost=0.5),
            brokers=(
                BrokerConfig(name="wms-a", sites=("a", "b")),
                BrokerConfig(name="wms-b", sites=("c",)),
            ),
        )
        g = GridSimulator(cfg, seed=13)
        routed = []
        for broker in g.brokers:

            def record(jobs, name=broker.name, submit_many=broker.submit_many):
                routed.extend([name] * len(jobs))
                submit_many(jobs)

            broker.submit_many = record
        jobs = [Job(runtime=10.0) for _ in range(40)]
        for job in jobs:
            g.submit(job)
        assert 0 < g.jobs_lost < 40
        assert len(routed) == 40 - g.jobs_lost - g.jobs_stuck
        assert routed == (["wms-a", "wms-b"] * 20)[: len(routed)]


class TestProbeExperiment:
    def test_probe_trace_structure(self, grid):
        exp = ProbeExperiment(grid, n_slots=5, timeout=4000.0)
        trace = exp.run(40_000.0, name="p")
        assert trace.name == "p"
        assert len(trace) > 10
        assert (np.diff(trace.submit_times) >= 0).all()
        assert trace.submit_times[0] < 40_000.0

    def test_probes_measure_positive_latency(self, grid):
        exp = ProbeExperiment(grid, n_slots=5, timeout=4000.0)
        trace = exp.run(40_000.0)
        ok = trace.successful_latencies
        assert (ok > 0).all()
        assert (ok <= 4000.0).all()

    def test_outliers_recorded(self):
        cfg = small_config(faults=FaultModel(p_lost=0.3, p_stuck=0.0))
        g = GridSimulator(cfg, seed=9)
        g.warm_up(1800.0)
        exp = ProbeExperiment(g, n_slots=10, timeout=1500.0)
        trace = exp.run(60_000.0)
        # lost probes surface as timeouts: rho must be near p_lost
        assert trace.outlier_ratio == pytest.approx(0.3, abs=0.07)

    def test_constant_probe_protocol(self, grid):
        # slots resubmit promptly: the inter-submit gaps per slot equal
        # the measured dwell (latency+runtime, or the timeout — the
        # latter fired from the pooled wheel, so up to one granule late
        # under the batched WMS engine)
        exp = ProbeExperiment(grid, n_slots=1, timeout=2000.0)
        trace = exp.run(30_000.0)
        gaps = np.diff(trace.submit_times)
        finite = np.isfinite(trace.latencies)[:-1]
        dwell = np.where(
            np.isfinite(trace.latencies), trace.latencies + 1.0, 2000.0
        )[:-1]
        np.testing.assert_allclose(gaps[finite], dwell[finite], rtol=1e-9)
        granule = grid.sim.pooled_granularity
        assert np.all(gaps[~finite] >= dwell[~finite] - 1e-9)
        assert np.all(gaps[~finite] <= dwell[~finite] + granule + 1e-9)

    def test_validation(self, grid):
        with pytest.raises(ValueError):
            ProbeExperiment(grid, n_slots=0)
        exp = ProbeExperiment(grid, n_slots=1)
        with pytest.raises(ValueError):
            exp.run(0.0)

    def test_slot_count_must_be_an_integer(self, grid):
        with pytest.raises(TypeError, match="n_slots must be an integer"):
            ProbeExperiment(grid, n_slots=2.5)

    def test_feeds_latency_model_pipeline(self, grid):
        from repro.core import optimize_single
        from repro.util.grids import TimeGrid

        exp = ProbeExperiment(grid, n_slots=8, timeout=4000.0)
        trace = exp.run(50_000.0)
        model = trace.to_latency_model().on_grid(TimeGrid(t_max=4000.0, dt=2.0))
        opt = optimize_single(model)
        assert 0 < opt.t_inf <= 4000.0
        assert np.isfinite(opt.e_j)


class TestStrategyExecutors:
    @pytest.mark.parametrize(
        "strategy",
        [
            SingleResubmission(t_inf=2000.0),
            MultipleSubmission(b=3, t_inf=2000.0),
            DelayedResubmission(t0=1200.0, t_inf=2000.0),
        ],
        ids=["single", "multiple", "delayed"],
    )
    def test_tasks_complete(self, strategy):
        g = GridSimulator(small_config(), seed=21)
        g.warm_up(3600.0)
        out = run_strategy_on_grid(g, strategy, 40, task_interval=200.0, runtime=60.0)
        assert out.gave_up == 0
        assert out.j.size == 40
        assert (out.j > 0).all()
        assert (out.jobs_submitted >= 1).all()

    def test_multiple_uses_b_jobs_per_round(self):
        g = GridSimulator(small_config(), seed=22)
        g.warm_up(3600.0)
        out = run_strategy_on_grid(
            g, MultipleSubmission(b=4, t_inf=3000.0), 30, task_interval=200.0
        )
        assert (out.jobs_submitted % 4 == 0).all()

    def test_multiple_beats_single_on_same_grid(self):
        j_means = {}
        for name, strat in {
            "single": SingleResubmission(t_inf=2500.0),
            "multi": MultipleSubmission(b=4, t_inf=2500.0),
        }.items():
            g = GridSimulator(small_config(), seed=33)
            g.warm_up(3600.0)
            out = run_strategy_on_grid(g, strat, 60, task_interval=300.0, runtime=60.0)
            j_means[name] = out.mean_j
        assert j_means["multi"] < j_means["single"]

    def test_delayed_uses_fewer_jobs_than_multiple(self):
        outs = {}
        for name, strat in {
            "multi": MultipleSubmission(b=3, t_inf=2000.0),
            "delayed": DelayedResubmission(t0=1500.0, t_inf=2500.0),
        }.items():
            g = GridSimulator(small_config(), seed=44)
            g.warm_up(3600.0)
            outs[name] = run_strategy_on_grid(
                g, strat, 50, task_interval=300.0, runtime=60.0
            )
        assert outs["delayed"].mean_jobs < outs["multi"].mean_jobs

    def test_unsupported_strategy_type(self):
        g = GridSimulator(small_config(), seed=1)

        class Fake:
            pass

        with pytest.raises(TypeError, match="unsupported"):
            run_strategy_on_grid(g, Fake(), 1)

    def test_validation(self):
        g = GridSimulator(small_config(), seed=1)
        with pytest.raises(ValueError):
            run_strategy_on_grid(g, SingleResubmission(t_inf=100.0), 0)

    @pytest.mark.parametrize("n_tasks", [True, 2.5, float("inf")])
    def test_non_integer_task_count_is_named(self, n_tasks):
        g = GridSimulator(small_config(), seed=1)
        with pytest.raises(TypeError, match="n_tasks must be an integer"):
            run_strategy_on_grid(g, SingleResubmission(t_inf=100.0), n_tasks)

    @pytest.mark.parametrize("entry", ["run_strategy_on_grid", "run_chaos"])
    @pytest.mark.parametrize("field", ["runtime", "task_interval", "horizon"])
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), 0.0, -5.0]
    )
    def test_campaign_rejects_bad_times(self, entry, field, value):
        # both entry points share one campaign loop, which validates
        # these before it launches anything
        with pytest.raises(ValueError, match=field):
            if entry == "run_chaos":
                run_chaos(small_config(), n_tasks=2, warm=60.0, **{field: value})
            else:
                g = GridSimulator(small_config(), seed=1)
                run_strategy_on_grid(
                    g, SingleResubmission(t_inf=100.0), 2, **{field: value}
                )


class TestProbeExperimentReentrancy:
    def test_second_run_starts_from_clean_state(self, grid):
        exp = ProbeExperiment(grid, n_slots=4, timeout=2000.0)
        first = exp.run(20_000.0)
        second = exp.run(20_000.0)
        # the second campaign must not inherit the first one's records
        assert len(second) < 1.5 * len(first)
        assert second.submit_times[0] >= 0.0
        assert second.submit_times[-1] <= 20_000.0
        # both campaigns alone satisfy the trace invariants
        for tr in (first, second):
            assert np.all(np.diff(tr.submit_times) >= 0.0)


class TestEventDrivenStrategyRuns:
    def test_clock_stops_at_last_completion(self, grid):
        before = grid.now
        out = run_strategy_on_grid(
            grid,
            SingleResubmission(t_inf=4000.0),
            10,
            task_interval=60.0,
            runtime=120.0,
            horizon=200_000.0,
        )
        assert out.gave_up == 0
        # event-driven finish: the clock did not burn the whole horizon
        assert grid.now < before + 100_000.0

    def test_gave_up_partial_jobs_recorded(self):
        # one saturated single-core site with no faults: the first task
        # hogs the core for 10^4 s, later tasks queue behind it and the
        # horizon cuts the last ones off mid-flight
        cfg = GridConfig(
            sites=(SiteConfig("solo", 1, utilization=0.0001),),
            matchmaking_median=30.0,
            matchmaking_sigma=0.1,
            ranking_noise=0.0,
            faults=FaultModel(),
        )
        g = GridSimulator(cfg, seed=11)
        out = run_strategy_on_grid(
            g,
            SingleResubmission(t_inf=100_000.0),
            4,
            task_interval=10.0,
            runtime=9_000.0,
            horizon=20_000.0,
        )
        assert out.gave_up >= 1
        assert out.j.size + out.gave_up == 4
        # the gave-up stragglers' partial submission counts ride along
        assert out.jobs_submitted.size == 4
        assert np.all(out.jobs_submitted[out.j.size:] >= 1)

    def test_submit_many_matches_submit_loop_on_oracle(self):
        import dataclasses

        cfg = dataclasses.replace(small_config(), wms_engine="event")
        a = GridSimulator(cfg, seed=29)
        b = GridSimulator(cfg, seed=29)
        for g in (a, b):
            g.warm_up(3600.0)
        jobs_a = [Job(runtime=100.0) for _ in range(5)]
        for j in jobs_a:
            a.submit(j)
        jobs_b = [Job(runtime=100.0) for _ in range(5)]
        b.submit_many(jobs_b)
        for g in (a, b):
            g.run_until(g.now + 5_000.0)
        for ja, jb in zip(jobs_a, jobs_b):
            assert ja.state == jb.state
            assert ja.site == jb.site
            assert (
                np.isnan(ja.queue_time)
                and np.isnan(jb.queue_time)
                or ja.queue_time == jb.queue_time
            )
