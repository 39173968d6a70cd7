"""The batched WMS dispatch lane against the per-job event oracle.

Contract of :class:`~repro.gridsim.wms.BatchedWorkloadManager`: the
windowed bucket lane realises the *same dispatch law* as the per-job
oracle up to its documented quantisation — jobs reach their queue at the
upper boundary of their ``info_refresh / SUBWINDOWS`` dispatch quantum
instead of their exact match-making instant, so individual latencies
shift by less than one quantum (mean ``quantum/2`` ≈ 9 s on the default
grid, against a minutes-scale latency floor) while fault rates, dispatch
counts, site-ranking behaviour, strategy outcomes, federation routing
and fair-share accounting all agree with the oracle at law level.

The suite pins those agreements with deterministic seeds and tolerances
calibrated against the measured quantisation bias, plus the dispatch
bucket's cancellation races (a job cancelled while pooled must die in
place on every engine combination) and a bucket resolving across a
fair-share usage-decay boundary.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.strategies import (
    DelayedResubmission,
    MultipleSubmission,
    SingleResubmission,
)
from repro.gridsim import (
    FaultModel,
    GridConfig,
    GridSimulator,
    Job,
    JobState,
    ProbeExperiment,
    SiteConfig,
    federated_grid_config,
    run_strategy_on_grid,
)
from oracles import make_grid

ENGINE_MATRIX = [
    ("batched", "vector"),
    ("batched", "event"),
    ("event", "vector"),
    ("event", "event"),
]


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


def engine_pair(cfg: GridConfig, seed: int) -> tuple[GridSimulator, GridSimulator]:
    """The same grid on the batched lane and on the per-job oracle."""
    return (
        GridSimulator(dataclasses.replace(cfg, wms_engine="batched"), seed=seed),
        GridSimulator(dataclasses.replace(cfg, wms_engine="event"), seed=seed),
    )


def quantum(grid: GridSimulator) -> float:
    """The batched lane's dispatch quantum for ``grid``'s config."""
    from repro.gridsim.wms import BatchedWorkloadManager

    return grid.config.info_refresh / BatchedWorkloadManager.SUBWINDOWS


class TestProbeTraceLaw:
    """The §3.2 measurement protocol sees the same latency law."""

    @pytest.fixture(scope="class")
    def traces(self):
        out = {}
        for name, grid in zip("be", engine_pair(config(), seed=23)):
            grid.warm_up(6 * 3600.0)
            out[name] = ProbeExperiment(grid, n_slots=12, timeout=4000.0).run(
                86_400.0
            )
        return out

    def test_outlier_rates_agree(self, traces):
        rho = {k: float((~np.isfinite(t.latencies)).mean()) for k, t in traces.items()}
        assert abs(rho["b"] - rho["e"]) < 0.02

    def test_latency_laws_agree_up_to_quantisation(self, traces):
        lat = {
            k: t.latencies[np.isfinite(t.latencies)] for k, t in traces.items()
        }
        q = 300.0 / 16  # default info_refresh over SUBWINDOWS
        # the batched lane delays each dispatch by [0, q): its mean may
        # exceed the oracle's by up to one quantum (plus noise), never
        # fall materially below it
        assert lat["b"].mean() < lat["e"].mean() + 2.5 * q
        assert lat["b"].mean() > lat["e"].mean() - q
        assert abs(np.median(lat["b"]) - np.median(lat["e"])) < 2.5 * q
        # probe volume (slots cycle on latency) stays comparable
        n_b, n_e = len(traces["b"]), len(traces["e"])
        assert 0.85 < n_b / n_e < 1.15

    def test_dispatch_counts_agree(self):
        gb, ge = engine_pair(config(), seed=31)
        for g in (gb, ge):
            g.warm_up(3600.0)
            ProbeExperiment(g, n_slots=8, timeout=4000.0).run(20_000.0)
        db = sum(b.dispatch_count for b in gb.brokers)
        de = sum(b.dispatch_count for b in ge.brokers)
        assert 0.85 < db / de < 1.15


class TestStrategyOutcomeLaw:
    """Strategies executed mechanically realise comparable outcomes."""

    @pytest.mark.parametrize(
        "strategy",
        [
            SingleResubmission(t_inf=3000.0),
            MultipleSubmission(b=3, t_inf=3000.0),
            DelayedResubmission(t0=1800.0, t_inf=3000.0),
        ],
        ids=["single", "multiple", "delayed"],
    )
    def test_outcome_agrees(self, strategy):
        outs = {}
        for key, grid in zip("be", engine_pair(config(), seed=41)):
            grid.warm_up(6 * 3600.0)
            outs[key] = run_strategy_on_grid(
                grid, strategy, 60, task_interval=240.0, runtime=300.0
            )
        q = quantum(GridSimulator(config(), seed=0))
        b, e = outs["b"], outs["e"]
        # J includes the payload runtime (300 s), so a quantum-level
        # dispatch shift moves the mean by far less than a factor
        assert abs(b.mean_j - e.mean_j) < 4.0 * q + 0.25 * e.mean_j
        assert abs(b.mean_jobs - e.mean_jobs) < 0.6
        assert b.gave_up == e.gave_up == 0

    def test_strategy_ordering_preserved(self):
        """Burst submission beats single resubmission on both engines."""
        means = {}
        for key, grid in zip("be", engine_pair(config(), seed=43)):
            grid.warm_up(6 * 3600.0)
            snap_means = []
            for strategy in (
                SingleResubmission(t_inf=3000.0),
                MultipleSubmission(b=3, t_inf=3000.0),
            ):
                fork = GridSimulator(
                    dataclasses.replace(
                        config(), wms_engine=grid.config.wms_engine
                    ),
                    seed=43,
                )
                fork.warm_up(6 * 3600.0)
                out = run_strategy_on_grid(
                    fork, strategy, 60, task_interval=240.0, runtime=300.0
                )
                snap_means.append(out.mean_j)
            means[key] = snap_means
        assert means["b"][1] < means["b"][0]
        assert means["e"][1] < means["e"][0]


class TestFederationRouting:
    """Federated brokers route through the batched lane identically."""

    def test_round_robin_spreads_over_brokers(self):
        cfg = federated_grid_config(n_sites=4, n_brokers=2, seed=11)
        counts = {}
        for key, grid in zip(
            "be",
            (
                GridSimulator(dataclasses.replace(cfg, wms_engine="batched"), seed=3),
                GridSimulator(dataclasses.replace(cfg, wms_engine="event"), seed=3),
            ),
        ):
            grid.warm_up(3600.0)
            results: list = []
            from repro.gridsim import launch_task

            for i in range(40):
                grid.sim.schedule_at(
                    grid.now + 60.0 * i,
                    lambda: launch_task(
                        grid, SingleResubmission(t_inf=4000.0), 120.0, results
                    ),
                )
            grid.run_until(grid.now + 30_000.0)
            counts[key] = [b.dispatch_count for b in grid.brokers]
        for key in counts:
            assert all(c > 0 for c in counts[key]), counts
        total_b, total_e = sum(counts["b"]), sum(counts["e"])
        assert 0.8 < total_b / total_e < 1.25

    def test_via_pins_broker_on_batched_lane(self):
        cfg = federated_grid_config(n_sites=4, n_brokers=2, seed=11)
        grid = GridSimulator(
            dataclasses.replace(cfg, wms_engine="batched"), seed=5
        )
        grid.warm_up(3600.0)
        before = [b.dispatch_count for b in grid.brokers]
        job = grid.submit(Job(runtime=60.0), via="wms-1")
        grid.run_until(grid.now + 2000.0)
        after = [b.dispatch_count for b in grid.brokers]
        if job.state not in (JobState.LOST, JobState.STUCK):
            assert after[1] == before[1] + 1
        assert after[0] == before[0]


class TestFairShareLaw:
    """Fair-share accounting agrees across dispatch engines."""

    def fairshare_config(self) -> GridConfig:
        return GridConfig(
            sites=(
                SiteConfig(
                    "fs",
                    16,
                    utilization=0.9,
                    runtime_median=900.0,
                    vo_shares=(("biomed", 0.7), ("atlas", 0.3)),
                ),
            ),
            matchmaking_median=30.0,
            faults=FaultModel(),
        )

    def test_usage_shares_agree(self):
        from repro.gridsim import launch_task

        shares = {}
        for key, engine in (("b", "batched"), ("e", "event")):
            grid = GridSimulator(
                dataclasses.replace(self.fairshare_config(), wms_engine=engine),
                seed=7,
            )
            grid.warm_up(6 * 3600.0)
            results: list = []
            for i in range(30):
                vo = "biomed" if i % 2 else "atlas"
                grid.sim.schedule_at(
                    grid.now + 120.0 * i,
                    lambda vo=vo: launch_task(
                        grid,
                        SingleResubmission(t_inf=4000.0),
                        300.0,
                        results,
                        vo=vo,
                    ),
                )
            grid.run_until(grid.now + 40_000.0)
            shares[key] = grid.sites[0].usage_shares()
            assert len(results) >= 25
        for vo in ("biomed", "atlas"):
            assert abs(shares["b"][vo] - shares["e"][vo]) < 0.1


class TestDispatchBucketRaces:
    """Cancellations racing the dispatch bucket, on every engine pair."""

    @pytest.mark.parametrize("wms_engine,site_engine", ENGINE_MATRIX)
    def test_cancel_while_pooled_never_dispatches(self, wms_engine, site_engine):
        cfg = config(
            util=0.3,
            wms_engine=wms_engine,
            faults=FaultModel(),
        )
        grid = make_grid(cfg, 13, site_engine)
        grid.warm_up(1800.0)
        before = sum(b.dispatch_count for b in grid.brokers)
        job = grid.submit(Job(runtime=100.0))
        assert job.state is JobState.MATCHING
        grid.cancel(job)
        assert job.state is JobState.CANCELLED
        # run far past every possible bucket boundary / dispatch event
        grid.run_until(grid.now + 5_000.0)
        assert job.state is JobState.CANCELLED
        assert sum(b.dispatch_count for b in grid.brokers) == before
        assert np.isnan(job.queue_time)

    @pytest.mark.parametrize("wms_engine,site_engine", ENGINE_MATRIX)
    def test_cancel_many_mixed_batch(self, wms_engine, site_engine):
        """One grid call settles matching, queued and running siblings."""
        cfg = config(
            util=0.0001,
            wms_engine=wms_engine,
            faults=FaultModel(),
        )
        grid = make_grid(cfg, 17, site_engine)
        started: list = []
        running = grid.submit(Job(runtime=10_000.0), on_start=started.append)
        grid.run_until(grid.now + 2_000.0)  # dispatch + start on an idle grid
        assert running.state is JobState.RUNNING and started
        matching = grid.submit(Job(runtime=100.0))
        assert matching.state is JobState.MATCHING
        grid.cancel_many([running, matching])
        assert running.state is JobState.CANCELLED
        assert matching.state is JobState.CANCELLED
        grid.run_until(grid.now + 5_000.0)
        assert matching.state is JobState.CANCELLED
        busy = sum(s.busy_cores for s in grid.sites)
        assert busy <= 1  # at most stray background, never the killed client

    def test_pending_dispatches_diagnostic(self):
        grid = GridSimulator(
            config(util=0.3, wms_engine="batched", faults=FaultModel()), seed=19
        )
        grid.warm_up(600.0)
        job = grid.submit(Job(runtime=50.0))
        wms = grid.wms
        assert wms.pending_dispatches == 1
        grid.cancel(job)
        assert wms.pending_dispatches == 0  # husks are discounted
        grid.run_until(grid.now + 2_000.0)
        assert not wms._buckets

    @pytest.mark.parametrize("site_engine", ["vector", "event"])
    def test_bucket_resolves_across_fairshare_decay_boundary(self, site_engine):
        """A bucket whose window spans a usage-decay half-life still
        dispatches with the decayed priorities (both site engines)."""
        from repro.gridsim import launch_task

        cfg = GridConfig(
            sites=(
                SiteConfig(
                    "fs",
                    4,
                    utilization=0.5,
                    runtime_median=600.0,
                    vo_shares=(("biomed", 0.5), ("atlas", 0.5)),
                ),
            ),
            matchmaking_median=30.0,
            faults=FaultModel(),
            wms_engine="batched",
            fairshare_halflife=60.0,  # decays within a dispatch quantum
        )
        grid = make_grid(cfg, 23, site_engine)
        grid.warm_up(1800.0)
        results: list = []
        for vo in ("biomed", "atlas", "biomed", "atlas"):
            launch_task(
                grid, SingleResubmission(t_inf=4000.0), 120.0, results, vo=vo
            )
        grid.run_until(grid.now + 10_000.0)
        assert len(results) == 4
        shares = grid.sites[0].usage_shares()
        assert set(shares) == {"biomed", "atlas"}
        assert all(0.0 <= v <= 1.0 for v in shares.values())


class TestWeatherBucketRaces:
    """Weather events racing the dispatch bucket, on every engine pair."""

    def one_site_config(self, wms_engine: str) -> GridConfig:
        return GridConfig(
            sites=(SiteConfig("only", 4, utilization=0.2, runtime_median=600.0),),
            matchmaking_median=30.0,
            faults=FaultModel(),
            wms_engine=wms_engine,
        )

    @pytest.mark.parametrize("wms_engine,site_engine", ENGINE_MATRIX)
    def test_hole_opening_while_pooled_fails_the_dispatch(
        self, wms_engine, site_engine
    ):
        """A job pooled in a bucket whose target turns black-hole before
        the bucket resolves must die at the site, not vanish or hang."""
        grid = make_grid(self.one_site_config(wms_engine), 13, site_engine)
        grid.warm_up(1800.0)
        site = grid.sites[0]
        job = grid.submit(Job(runtime=100.0))
        assert job.state is JobState.MATCHING
        site.begin_black_hole()  # races the pooled dispatch
        grid.run_until(grid.now + 5_000.0)
        assert job.state is JobState.FAILED
        # at least the client job; background arrivals may join it on
        # the per-job event engine (the vector lane batches them away)
        assert site.jobs_failed_bh >= 1
        # the hole stamps the arrival, then fails it before any start
        assert not np.isnan(job.queue_time)
        assert np.isnan(job.start_time)
        if hasattr(grid.wms, "pending_dispatches"):
            assert grid.wms.pending_dispatches == 0

    @pytest.mark.parametrize("wms_engine,site_engine", ENGINE_MATRIX)
    def test_outage_while_pooled_parks_job_until_recovery(
        self, wms_engine, site_engine
    ):
        """An outage opening under a pooled dispatch parks the job in the
        site queue (dispatch disabled), and it runs once the site is back."""
        grid = make_grid(self.one_site_config(wms_engine), 17, site_engine)
        grid.warm_up(1800.0)
        site = grid.sites[0]
        job = grid.submit(Job(runtime=50.0))
        site.begin_outage(np.random.default_rng(0), 0.0)
        grid.run_until(grid.now + 2_000.0)
        assert job.state is JobState.QUEUED  # enqueued but never started
        site.end_outage()
        grid.run_until(grid.now + 2_000.0)
        assert job.state is JobState.COMPLETED

    @pytest.mark.parametrize("wms_engine,site_engine", ENGINE_MATRIX)
    def test_ban_masks_site_after_one_refresh(self, wms_engine, site_engine):
        """Once a ban has had one information-system refresh to land,
        no dispatch bucket feeds the banned site any more."""
        from repro.gridsim import HealthConfig

        cfg = config(
            util=0.2,
            wms_engine=wms_engine,
            faults=FaultModel(),
            health=HealthConfig(min_observations=3, ban_cooldown=1e8),
        )
        grid = make_grid(cfg, 19, site_engine)
        grid.warm_up(1800.0)
        for _ in range(10):
            grid._health.observe_failure("b")
        grid.run_until(grid.now + 2 * grid.config.info_refresh)
        jobs = [grid.submit(Job(runtime=30.0)) for _ in range(10)]
        grid.run_until(grid.now + 5_000.0)
        assert all(j.state is JobState.COMPLETED for j in jobs)
        # every client dispatch avoided the banned site (its background
        # production load is site-local and keeps flowing regardless)
        assert {j.site for j in jobs} <= {"a", "c"}

    @pytest.mark.parametrize("wms_engine,site_engine", ENGINE_MATRIX)
    def test_all_banned_falls_back_to_unpenalised_ranking(
        self, wms_engine, site_engine
    ):
        """With every site banned the mask would starve the grid; the
        WMS documents falling back to plain ranking instead."""
        from repro.gridsim import HealthConfig

        cfg = config(
            util=0.2,
            wms_engine=wms_engine,
            faults=FaultModel(),
            health=HealthConfig(min_observations=3, ban_cooldown=1e8),
        )
        grid = make_grid(cfg, 29, site_engine)
        grid.warm_up(1800.0)
        for name in ("a", "b", "c"):
            for _ in range(10):
                grid._health.observe_failure(name)
        grid.run_until(grid.now + 2 * grid.config.info_refresh)
        job = grid.submit(Job(runtime=30.0))
        grid.run_until(grid.now + 5_000.0)
        assert job.state is JobState.COMPLETED
