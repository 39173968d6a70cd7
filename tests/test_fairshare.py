"""Fair-share invariants across both site engines.

Three contracts pin the new scheduling layer:

* **degeneracy** — with one VO at share 1.0 both fair-share engines are
  *exactly* the plain FIFO engines (identical fingerprints and client
  traces), and grid configs declaring fewer than two VOs are wired with
  the plain classes;
* **work conservation** — a free core never coexists with a waiting job,
  whatever the VO mix;
* **share convergence** — under saturation each VO's decayed usage
  fraction converges to its allocated share.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.gridsim import (
    ComputingElement,
    FairShareComputingElement,
    FairShareState,
    FairShareVectorComputingElement,
    FaultModel,
    GridConfig,
    GridSimulator,
    Job,
    JobState,
    ProbeExperiment,
    SiteConfig,
    Simulator,
    VectorComputingElement,
)
from oracles import make_grid

SHARES3 = (("biomed", 0.5), ("atlas", 0.3), ("cms", 0.2))


def multi_vo_config(util: float = 0.9, **kw) -> GridConfig:
    defaults = dict(
        sites=(
            SiteConfig(
                "a", 8, utilization=util, runtime_median=600.0, vo_shares=SHARES3
            ),
            SiteConfig(
                "b",
                16,
                utilization=min(util + 0.05, 1.3),
                runtime_median=900.0,
                vo_shares=SHARES3[:2],
            ),
        ),
        matchmaking_median=30.0,
        faults=FaultModel(p_lost=0.02, p_stuck=0.02),
    )
    defaults.update(kw)
    return GridConfig(**defaults)


def site_fingerprint(grid: GridSimulator) -> tuple:
    return (
        grid.now,
        tuple(s.queue_length for s in grid.sites),
        tuple(s.busy_cores for s in grid.sites),
        tuple(s.jobs_started for s in grid.sites),
        tuple(s.jobs_completed for s in grid.sites),
        tuple(bg.jobs_generated for bg in grid.background),
    )


class TestFairShareState:
    def test_normalisation_and_selection(self):
        fs = FairShareState((("a", 2.0), ("b", 1.0), ("c", 1.0)))
        assert fs.shares == pytest.approx((0.5, 0.25, 0.25))
        # untouched usage: first candidate in registration order wins ties
        assert fs.select([0, 1, 2], 0.0) == 0
        fs.charge(0, 100.0, 0.0)
        # a's ratio is now 200, b/c still 0 -> b (lowest index) wins
        assert fs.select([0, 1, 2], 0.0) == 1
        fs.charge(1, 100.0, 0.0)
        assert fs.select([0, 1, 2], 0.0) == 2

    def test_decay_halves_usage_per_halflife(self):
        fs = FairShareState((("a", 1.0), ("b", 1.0)), halflife=100.0)
        fs.charge(0, 80.0, 0.0)
        assert fs.decayed_usage(100.0)[0] == pytest.approx(40.0)
        assert fs.decayed_usage(300.0)[0] == pytest.approx(10.0)
        # decayed_usage never commits: repeated reads are stable
        assert fs.decayed_usage(100.0)[0] == pytest.approx(40.0)

    def test_infinite_halflife_disables_decay(self):
        fs = FairShareState((("a", 1.0),), halflife=math.inf)
        fs.charge(0, 50.0, 0.0)
        assert fs.decayed_usage(1e12)[0] == 50.0

    def test_unknown_vo_maps_to_default(self):
        fs = FairShareState(SHARES3)
        assert fs.index_of("biomed") == 0
        assert fs.index_of("atlas") == 1
        assert fs.index_of("") == 0
        assert fs.index_of("nosuch") == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one VO"):
            FairShareState(())
        with pytest.raises(ValueError, match="duplicate VO"):
            FairShareState((("a", 0.5), ("a", 0.5)))
        with pytest.raises(ValueError, match="must be > 0"):
            FairShareState((("a", -1.0),))
        with pytest.raises(ValueError, match="non-empty string"):
            FairShareState((("", 1.0),))
        with pytest.raises(ValueError, match="halflife"):
            FairShareState((("a", 1.0),), halflife=0.0)


class TestSingleVoDegeneracy:
    """One VO at share 1.0 must be *exactly* the plain engine."""

    @pytest.mark.parametrize(
        "plain_cls,fs_cls",
        [
            (ComputingElement, FairShareComputingElement),
            (VectorComputingElement, FairShareVectorComputingElement),
        ],
        ids=["event", "vector"],
    )
    def test_deterministic_site_trace_identical(self, plain_cls, fs_cls):
        """Hand-fed workload: starts and telemetry match the plain class."""
        rng = np.random.default_rng(99)
        arrivals = np.sort(rng.uniform(0.0, 500.0, size=60))
        runtimes = rng.lognormal(3.0, 1.0, size=60)
        traces = []
        for cls, kwargs in (
            (plain_cls, {}),
            (fs_cls, {"vo_shares": (("only", 1.0),)}),
        ):
            sim = Simulator()
            started = []
            site = cls(
                "s", 3, sim, on_start=lambda j: started.append((sim.now, j.runtime)),
                **kwargs,
            )
            client_jobs = []
            for k, (a, r) in enumerate(zip(arrivals, runtimes)):
                if k % 5 == 2:
                    job = Job(runtime=float(r), tag="task")
                    client_jobs.append((float(a), job))
                    sim.schedule_at(float(a), lambda j=job: site.enqueue(j))
                else:
                    bg = Job(runtime=float(r), tag="background")
                    sim.schedule_at(float(a), lambda j=bg: site.enqueue(j))
            # cancel a couple of queued clients mid-flight
            sim.schedule_at(
                260.0,
                lambda: [
                    site.cancel(j)
                    for _, j in client_jobs
                    if j.state is JobState.QUEUED
                ],
            )
            points = []
            for t in (100.0, 260.0, 400.0, 2000.0):
                sim.run_until(t)
                points.append(
                    (site.queue_length, site.busy_cores, site.jobs_started)
                )
            sim.run_until(20_000.0)
            traces.append((tuple(started), tuple(points), site.jobs_completed))
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("engine", ["event", "vector"])
    def test_grid_probe_trace_identical(self, engine):
        """Full grid: explicit 1-VO config is byte-identical to no-VO."""
        plain = multi_vo_config()
        plain = GridConfig(
            sites=tuple(
                SiteConfig(
                    sc.name,
                    sc.n_cores,
                    utilization=sc.utilization,
                    runtime_median=sc.runtime_median,
                    runtime_sigma=sc.runtime_sigma,
                )
                for sc in plain.sites
            ),
            matchmaking_median=plain.matchmaking_median,
            faults=plain.faults,
        )
        onevo = GridConfig(
            sites=tuple(
                SiteConfig(
                    sc.name,
                    sc.n_cores,
                    utilization=sc.utilization,
                    runtime_median=sc.runtime_median,
                    runtime_sigma=sc.runtime_sigma,
                    vo_shares=(("only", 1.0),),
                )
                for sc in plain.sites
            ),
            matchmaking_median=plain.matchmaking_median,
            faults=plain.faults,
        )
        traces = []
        for cfg in (plain, onevo):
            g = make_grid(cfg, 31, engine)
            g.warm_up(3600.0)
            traces.append(
                ProbeExperiment(g, n_slots=6, timeout=4000.0).run(30_000.0)
            )
        tp, tv = traces
        np.testing.assert_array_equal(tp.submit_times, tv.submit_times)
        np.testing.assert_array_equal(tp.latencies, tv.latencies)
        np.testing.assert_array_equal(tp.status_codes, tv.status_codes)

    def test_single_vo_routes_to_plain_engine_classes(self):
        cfg = GridConfig(
            sites=(SiteConfig("a", 4, vo_shares=(("only", 1.0),)),)
        )
        g = GridSimulator(cfg, seed=1)
        assert type(g.sites[0]) is VectorComputingElement
        cfg2 = multi_vo_config()
        g2 = GridSimulator(cfg2, seed=1)
        assert type(g2.sites[0]) is FairShareVectorComputingElement
        # the test-only oracle grid swaps both site classes
        assert type(make_grid(cfg, 1, "event").sites[0]) is ComputingElement
        assert (
            type(make_grid(cfg2, 1, "event").sites[0])
            is FairShareComputingElement
        )


class TestEngineEquivalence:
    """Multi-VO grids: the vector lane mirrors the event oracle."""

    @pytest.mark.parametrize(
        "util", [0.4, 0.9, 1.2], ids=["idle", "busy", "saturated"]
    )
    def test_warmup_state_matches_oracle(self, util):
        grids = [
            make_grid(multi_vo_config(util=util), 17, e)
            for e in ("vector", "event")
        ]
        for g in grids:
            g.warm_up(24 * 3600.0)
        assert site_fingerprint(grids[0]) == site_fingerprint(grids[1])
        for sv, se in zip(grids[0].sites, grids[1].sites):
            assert sv.usage_shares() == se.usage_shares()
            assert sv.vo_queue_lengths() == se.vo_queue_lengths()

    def test_probe_traces_bit_identical(self):
        traces = []
        for e in ("vector", "event"):
            g = make_grid(multi_vo_config(), 23, e)
            g.warm_up(3600.0)
            traces.append(
                ProbeExperiment(g, n_slots=8, timeout=4000.0).run(40_000.0)
            )
        tv, te = traces
        assert len(tv) > 50
        np.testing.assert_array_equal(tv.submit_times, te.submit_times)
        np.testing.assert_array_equal(tv.latencies, te.latencies)
        np.testing.assert_array_equal(tv.status_codes, te.status_codes)


class TestWorkConservation:
    """No idle core may coexist with a waiting (arrived) job."""

    @pytest.mark.parametrize("engine", ["event", "vector"])
    @pytest.mark.parametrize("util", [0.7, 1.2], ids=["busy", "saturated"])
    def test_no_idle_core_with_waiting_work(self, engine, util):
        g = make_grid(multi_vo_config(util=util), 41, engine)
        for _ in range(24):
            g.run_until(g.now + 3600.0)
            for site in g.sites:
                q = site.queue_length
                free = site.n_cores - site.busy_cores
                assert q == 0 or free == 0, (
                    f"{site.name}: {q} waiting with {free} idle cores"
                )

    def test_saturated_throughput_matches_capacity(self):
        """A saturated fair-share site completes work at full capacity."""
        sim = Simulator()
        site = FairShareVectorComputingElement(
            "s", 4, sim, vo_shares=SHARES3
        )
        rng = np.random.default_rng(3)
        n = 4000
        arrivals = np.cumsum(rng.exponential(10.0, size=n))  # demand ~10x cap
        runtimes = rng.exponential(400.0, size=n)
        vos = rng.integers(0, 3, size=n)
        site.feed_background(
            arrivals.tolist(), runtimes.tolist(), vos.tolist()
        )
        horizon = 100_000.0
        sim.run_until(horizon)
        assert site.busy_cores == 4
        # completed work ~ cores * time / mean_runtime (within 15%)
        expected = 4 * horizon / 400.0
        assert site.jobs_completed == pytest.approx(expected, rel=0.15)


class TestShareConvergence:
    """Under saturation, decayed usage fractions converge to the shares."""

    @pytest.mark.parametrize("engine", ["event", "vector"])
    def test_usage_tracks_shares_under_saturation(self, engine):
        """Equal demand, 70/30 entitlement: FIFO would realise 50/50;
        fair-share must realise the allocation."""
        cfg = GridConfig(
            sites=(
                SiteConfig(
                    "s",
                    16,
                    utilization=1.45,  # each VO demands ~0.72 of capacity
                    runtime_median=900.0,
                    vo_shares=(("big", 0.7), ("small", 0.3)),
                    vo_traffic=(("big", 0.5), ("small", 0.5)),
                ),
            ),
            faults=FaultModel(),
        )
        g = make_grid(cfg, 7, engine)
        g.run_until(14 * 86_400.0)
        shares = g.sites[0].usage_shares()
        assert shares["big"] == pytest.approx(0.7, abs=0.05)
        assert shares["small"] == pytest.approx(0.3, abs=0.05)

    @pytest.mark.parametrize("engine", ["event", "vector"])
    def test_demand_limited_vo_gets_its_demand(self, engine):
        """A VO demanding less than its share is served in full; the
        excess entitlement is redistributed (work conservation)."""
        cfg = GridConfig(
            sites=(
                SiteConfig(
                    "s",
                    16,
                    utilization=1.25,
                    runtime_median=900.0,
                    vo_shares=SHARES3,  # biomed entitled to 0.5 ...
                    # ... but all three VOs demand ~0.417 of capacity
                    vo_traffic=(("biomed", 1.0), ("atlas", 1.0), ("cms", 1.0)),
                ),
            ),
            faults=FaultModel(),
        )
        g = make_grid(cfg, 7, engine)
        g.run_until(14 * 86_400.0)
        shares = g.sites[0].usage_shares()
        # biomed saturates at its demand (~0.417), not its 0.5 share
        assert shares["biomed"] == pytest.approx(0.417, abs=0.05)
        # the others split the ceded capacity above their entitlements
        assert shares["atlas"] > 0.3 - 0.05
        assert shares["cms"] > 0.2

    @pytest.mark.parametrize("engine", ["event", "vector"])
    def test_single_entry_traffic_mix_is_honoured(self, engine):
        """All background traffic from one named VO — not silently
        re-attributed to the default VO 0."""
        cfg = GridConfig(
            sites=(
                SiteConfig(
                    "s",
                    8,
                    utilization=0.9,
                    runtime_median=900.0,
                    vo_shares=SHARES3,
                    vo_traffic=(("cms", 1.0),),
                ),
            ),
            faults=FaultModel(),
        )
        g = make_grid(cfg, 11, engine)
        g.warm_up(12 * 3600.0)
        shares = g.sites[0].usage_shares()
        assert shares["cms"] == pytest.approx(1.0)
        assert shares["biomed"] == 0.0

    def test_idle_vo_cedes_capacity(self):
        """A VO with no demand lets others consume its share (work
        conservation beats entitlement)."""
        sim = Simulator()
        site = FairShareVectorComputingElement(
            "s", 4, sim, vo_shares=(("quiet", 0.8), ("busy", 0.2))
        )
        rng = np.random.default_rng(5)
        n = 800
        arrivals = np.cumsum(rng.exponential(20.0, size=n))
        runtimes = rng.exponential(300.0, size=n)
        site.feed_background(
            arrivals.tolist(), runtimes.tolist(), [1] * n  # all 'busy'
        )
        sim.run_until(30_000.0)
        assert site.busy_cores == 4
        assert site.usage_shares()["busy"] == pytest.approx(1.0)


class TestGridConfigValidation:
    def test_duplicate_site_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate site name"):
            GridConfig(sites=(SiteConfig("a", 8), SiteConfig("a", 4)))

    def test_nonpositive_cores_rejected(self):
        with pytest.raises(ValueError, match=">= 1 core"):
            GridConfig(sites=(SiteConfig("a", 0),))
        with pytest.raises(ValueError, match=">= 1 core"):
            GridConfig(sites=(SiteConfig("a", -3),))

    def test_duplicate_vo_rejected(self):
        with pytest.raises(ValueError, match="duplicate VO"):
            GridConfig(
                sites=(SiteConfig("a", 8, vo_shares=(("x", 1.0), ("x", 1.0))),)
            )

    def test_traffic_without_shares_rejected(self):
        with pytest.raises(ValueError, match="vo_traffic without vo_shares"):
            GridConfig(sites=(SiteConfig("a", 8, vo_traffic=(("x", 1.0),)),))

    def test_traffic_naming_unknown_vo_rejected(self):
        with pytest.raises(ValueError, match="absent from vo_shares"):
            GridConfig(
                sites=(
                    SiteConfig(
                        "a",
                        8,
                        vo_shares=(("x", 0.5), ("y", 0.5)),
                        vo_traffic=(("z", 1.0),),
                    ),
                )
            )

    def test_bad_halflife_rejected(self):
        with pytest.raises(ValueError, match="fairshare_halflife"):
            GridConfig(sites=(SiteConfig("a", 8),), fairshare_halflife=0.0)
