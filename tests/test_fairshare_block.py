"""Block-resolved fair-share commits against the per-start oracles.

:class:`~repro.gridsim.fairshare.FairShareVectorComputingElement`
resolves background-only runs as fused blocks.  The contract: every
float it commits — decayed usage, charge, decision instant, winner — is
**bit-identical** to the per-start
:class:`~repro.gridsim.fairshare.FairShareState`-method loop
(:class:`oracles.ScalarFairShareCE`), which in turn matches the event-driven
:class:`~repro.gridsim.fairshare.FairShareComputingElement` wherever the
RNG streams align.  This suite drives identical operation scripts
through both commit paths (hand-built boundary scenarios plus seeded
random interleavings), runs grid-level probe traces over the full
engine × WMS matrix, and pins the wake predictor's purity and its
scratch-fork reuse.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.core.strategies import MultipleSubmission, SingleResubmission
from repro.gridsim import (
    FairShareVectorComputingElement,
    FaultModel,
    GridConfig,
    GridSimulator,
    Job,
    JobState,
    ProbeExperiment,
    SiteConfig,
    Simulator,
)
from oracles import ScalarFairShareCE, make_grid, use_scalar_commits

SHARES3 = (("biomed", 0.5), ("atlas", 0.3), ("cms", 0.2))
HALFLIVES = [86_400.0, 3600.0, math.inf]
HL_IDS = ["day", "hour", "inf"]


def make_site(halflife: float, n_cores: int = 2, block: bool = True):
    sim = Simulator()
    cls = FairShareVectorComputingElement if block else ScalarFairShareCE
    site = cls(
        "fs", n_cores, sim, vo_shares=SHARES3, fairshare_halflife=halflife
    )
    return sim, site


def site_state(sim: Simulator, site: FairShareVectorComputingElement) -> tuple:
    """Exact observable + fair-share state (floats compared bitwise)."""
    site._advance()
    fs = site.fairshare
    return (
        sim.now,
        site.jobs_started,
        site.jobs_completed,
        site.jobs_failed_bh,
        site.busy_cores,
        site.queue_length,
        tuple(site._bgc),
        tuple(fs._usage),
        fs._last,
        tuple(sorted(site._core_free)),
    )


def job_trace(jobs: list[Job]) -> list[tuple]:
    return [(j.state.value, j.start_time, j.end_time) for j in jobs]


def apply_script(sim: Simulator, site, script) -> list[Job]:
    """Replay one operation script; returns the client jobs it created."""
    jobs: list[Job] = []
    for op in script:
        kind = op[0]
        if kind == "run":
            sim.run_until(op[1])
        elif kind == "feed":
            _, times, runtimes, vos = op
            site.feed_background(list(times), list(runtimes), list(vos))
        elif kind == "client":
            _, t, vo, runtime = op
            sim.run_until(t)
            job = Job(runtime=runtime, vo=vo)
            site.enqueue(job)
            jobs.append(job)
        elif kind == "cancel":
            _, t, idx = op
            sim.run_until(t)
            site.cancel(jobs[idx])
        elif kind == "hole":
            _, t, flag = op
            sim.run_until(t)
            if flag:
                site.begin_black_hole()
            else:
                site.end_black_hole()
        else:  # pragma: no cover - script typo guard
            raise AssertionError(kind)
    return jobs


def assert_paths_agree(script, halflife: float, n_cores: int = 2) -> None:
    states, traces = [], []
    for block in (True, False):
        sim, site = make_site(halflife, n_cores=n_cores, block=block)
        jobs = apply_script(sim, site, script)
        states.append(site_state(sim, site))
        traces.append(job_trace(jobs))
    assert states[0] == states[1]
    assert traces[0] == traces[1]


class TestBlockVsScalarScripts:
    """Hand-built boundary scenarios, identical on both commit paths."""

    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_mixed_interleaving(self, halflife):
        script = [
            ("feed", [1.0, 2.0, 4.0, 6.0], [30.0, 25.0, 40.0, 10.0], [0, 1, 2, 0]),
            ("client", 3.0, "atlas", 15.0),
            ("run", 10.0),
            ("feed", [12.0, 13.0], [20.0, 20.0], [1, 0]),
            ("client", 14.0, "cms", 5.0),
            ("client", 14.0, "biomed", 7.0),
            ("run", 200.0),
        ]
        assert_paths_agree(script, halflife)

    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_exact_tie_background_beats_client(self, halflife):
        """A background head and a client share the exact arrival float."""
        script = [
            ("feed", [5.0, 5.0], [50.0, 50.0], [0, 1]),
            ("client", 5.0, "biomed", 10.0),
            ("run", 300.0),
        ]
        assert_paths_agree(script, halflife, n_cores=1)

    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_cancel_mid_block(self, halflife):
        """A queued client cancelled between commits leaves a husk the
        block resolver must skip without perturbing the float ladder."""
        script = [
            ("feed", [1.0, 2.0, 3.0, 8.0, 9.0], [40.0] * 5, [0, 1, 2, 0, 1]),
            ("client", 4.0, "cms", 20.0),
            ("client", 4.5, "biomed", 20.0),
            ("cancel", 5.0, 0),
            ("run", 6.0),
            ("cancel", 6.5, 1),
            ("run", 400.0),
        ]
        assert_paths_agree(script, halflife, n_cores=1)

    @pytest.mark.parametrize("block", [True, False], ids=["block", "scalar"])
    def test_cancel_lands_inside_own_enqueue_prewalk(self, block):
        """A sibling settle cancels the very job being enqueued.

        ``enqueue`` stamps state/site/queue_time *before* its pre-walk,
        so a start committed by that walk can settle a sibling copy and
        cancel the mid-enqueue job — which is then appended to its VO
        FIFO already CANCELLED, right after the walk re-synced the head
        cache.  The husk must never be installed as the cached client
        head (it would misprice the next decision instant) and must be
        skipped at pop time (it must never *start*).
        """
        sim, site = make_site(86_400.0, n_cores=1, block=block)
        site._defer_wake = lambda: None  # force fully lazy commits
        j0 = Job(runtime=50.0, vo="biomed")
        site.enqueue(j0)  # takes the only core, 0 -> 50
        j1 = Job(runtime=30.0, vo="biomed")
        site.enqueue(j1)  # queued behind j0, starts at 50
        j2 = Job(runtime=20.0, vo="biomed")
        cancelled: list[bool] = []

        def settle(job: Job) -> None:
            if job is j1 and not cancelled:
                cancelled.append(site.cancel(j2))

        site.on_start = settle
        sim.run_until(60.0)
        site.enqueue(j2)  # pre-walk commits j1 -> settle cancels j2
        assert cancelled == [True]
        assert j2.state is JobState.CANCELLED
        sim.run_until(85.0)
        j3 = Job(runtime=5.0, vo="biomed")
        site.enqueue(j3)  # must start past the leading husk
        assert j1.start_time == 50.0
        assert math.isnan(j2.start_time)  # the husk never started
        assert j3.start_time == 85.0
        assert site._vo_husks == [0, 0, 0]
        assert site._live_clients == 0
        assert site.queue_length == 0

    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_black_hole_racing_block_boundary(self, halflife):
        """The hole flips exactly at a pending head's arrival instant."""
        script = [
            ("feed", [1.0, 5.0, 10.0, 30.0, 35.0], [60.0] * 5, [0, 1, 0, 2, 1]),
            ("client", 2.0, "atlas", 25.0),
            ("hole", 10.0, True),
            ("client", 15.0, "biomed", 10.0),
            ("hole", 30.0, False),
            ("feed", [40.0, 41.0], [15.0, 15.0], [2, 0]),
            ("client", 42.0, "cms", 5.0),
            ("run", 500.0),
        ]
        assert_paths_agree(script, halflife)

    @pytest.mark.parametrize("seed", [3, 11, 29, 47])
    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_random_interleavings(self, seed, halflife):
        """Seeded random scripts: feeds, clients, cancels, mixed order."""
        rng = np.random.default_rng(seed)
        script, t = [], 0.0
        n_clients = 0
        for _ in range(12):
            t += float(rng.uniform(1.0, 40.0))
            kind = rng.integers(0, 3)
            if kind == 0:
                k = int(rng.integers(1, 6))
                times = np.sort(t + rng.uniform(0.0, 60.0, k)).tolist()
                runtimes = rng.uniform(5.0, 80.0, k).tolist()
                vos = rng.integers(0, 3, k).tolist()
                script.append(("feed", times, runtimes, vos))
            elif kind == 1:
                vo = ("biomed", "atlas", "cms")[int(rng.integers(0, 3))]
                script.append(("client", t, vo, float(rng.uniform(5.0, 50.0))))
                n_clients += 1
            elif n_clients:
                script.append(("cancel", t, int(rng.integers(0, n_clients))))
        script.append(("run", t + 600.0))
        assert_paths_agree(script, halflife)


def multi_vo_config(**kw) -> GridConfig:
    defaults = dict(
        sites=(
            SiteConfig(
                "a", 8, utilization=0.9, runtime_median=600.0, vo_shares=SHARES3
            ),
            SiteConfig(
                "b",
                16,
                utilization=0.95,
                runtime_median=900.0,
                vo_shares=SHARES3[:2],
            ),
        ),
        matchmaking_median=30.0,
        faults=FaultModel(p_lost=0.02, p_stuck=0.02),
    )
    defaults.update(kw)
    return GridConfig(**defaults)


def grid_fingerprint(grid: GridSimulator) -> tuple:
    return (
        grid.now,
        tuple(s.queue_length for s in grid.sites),
        tuple(s.busy_cores for s in grid.sites),
        tuple(s.jobs_started for s in grid.sites),
        tuple(s.jobs_completed for s in grid.sites),
        tuple(
            tuple(s.fairshare._usage)
            for s in grid.sites
            if hasattr(s, "fairshare")
        ),
    )


class TestGridLevelEquivalence:
    """Full-grid probe traces across the engine × WMS matrix."""

    @pytest.mark.parametrize("wms_engine", ["batched", "event"])
    @pytest.mark.parametrize("seed", [17, 59])
    def test_three_way_probe_traces(self, wms_engine, seed):
        """block == scalar == event oracle, bit for bit."""
        traces, fps = [], []
        for flavour in ("block", "scalar", "event"):
            engine = "event" if flavour == "event" else "vector"
            cfg = multi_vo_config(wms_engine=wms_engine)
            grid = make_grid(cfg, seed, engine)
            if flavour == "scalar":
                use_scalar_commits(grid)
            grid.warm_up(3600.0)
            traces.append(
                ProbeExperiment(grid, n_slots=6, timeout=4000.0).run(40_000.0)
            )
            fps.append(grid_fingerprint(grid))
        for other in (1, 2):
            np.testing.assert_array_equal(
                traces[0].submit_times, traces[other].submit_times
            )
            np.testing.assert_array_equal(
                traces[0].latencies, traces[other].latencies
            )
        # usage vectors only exist on the vector flavours
        assert fps[0] == fps[1]

    @pytest.mark.parametrize("halflife", [3600.0, math.inf], ids=["hour", "inf"])
    def test_halflife_extremes_block_vs_scalar(self, halflife):
        outs = []
        for flag in (True, False):
            cfg = multi_vo_config(fairshare_halflife=halflife)
            grid = GridSimulator(cfg, seed=31)
            if not flag:
                use_scalar_commits(grid)
            grid.warm_up(6 * 3600.0)
            out = ProbeExperiment(grid, n_slots=4, timeout=3000.0).run(30_000.0)
            outs.append((grid_fingerprint(grid), out.latencies.tolist()))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("wms_engine", ["batched", "event"])
    def test_burst_strategies_block_vs_scalar(self, wms_engine):
        """Sibling bursts cancel mid-block on every start; traces must
        stay bit-identical with block commits on and off."""
        from repro.gridsim import run_strategy_on_grid

        outs = []
        for flag in (True, False):
            cfg = multi_vo_config(wms_engine=wms_engine)
            grid = GridSimulator(cfg, seed=43)
            if not flag:
                use_scalar_commits(grid)
            grid.warm_up(3600.0)
            outs.append(
                run_strategy_on_grid(
                    grid,
                    MultipleSubmission(b=3, t_inf=2500.0),
                    30,
                    task_interval=250.0,
                    runtime=90.0,
                )
            )
        a, b = outs
        np.testing.assert_array_equal(a.j, b.j)
        np.testing.assert_array_equal(a.jobs_submitted, b.jobs_submitted)
        assert a.gave_up == b.gave_up

    def test_snapshot_restore_preserves_equivalence(self):
        """Fork a warmed block-commit grid; the fork must keep matching
        a scalar twin forked from the same pickled state."""
        cfg = multi_vo_config()
        grid = GridSimulator(cfg, seed=61)
        grid.warm_up(7200.0)
        snap = grid.snapshot()
        a, b = snap.restore(), snap.restore()
        use_scalar_commits(b)
        ta = ProbeExperiment(a, n_slots=4, timeout=3000.0).run(20_000.0)
        tb = ProbeExperiment(b, n_slots=4, timeout=3000.0).run(20_000.0)
        np.testing.assert_array_equal(ta.latencies, tb.latencies)
        assert grid_fingerprint(a) == grid_fingerprint(b)


class TestWakePredictor:
    """Purity and scratch reuse of `_predict_next_client_start`."""

    def scenario(self):
        sim, site = make_site(86_400.0, n_cores=1)
        site.feed_background([0.5, 1.0, 2.0], [30.0, 25.0, 40.0], [0, 1, 2])
        sim.run_until(3.0)
        job = Job(runtime=10.0, vo="atlas")
        site.enqueue(job)
        return sim, site, job

    def test_prediction_is_pure(self):
        sim, site, job = self.scenario()
        fs = site.fairshare
        usage_before = list(fs._usage)
        last_before = fs._last
        bgc_before = list(site._bgc)
        predicted = site._predict_next_client_start()
        assert list(fs._usage) == usage_before
        assert fs._last == last_before
        assert list(site._bgc) == bgc_before
        # and the prediction is exact: the client starts at that instant
        sim.run_until(500.0)
        assert job.start_time == predicted

    def test_prediction_matches_across_commit_paths(self):
        preds = []
        for block in (True, False):
            sim, site = make_site(3600.0, n_cores=1, block=block)
            site.feed_background([0.5, 1.0], [30.0, 25.0], [0, 1])
            sim.run_until(2.0)
            site.enqueue(Job(runtime=5.0, vo="cms"))
            preds.append(site._predict_next_client_start())
        assert preds[0] == preds[1]

    def test_scratch_fork_is_reused(self):
        sim, site, job = self.scenario()
        assert site._pred_scratch is None or isinstance(
            site._pred_scratch, type(site.fairshare)
        )
        p1 = site._predict_next_client_start()
        scratch = site._pred_scratch
        assert scratch is not None
        p2 = site._predict_next_client_start()
        assert site._pred_scratch is scratch  # reset in place, not reallocated
        assert p1 == p2

    def test_scratch_survives_population_of_predictions(self):
        sim, site = make_site(86_400.0, n_cores=2)
        site.feed_background(
            list(np.sort(np.random.default_rng(7).uniform(0, 50, 20))),
            [20.0] * 20,
            list(np.random.default_rng(8).integers(0, 3, 20)),
        )
        scratch = None
        for k in range(5):
            sim.run_until(10.0 * k + 5.0)
            site.enqueue(Job(runtime=5.0, vo="biomed"))
            site._predict_next_client_start()
            if scratch is None:
                scratch = site._pred_scratch
            else:
                assert site._pred_scratch is scratch


class TestPopulationParity:
    """The population driver sees identical results on both paths."""

    def test_small_population_block_vs_scalar(self):
        from repro.gridsim import warmed_snapshot
        from repro.population import FleetSpec, PopulationSpec, run_population

        sites = tuple(
            SiteConfig(
                f"p{i}",
                16,
                utilization=0.85,
                runtime_median=900.0,
                vo_shares=SHARES3,
            )
            for i in range(2)
        )
        cfg = GridConfig(sites=sites)
        snap = warmed_snapshot(cfg, seed=23, duration=3600.0)
        spec = PopulationSpec(
            fleets=(
                FleetSpec("biomed", SingleResubmission(t_inf=4000.0), 60),
                FleetSpec(
                    "atlas",
                    MultipleSubmission(b=3, t_inf=4000.0),
                    40,
                    runtime=120.0,
                ),
            ),
            window=20_000.0,
        )
        outs = []
        for flag in (True, False):
            grid = snap.restore()
            if not flag:
                use_scalar_commits(grid)
            outs.append(run_population(grid, spec, seed=23))
        a, b = outs
        for fa, fb in zip(a.fleets, b.fleets):
            np.testing.assert_array_equal(fa.j, fb.j)
            np.testing.assert_array_equal(fa.jobs_submitted, fb.jobs_submitted)
        assert a.site_usage_shares == b.site_usage_shares
        assert a.duration == b.duration
