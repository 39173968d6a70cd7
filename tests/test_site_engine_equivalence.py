"""The vector site engine against the event-driven oracle.

The contract of the one production engine,
:class:`~repro.gridsim.fairshare.FairShareVectorComputingElement`, on
sites that declare no VOs (it runs them with one): the background lane
realises the *same queueing process* as the event kernel
— identical (arrival, runtime) sequences, FIFO service over the same
core pool — and client-visible traces are **bit-identical** wherever no
tie-order or kill-draw-order ambiguity is interposed.  This suite runs a
scenario matrix (idle, busy, saturated, outage-during-queue,
mass-cancellation) through both engines with the same seeds and compares
arrival counts, utilisation, wait-time distributions and post-snapshot
fork behaviour, plus deterministic unit tests of the wake machinery.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.strategies import (
    DelayedResubmission,
    MultipleSubmission,
    SingleResubmission,
)
from repro.gridsim import (
    FairShareVectorComputingElement,
    FaultModel,
    GridConfig,
    GridSimulator,
    Job,
    JobState,
    ProbeExperiment,
    Simulator,
    SiteConfig,
    run_strategy_on_grid,
)
from repro.gridsim.site import ComputingElement
from oracles import OutageProcess, engine_pair


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
        tuple(bg.jobs_generated for bg in grid.background),
    )


class TestBackgroundLaneExactness:
    """Background-only flow: the Lindley lane must mirror the oracle exactly."""

    @pytest.mark.parametrize(
        "util", [0.3, 0.85, 1.15], ids=["idle", "busy", "saturated"]
    )
    def test_warmup_state_matches_oracle(self, util):
        gv, ge = engine_pair(config(util=util), seed=17)
        for g in (gv, ge):
            g.warm_up(24 * 3600.0)
        assert site_fingerprint(gv) == site_fingerprint(ge)

    def test_saturated_queue_grows_identically(self):
        gv, ge = engine_pair(config(util=1.25), seed=5)
        checkpoints = []
        for g in (gv, ge):
            points = []
            for _ in range(6):
                g.run_until(g.now + 6 * 3600.0)
                points.append((g.total_queue_length(), g.total_busy_cores()))
            checkpoints.append(points)
        assert checkpoints[0] == checkpoints[1]
        assert checkpoints[0][-1][0] > checkpoints[0][0][0] > 0

    def test_diurnal_thinning_matches_oracle(self):
        cfg = config(util=0.8, diurnal_amplitude=0.4)
        gv, ge = engine_pair(cfg, seed=29)
        for g in (gv, ge):
            g.warm_up(36 * 3600.0)
        assert site_fingerprint(gv) == site_fingerprint(ge)


class TestClientTraceExactness:
    """Client-visible traces must be bit-identical between engines."""

    def test_probe_traces_bit_identical(self):
        gv, ge = engine_pair(config(), seed=23)
        traces = []
        for g in (gv, ge):
            g.warm_up(3600.0)
            traces.append(ProbeExperiment(g, n_slots=8, timeout=4000.0).run(40_000.0))
        tv, te = traces
        assert len(tv) > 100
        np.testing.assert_array_equal(tv.submit_times, te.submit_times)
        np.testing.assert_array_equal(tv.latencies, te.latencies)
        np.testing.assert_array_equal(tv.status_codes, te.status_codes)

    @pytest.mark.parametrize(
        "strategy",
        [
            SingleResubmission(t_inf=1500.0),
            MultipleSubmission(b=4, t_inf=2000.0),
            DelayedResubmission(t0=1200.0, t_inf=2000.0),
        ],
        ids=["single", "multiple", "delayed"],
    )
    def test_strategy_outcomes_bit_identical(self, strategy):
        """Mass cancellation: every burst round cancels b-1 copies."""
        outs = []
        for g in engine_pair(config(), seed=19):
            g.warm_up(3600.0)
            outs.append(
                run_strategy_on_grid(g, strategy, 40, task_interval=200.0, runtime=60.0)
            )
        a, b = outs
        np.testing.assert_array_equal(a.j, b.j)
        np.testing.assert_array_equal(a.jobs_submitted, b.jobs_submitted)
        assert a.gave_up == b.gave_up

    def test_mass_cancellation_leaves_identical_state(self):
        """Cancel a whole wave of queued/running client jobs mid-flight."""
        grids = engine_pair(config(util=1.1), seed=31)
        states = []
        for g in grids:
            g.warm_up(6 * 3600.0)
            jobs = [Job(runtime=300.0, tag="wave") for _ in range(60)]
            for k, job in enumerate(jobs):
                g.sim.schedule_at(g.now + 20.0 * k, lambda j=job: g.submit(j))
            g.run_until(g.now + 2000.0)
            for job in jobs:
                g.cancel(job)
            g.run_until(g.now + 20_000.0)
            states.append(
                (site_fingerprint(g), tuple(sorted(j.state.value for j in jobs)))
            )
        assert states[0] == states[1]


class TestOutageEquivalence:
    def attach_outages(self, grid: GridSimulator, kill: float) -> list[OutageProcess]:
        procs = []
        for k, site in enumerate(grid.sites):
            proc = OutageProcess(
                site,
                grid.sim,
                np.random.default_rng(400 + k),
                mean_uptime=20_000.0,
                mean_downtime=8_000.0,
                kill_running=kill,
            )
            proc.start()
            procs.append(proc)
        return procs

    def test_outage_during_queue_bit_identical_without_kills(self):
        """kill_running=0 keeps the RNG streams aligned: exact equality."""
        traces, fps = [], []
        for g in engine_pair(config(), seed=37):
            self.attach_outages(g, kill=0.0)
            g.warm_up(3600.0)
            traces.append(ProbeExperiment(g, n_slots=6, timeout=5000.0).run(60_000.0))
            fps.append(site_fingerprint(g))
        tv, te = traces
        np.testing.assert_array_equal(tv.submit_times, te.submit_times)
        np.testing.assert_array_equal(tv.latencies, te.latencies)
        assert fps[0] == fps[1]

    def test_outage_with_kills_is_law_identical(self):
        """Kill draws hit running jobs in a different order (same count,
        i.i.d.), so realisations may diverge — the laws must not."""
        stats = []
        for g in engine_pair(config(), seed=41):
            procs = self.attach_outages(g, kill=0.7)
            g.warm_up(3600.0)
            trace = ProbeExperiment(g, n_slots=6, timeout=5000.0).run(80_000.0)
            assert sum(p.outages_started for p in procs) >= 3
            ok = trace.successful_latencies
            stats.append(
                (
                    len(trace),
                    trace.outlier_ratio,
                    float(np.mean(ok)),
                    tuple(np.quantile(ok, [0.25, 0.5, 0.9])),
                    tuple(bg.jobs_generated for bg in g.background),
                )
            )
        a, b = stats
        assert a[4] == b[4]  # arrival counts are draw-for-draw identical
        assert a[0] == pytest.approx(b[0], rel=0.15)  # probe throughput
        assert a[1] == pytest.approx(b[1], abs=0.05)  # outlier ratio
        assert a[2] == pytest.approx(b[2], rel=0.35)  # mean wait
        for qa, qb in zip(a[3], b[3]):  # wait-time quantiles
            assert qa == pytest.approx(qb, rel=0.5, abs=60.0)

    def test_outage_stalls_and_recovery_drains_vector_site(self):
        """Direct port of the oracle's outage unit tests to the vector lane."""
        sim = Simulator()
        site = FairShareVectorComputingElement("ce", n_cores=4, sim=sim)
        rng = np.random.default_rng(0)
        proc = OutageProcess(
            site, sim, rng, mean_uptime=100.0, mean_downtime=4000.0, kill_running=0.0
        )
        proc.start()
        sim.run_until(2000.0)
        assert proc.is_down
        job = Job(runtime=10.0)
        site.enqueue(job)
        sim.run_until(2500.0)
        assert job.state is JobState.QUEUED  # gate closed: never started
        sim.run_until(50_000.0)
        assert job.state is JobState.COMPLETED
        # jobs queued through an outage start at the recovery instant
        assert job.start_time > job.queue_time

    def test_kill_running_on_vector_site(self):
        sim = Simulator()
        site = FairShareVectorComputingElement("ce", n_cores=4, sim=sim)
        jobs = [Job(runtime=1e8) for _ in range(4)]
        for j in jobs:
            site.enqueue(j)
        proc = OutageProcess(
            site,
            sim,
            np.random.default_rng(2),
            mean_uptime=10.0,
            mean_downtime=1e9,
            kill_running=1.0,
        )
        proc.start()
        sim.run_until(10_000.0)
        assert proc.is_down
        assert all(j.state is JobState.CANCELLED for j in jobs)
        assert site.busy_cores == 0  # cores idle but gated


class TestSnapshotForkEquivalence:
    def test_vector_fork_continues_like_independent_warmup(self):
        cfg = config()
        master = GridSimulator(cfg, seed=43)
        master.warm_up(7200.0)
        fork = master.snapshot().restore()
        independent = GridSimulator(cfg, seed=43)
        independent.warm_up(7200.0)
        for g in (fork, independent):
            g.run_until(g.now + 50_000.0)
        assert site_fingerprint(fork) == site_fingerprint(independent)

    def test_fork_probe_traces_identical_across_engines(self):
        """Fork each engine's warmed grid; the probes must still agree."""
        traces = []
        for g in engine_pair(config(), seed=47):
            g.warm_up(7200.0)
            fork = g.snapshot().restore()
            traces.append(
                ProbeExperiment(fork, n_slots=6, timeout=4000.0).run(30_000.0)
            )
        tv, te = traces
        np.testing.assert_array_equal(tv.latencies, te.latencies)

    def test_forks_are_mutually_independent(self):
        master = GridSimulator(config(), seed=53)
        master.warm_up(3600.0)
        snap = master.snapshot()
        a, b = snap.restore(), snap.restore()
        fp_b = site_fingerprint(b)
        a.run_until(a.now + 20_000.0)
        assert site_fingerprint(b) == fp_b
        b.run_until(b.now + 20_000.0)
        assert site_fingerprint(a) == site_fingerprint(b)


class TestVectorSiteKernel:
    """Deterministic wake/lane mechanics via hand-fed background arrays."""

    def make(self, n_cores=1):
        sim = Simulator()
        started: list[tuple[float, Job]] = []
        site = FairShareVectorComputingElement(
            "v", n_cores, sim, on_start=lambda j: started.append((sim.now, j))
        )
        return sim, site, started

    def test_immediate_start_on_free_core(self):
        sim, site, started = self.make()
        job = Job(runtime=5.0)
        site.enqueue(job)
        assert job.state is JobState.RUNNING
        assert started == [(0.0, job)]
        sim.run_until(10.0)
        assert job.state is JobState.COMPLETED
        assert site.jobs_completed == 1

    def test_client_starts_exactly_when_background_completes(self):
        sim, site, started = self.make()
        site.feed_background([1.0], [10.0])
        sim.run_until(3.0)
        job = Job(runtime=2.0)
        site.enqueue(job)
        assert job.state is JobState.QUEUED
        assert site.queue_length == 1
        sim.run_until(30.0)
        # the background job ran [1, 11); the client starts at exactly 11
        assert started == [(11.0, job)]
        assert job.start_time == 11.0
        assert job.end_time == 13.0

    def test_fifo_order_between_lanes(self):
        sim, site, started = self.make()
        # background arrives at t=1 and t=4, client enqueues at t=2: the
        # t=4 arrival is *behind* the client in the FIFO
        site.feed_background([1.0, 4.0], [10.0, 10.0])
        sim.run_until(2.0)
        job = Job(runtime=1.0)
        site.enqueue(job)
        sim.run_until(40.0)
        assert job.start_time == 11.0  # after bg#1 [1,11), before bg#2 [12,22)
        assert site.jobs_started == 3
        assert site.jobs_completed == 3

    def test_cancel_queued_client_lets_background_keep_schedule(self):
        sim, site, started = self.make()
        site.feed_background([1.0, 2.0], [10.0, 10.0])
        sim.run_until(3.0)
        job = Job(runtime=50.0)
        site.enqueue(job)
        assert site.cancel(job) is True
        assert job.state is JobState.CANCELLED
        assert site.queue_length == 1  # the waiting bg arrival, husk discounted
        sim.run_until(25.0)
        assert site.jobs_started == 2
        assert started == []

    def test_cancel_running_client_frees_core_for_queue(self):
        sim, site, started = self.make()
        hog = Job(runtime=1000.0)
        site.enqueue(hog)
        site.feed_background([5.0], [10.0])
        sim.run_until(20.0)
        assert site.queue_length == 1  # bg waits behind the hog
        site.cancel(hog)
        # the freed core starts the waiting background job this instant
        assert site.busy_cores == 1
        sim.run_until(31.0)
        assert site.jobs_completed == 1
        assert site.busy_cores == 0

    def test_wake_retargets_when_earlier_slot_opens(self):
        sim, site, started = self.make(n_cores=2)
        a, b = Job(runtime=100.0), Job(runtime=200.0)
        site.enqueue(a)
        site.enqueue(b)
        waiting = Job(runtime=1.0)
        sim.run_until(10.0)
        site.enqueue(waiting)  # predicted start: 100.0 (a completes)
        sim.run_until(20.0)
        site.cancel(a)  # frees a core at t=20: waiting starts immediately
        assert waiting.state is JobState.RUNNING
        assert waiting.start_time == 20.0

    def test_telemetry_reconciles_lazily(self):
        sim, site, _ = self.make(n_cores=2)
        site.feed_background([1.0, 2.0, 3.0], [100.0, 100.0, 100.0])
        # no events processed beyond feeding; reading telemetry reconciles
        sim.run_until(50.0)
        assert site.busy_cores == 2
        assert site.queue_length == 1
        assert site.jobs_started == 2
        assert site.estimated_wait(100.0) == pytest.approx(50.0)

    def test_background_delivered_counts_arrivals_only(self):
        sim, site, _ = self.make(n_cores=1)
        site.feed_background([1.0, 2.0, 50.0], [10.0, 10.0, 10.0])
        sim.run_until(5.0)
        assert site.background_delivered() == 2
        sim.run_until(60.0)
        assert site.background_delivered() == 3

    def test_enqueue_rejects_bad_states(self):
        sim, site, _ = self.make()
        job = Job(runtime=1.0)
        job.state = JobState.RUNNING
        with pytest.raises(ValueError, match="cannot enqueue"):
            site.enqueue(job)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FairShareVectorComputingElement("v", n_cores=0, sim=sim)


#: every exit of the one-VO run, one op each: a client arriving inside a
#: fed chunk (the run stops at the client head), a cancel of a running
#: client (its core frees mid-run), an outage (the run restarts at the
#: dispatch floor), a black hole, and a refill fed once the lane has run
#: dry (the run stops at the lane's end)
ONE_VO_EXITS = ("client", "cancel", "outage", "hole", "feed")


@st.composite
def one_vo_scripts(draw):
    """Op kinds covering every exit of the one-VO run, plus extras, in a
    drawn order; the instants and runtimes come from a drawn seed, so
    they are continuous and no two of them tie."""
    extra = draw(st.lists(st.sampled_from(ONE_VO_EXITS + ("read",)), max_size=10))
    kinds = draw(st.permutations([*ONE_VO_EXITS, "client", *extra]))
    return kinds, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 3))


def replay_one_vo(site, sim: Simulator, kinds, seed: int) -> list:
    """Replay a drawn script on ``site``; the observations, op by op.

    Each observation is the site telemetry after the op, and the run
    ends with every client's state and start/end instants.  A cancel
    hits the first running client (else the newest queued one), a
    choice both engines make alike while their states agree.
    """
    rng = np.random.default_rng(seed)
    starts: list[tuple[float, int]] = []
    clients: list[Job] = []
    site.on_start = lambda job: starts.append((sim.now, clients.index(job)))
    t = 0.0
    chunk: list[float] = []

    def feed(at: float) -> None:
        nonlocal chunk
        sim.run_until(at)
        k = int(rng.integers(3, 9))
        chunk = np.sort(at + rng.uniform(0.5, 80.0, k)).tolist()
        site.feed_background(chunk, rng.uniform(5.0, 60.0, k).tolist())

    def observe() -> tuple:
        return (
            sim.now,
            site.queue_length,
            site.busy_cores,
            site.jobs_started,
            site.jobs_completed,
            site.jobs_killed,
            site.jobs_failed_bh,
            tuple(starts),
        )

    feed(0.0)
    out = [observe()]
    for kind in kinds:
        if kind == "feed":
            # a refill lands once the previous chunk has all arrived
            t = max(t, chunk[-1])
            feed(t)
        elif kind == "client":
            # inside the pending chunk when one remains, so the client
            # arrives between background arrivals of one run
            t = float(rng.uniform(t, max(t, chunk[-1]))) if chunk else t
            job = Job(runtime=float(rng.uniform(5.0, 60.0)))
            clients.append(job)
            sim.schedule_at(t, partial(site.enqueue, job))
            sim.run_until(t)
        elif kind == "cancel":
            t += float(rng.uniform(0.0, 30.0))
            sim.run_until(t)
            running = [j for j in clients if j.state is JobState.RUNNING]
            queued = [j for j in clients if j.state is JobState.QUEUED]
            if running or queued:
                site.cancel(running[0] if running else queued[-1])
        elif kind in ("outage", "hole"):
            t += float(rng.uniform(0.0, 30.0))
            sim.run_until(t)
            if kind == "outage":
                site.begin_outage(np.random.default_rng(0), 0.0)
            else:
                site.begin_black_hole()
            t += float(rng.uniform(1.0, 90.0))
            sim.run_until(t)
            if kind == "outage":
                site.end_outage()
            else:
                site.end_black_hole()
        else:  # a telemetry read
            t += float(rng.uniform(0.0, 30.0))
            sim.run_until(t)
        out.append(observe())
    sim.run_until(t + 5000.0)
    out.append(observe())
    out.append([(j.state, j.start_time, j.end_time) for j in clients])
    return out


class TestOneVoRunFuzz:
    """The vector engine's one-VO lane against the plain event FIFO."""

    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=one_vo_scripts())
    def test_one_vo_site_equals_event_fifo(self, script):
        kinds, seed, n_cores = script
        outs = []
        for cls in (FairShareVectorComputingElement, ComputingElement):
            sim = Simulator()
            outs.append(replay_one_vo(cls("s", n_cores, sim), sim, kinds, seed))
        assert outs[0] == outs[1]
