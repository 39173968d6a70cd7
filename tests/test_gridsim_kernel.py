"""Tests for the DES kernel, jobs, sites, WMS and fault model."""

import numpy as np
import pytest

from repro.gridsim.events import Simulator
from repro.gridsim.faults import FaultModel
from repro.gridsim.grid import GridConfig, GridSimulator, SiteConfig
from repro.gridsim.jobs import Job, JobState
from repro.gridsim.site import ComputingElement
from repro.gridsim.wms import WorkloadManager


def _plain_grid(**kw) -> GridConfig:
    """One small site behind one broker."""
    return GridConfig(sites=(SiteConfig("s", 4),), **kw)


class TestSimulator:
    def test_time_advances_with_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(sim.now))
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run_until(20.0)
        assert fired == [5.0, 10.0]
        assert sim.now == 20.0

    def test_fifo_among_simultaneous_events(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(1.0, lambda: order.append("b"))
        sim.run_until(2.0)
        assert order == ["a", "b"]

    def test_cancelled_events_skipped(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, lambda: fired.append("x"))
        ev.cancel()
        sim.run_until(2.0)
        assert fired == []
        assert sim.events_processed == 0

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if sim.now < 3.0:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_run_until_respects_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("x"))
        sim.run_until(4.999)
        assert fired == []
        sim.run_until(5.0)
        assert fired == ["x"]

    def test_cannot_schedule_into_past(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(ValueError, match="past"):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(ValueError, match="past"):
            sim.schedule_at(5.0, lambda: None)

    def test_cannot_run_backwards(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(ValueError):
            sim.run_until(5.0)


class TestScheduleMany:
    def test_bulk_schedule_fires_in_order(self):
        sim = Simulator()
        fired = []
        times = [3.0, 1.0, 2.0]
        sim.schedule_many(times, [lambda t=t: fired.append(t) for t in times])
        sim.run_until(5.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_fifo_among_equal_times_follows_iteration_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_many(
            [1.0, 1.0, 1.0],
            [lambda: fired.append("a"), lambda: fired.append("b"),
             lambda: fired.append("c")],
        )
        sim.run_until(2.0)
        assert fired == ["a", "b", "c"]

    def test_interleaves_with_scalar_schedule(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.5, lambda: fired.append("scalar"))
        sim.schedule_many([1.0, 2.0], [lambda: fired.append("x"),
                                       lambda: fired.append("y")])
        sim.run_until(3.0)
        assert fired == ["x", "scalar", "y"]

    def test_returned_events_are_cancellable(self):
        sim = Simulator()
        fired = []
        events = sim.schedule_many(
            [1.0, 2.0], [lambda: fired.append(1), lambda: fired.append(2)]
        )
        events[0].cancel()
        sim.run_until(3.0)
        assert fired == [2]

    def test_rejects_past_times(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(ValueError, match="past"):
            sim.schedule_many([5.0], [lambda: None])


class TestCompaction:
    def test_husks_compacted_past_threshold(self):
        from repro.gridsim import events as events_mod

        sim = Simulator()
        keep = sim.schedule(10_000.0, lambda: None)
        husks = [
            sim.schedule(float(i + 1), lambda: None)
            for i in range(events_mod._COMPACT_MIN + 10)
        ]
        for ev in husks:
            ev.cancel()
        assert sim.compactions >= 1
        # compaction fired mid-loop: husks cancelled before it are gone,
        # only the few cancelled after it remain alongside the live event
        assert len(sim._heap) == 1 + sim._cancelled
        assert len(sim._heap) < len(husks) // 2
        assert not keep.cancelled

    def test_behaviour_preserved_across_compaction(self):
        from repro.gridsim import events as events_mod

        sim = Simulator()
        fired = []
        for i in range(50):
            sim.schedule(1000.0 + i, lambda i=i: fired.append(i))
        husks = [
            sim.schedule(float(i + 1), lambda: None)
            for i in range(events_mod._COMPACT_MIN + 10)
        ]
        for ev in husks:
            ev.cancel()
        sim.run_until(2000.0)
        assert fired == list(range(50))

    def test_small_heaps_not_compacted(self):
        sim = Simulator()
        evs = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
        for ev in evs:
            ev.cancel()
        assert sim.compactions == 0
        assert len(sim._heap) == 100  # husks stay until popped

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert sim._cancelled == 1

    def test_cancel_after_fire_does_not_count_a_husk(self):
        # strategy cleanup cancels every timer it ever armed, including
        # ones that already fired; those must not skew the husk counter
        sim = Simulator()
        evs = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        sim.run_until(20.0)
        for ev in evs:
            ev.cancel()
        assert sim._cancelled == 0
        assert len(sim._heap) == 0


class TestJob:

    def test_ids_unique(self):
        # a job is its own key: equal fields, two distinct jobs
        a, b = Job(), Job()
        assert a != b and len({a: 0, b: 0}) == 2


class TestComputingElement:
    def test_jobs_run_when_cores_free(self):
        sim = Simulator()
        ce = ComputingElement("ce", n_cores=2, sim=sim)
        jobs = [Job(runtime=10.0) for _ in range(3)]
        for j in jobs:
            ce.enqueue(j)
        assert jobs[0].state is JobState.RUNNING
        assert jobs[1].state is JobState.RUNNING
        assert jobs[2].state is JobState.QUEUED
        assert ce.queue_length == 1
        assert ce.busy_cores == 2

    def test_fifo_order(self):
        sim = Simulator()
        ce = ComputingElement("ce", n_cores=1, sim=sim)
        a, b, c = Job(runtime=5.0), Job(runtime=5.0), Job(runtime=5.0)
        for j in (a, b, c):
            ce.enqueue(j)
        sim.run_until(6.0)
        assert a.state is JobState.COMPLETED
        assert b.state is JobState.RUNNING
        assert c.state is JobState.QUEUED

    def test_completion_frees_core(self):
        sim = Simulator()
        ce = ComputingElement("ce", n_cores=1, sim=sim)
        a, b = Job(runtime=10.0), Job(runtime=10.0)
        ce.enqueue(a)
        ce.enqueue(b)
        sim.run_until(25.0)
        assert a.state is JobState.COMPLETED
        assert b.state is JobState.COMPLETED
        assert b.start_time == 10.0
        assert ce.free_cores == 1
        assert ce.jobs_completed == 2

    def test_cancel_queued(self):
        sim = Simulator()
        ce = ComputingElement("ce", n_cores=1, sim=sim)
        a, b = Job(runtime=10.0), Job(runtime=10.0)
        ce.enqueue(a)
        ce.enqueue(b)
        assert ce.cancel(b)
        assert b.state is JobState.CANCELLED
        assert ce.queue_length == 0

    def test_cancel_foreign_queued_job_refused(self):
        sim = Simulator()
        here = ComputingElement("here", n_cores=1, sim=sim)
        there = ComputingElement("there", n_cores=1, sim=sim)
        blocker, queued = Job(runtime=1e6), Job(runtime=10.0)
        there.enqueue(blocker)
        there.enqueue(queued)
        assert not here.cancel(queued)  # queued, but at the other site
        assert queued.state is JobState.QUEUED
        assert here.queue_length == 0
        assert there.queue_length == 1

    def test_cancel_running_releases_core_and_starts_next(self):
        sim = Simulator()
        ce = ComputingElement("ce", n_cores=1, sim=sim)
        a, b = Job(runtime=1000.0), Job(runtime=10.0)
        ce.enqueue(a)
        ce.enqueue(b)
        assert ce.cancel(a)
        assert a.state is JobState.CANCELLED
        assert b.state is JobState.RUNNING
        sim.run_until(2000.0)
        assert b.state is JobState.COMPLETED
        # a's completion event must not fire
        assert a.state is JobState.CANCELLED

    def test_cancel_completed_noop(self):
        sim = Simulator()
        ce = ComputingElement("ce", n_cores=1, sim=sim)
        a = Job(runtime=1.0)
        ce.enqueue(a)
        sim.run_until(2.0)
        assert not ce.cancel(a)
        assert a.state is JobState.COMPLETED

    def test_on_start_callback(self):
        sim = Simulator()
        started = []
        ce = ComputingElement("ce", n_cores=1, sim=sim, on_start=started.append)
        job = Job(runtime=1.0)
        ce.enqueue(job)
        assert started == [job]

    def test_estimated_wait(self):
        sim = Simulator()
        ce = ComputingElement("ce", n_cores=4, sim=sim)
        for _ in range(8):
            ce.enqueue(Job(runtime=100.0))
        # 4 running, 4 queued: wait ≈ 4 * guess / 4
        assert ce.estimated_wait(100.0) == pytest.approx(100.0)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ComputingElement("ce", n_cores=0, sim=sim)
        ce = ComputingElement("ce", n_cores=1, sim=sim)
        job = Job()
        job.state = JobState.RUNNING
        with pytest.raises(ValueError, match="state"):
            ce.enqueue(job)


class TestWorkloadManager:
    def make(self, n_sites=3, **kw):
        sim = Simulator()
        sites = [ComputingElement(f"ce{i}", 4, sim) for i in range(n_sites)]
        wms = WorkloadManager(sim, sites, np.random.default_rng(0), **kw)
        return sim, sites, wms

    def test_submit_dispatches_after_delay(self):
        sim, sites, wms = self.make()
        job = Job(runtime=1.0)
        wms.submit(job)
        assert job.state is JobState.MATCHING
        sim.run_until(10_000.0)
        assert job.state is JobState.COMPLETED
        assert job.site.startswith("ce")
        assert wms.dispatch_count == 1

    def test_matchmaking_delay_positive(self):
        sim, sites, wms = self.make()
        job = Job(runtime=1.0)
        wms.submit(job)
        sim.run_until(1e9)
        assert job.start_time > 0.0

    def test_prefers_empty_site_once_info_refreshes(self):
        sim, sites, wms = self.make(ranking_noise=0.0, info_refresh=300.0)
        # clog site 0 and 1
        for _ in range(50):
            sites[0].enqueue(Job(runtime=1e6))
            sites[1].enqueue(Job(runtime=1e6))
        sim.run_until(301.0)  # let the information system refresh
        assert wms.select_site() is sites[2]

    def test_stale_snapshot(self):
        sim, sites, wms = self.make(ranking_noise=0.0, info_refresh=300.0)
        wms.current_snapshot()
        for _ in range(50):
            sites[2].enqueue(Job(runtime=1e6))
        # snapshot not refreshed yet: site 2 still looks empty
        assert wms.select_site() is sites[0] or np.all(wms.current_snapshot() == 0)
        sim.run_until(301.0)
        snap = wms.current_snapshot()
        assert snap[2] > 0.0

    @pytest.mark.parametrize("engine", ["event", "batched"])
    def test_grid_cancel_in_matching(self, engine):
        grid = GridSimulator(_plain_grid(wms_engine=engine), seed=3)
        job = Job(runtime=1.0)
        grid.submit(job)
        assert job.state is JobState.MATCHING
        grid.cancel(job)
        grid.run_until(3600.0)
        # the dispatch skips the dead copy: it never reaches a queue
        assert job.state is JobState.CANCELLED
        assert job.site == ""
        assert np.isnan(job.queue_time)

    def test_submit_state_validation(self):
        _sim, _sites, wms = self.make()
        job = Job()
        job.state = JobState.QUEUED
        with pytest.raises(ValueError, match="state"):
            wms.submit(job)

    def test_needs_sites(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="at least one"):
            WorkloadManager(sim, [], np.random.default_rng(0))


class TestFaultModel:
    def test_rho_composition(self):
        f = FaultModel(p_lost=0.1, p_stuck=0.2)
        assert f.rho == pytest.approx(0.1 + 0.9 * 0.2)

    @staticmethod
    def _lost_fraction(faults: FaultModel, n: int, seed: int) -> float:
        """Share of ``n`` plain grid submissions the fault gate loses."""
        grid = GridSimulator(_plain_grid(faults=faults), seed=seed)
        for _ in range(n):
            grid.submit(Job(runtime=1.0))
        assert grid.jobs_submitted == n
        return grid.jobs_lost / grid.jobs_submitted

    def test_zero_faults(self):
        f = FaultModel()
        assert f.rho == 0.0
        assert self._lost_fraction(f, 100, seed=0) == 0.0

    def test_draw_rates(self):
        f = FaultModel(p_lost=0.3, p_stuck=0.0)
        assert self._lost_fraction(f, 20_000, seed=1) == pytest.approx(0.3, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultModel(p_lost=1.5)
        with pytest.raises(ValueError, match="< 1"):
            FaultModel(p_lost=0.6, p_stuck=0.5)


class TestPooledTimerWheel:
    def test_fires_at_rounded_up_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule_pooled(95.0, lambda: fired.append(sim.now))
        sim.run_until(200.0)
        g = sim.pooled_granularity
        assert fired == [np.ceil(95.0 / g) * g]

    def test_never_fires_early(self):
        sim = Simulator()
        fired = []
        sim.schedule_pooled(61.0, lambda: fired.append(sim.now))
        sim.run_until(61.0)
        assert fired == []
        sim.run_until(200.0)
        assert len(fired) == 1 and fired[0] >= 61.0

    def test_same_bucket_shares_one_heap_event(self):
        sim = Simulator()
        fired = []
        before = len(sim._heap)
        for k in range(10):
            sim.schedule_pooled(50.0 + 0.1 * k, lambda k=k: fired.append(k))
        assert len(sim._heap) == before + 1  # one shared bucket event
        sim.run_until(200.0)
        assert fired == list(range(10))

    def test_cancel_is_heap_free_flag_flip(self):
        sim = Simulator()
        fired = []
        timers = [sim.schedule_pooled(50.0, lambda: fired.append("x")) for _ in range(5)]
        timers[1].cancel()
        timers[3].cancel()
        sim.run_until(200.0)
        assert fired == ["x", "x", "x"]

    def test_fully_cancelled_bucket_cancels_its_event(self):
        sim = Simulator()
        timers = [sim.schedule_pooled(50.0, lambda: None) for _ in range(3)]
        for t in timers:
            t.cancel()
        assert sim._cancelled >= 1  # the bucket's shared event died
        sim.run_until(200.0)
        assert sim.events_processed == 0

    def test_rearming_after_mass_cancellation(self):
        sim = Simulator()
        fired = []
        dead = sim.schedule_pooled(50.0, lambda: fired.append("dead"))
        dead.cancel()
        sim.schedule_pooled(50.0, lambda: fired.append("live"))
        sim.run_until(200.0)
        assert fired == ["live"]

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule_pooled(10.0, lambda: fired.append("x"))
        sim.run_until(100.0)
        timer.cancel()  # must not raise or corrupt accounting
        assert fired == ["x"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_pooled(-1.0, lambda: None)

    def test_reentrant_arming_from_bucket_callback(self):
        sim = Simulator()
        fired = []

        def rearm():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule_pooled(1.0, rearm)

        sim.schedule_pooled(1.0, rearm)
        sim.run_until(1_000.0)
        assert len(fired) == 3
        assert fired == sorted(fired)


class TestSimulatorStop:
    def test_stop_ends_run_at_current_instant(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: (seen.append(5.0), sim.stop()))
        sim.schedule(10.0, lambda: seen.append(10.0))
        sim.run_until(100.0)
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_run_resumes_after_stop(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: sim.stop())
        sim.schedule(10.0, lambda: seen.append(10.0))
        sim.run_until(100.0)
        sim.run_until(100.0)
        assert seen == [10.0]
        assert sim.now == 100.0

    def test_stop_outside_run_does_not_leak(self):
        sim = Simulator()
        seen = []
        sim.stop()  # no run active: must not cancel the next run
        sim.schedule(5.0, lambda: seen.append(5.0))
        sim.run_until(10.0)
        assert seen == [5.0]
        assert sim.now == 10.0


class TestNanTimes:
    """NaN never enters the clock or the heap: every entry point rejects it."""

    NAN = float("nan")

    def test_run_until_rejects_nan(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        with pytest.raises(ValueError, match="t_end"):
            sim.run_until(self.NAN)
        assert sim.now == 0.0
        sim.run_until(5.0)
        assert fired == [1.0]

    def test_schedule_rejects_nan(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="delay"):
            sim.schedule(self.NAN, lambda: None)
        assert len(sim._heap) == 0

    def test_schedule_at_rejects_nan(self):
        sim = Simulator()
        fired = []
        with pytest.raises(ValueError, match="time"):
            sim.schedule_at(self.NAN, lambda: None)
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run_until(10.0)
        assert fired == [1.0]

    def test_schedule_many_rejects_nan(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="time"):
            sim.schedule_many([1.0, self.NAN], [lambda: None, lambda: None])

    def test_schedule_pooled_rejects_nan(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="delay"):
            sim.schedule_pooled(self.NAN, lambda: None)
        assert len(sim._heap) == 0


class TestClaim:
    """``Simulator.claim``: an inline event runs exactly where a queued one would."""

    @staticmethod
    def walker(sim, times, log, on_launch=None):
        """Log every instant of ``times`` via ``claim``, else re-chain."""
        cursor = [0]

        def fire():
            i = cursor[0]
            while True:
                log.append(("launch", sim.now))
                if on_launch is not None:
                    on_launch(i)
                i += 1
                if i == len(times):
                    return
                if not sim.claim(times[i]):
                    cursor[0] = i
                    sim.schedule_at(times[i], fire)
                    return

        sim.schedule_at(times[0], fire)

    def test_claims_inline_and_counts_one_event_each(self):
        sim = Simulator()
        log = []
        self.walker(sim, [1.0, 2.0, 3.0], log)
        sim.run_until(10.0)
        assert log == [("launch", 1.0), ("launch", 2.0), ("launch", 3.0)]
        assert sim.events_processed == 3
        assert len(sim._heap) == 0
        assert sim.now == 10.0

    def test_refused_outside_a_run(self):
        sim = Simulator()
        assert not sim.claim(0.0)
        sim.run_until(5.0)
        assert not sim.claim(5.0)
        assert sim.events_processed == 0

    def test_existing_event_at_the_instant_runs_first(self):
        sim = Simulator()
        log = []
        self.walker(sim, [1.0, 2.0], log)
        sim.schedule_at(2.0, lambda: log.append(("other", sim.now)))
        sim.run_until(10.0)
        assert log == [("launch", 1.0), ("other", 2.0), ("launch", 2.0)]

    def test_event_a_launch_schedules_at_the_next_instant_runs_first(self):
        sim = Simulator()
        log = []

        def on_launch(i):
            if i == 0:
                sim.schedule_at(2.0, lambda: log.append(("child", sim.now)))

        self.walker(sim, [1.0, 2.0, 3.0], log, on_launch)
        sim.run_until(10.0)
        assert log == [
            ("launch", 1.0),
            ("child", 2.0),
            ("launch", 2.0),
            ("launch", 3.0),
        ]

    def test_run_until_ending_mid_stream_resumes(self):
        sim = Simulator()
        log = []
        times = [1.0, 2.0, 3.0, 4.0, 5.0]
        self.walker(sim, times, log)
        sim.run_until(2.5)
        assert [t for _, t in log] == [1.0, 2.0]
        assert sim.now == 2.5
        sim.run_until(3.0)
        assert [t for _, t in log] == [1.0, 2.0, 3.0]
        sim.run_until(10.0)
        assert [t for _, t in log] == times
        assert sim.events_processed == len(times)

    def test_stop_inside_a_launch_returns_at_that_instant(self):
        sim = Simulator()
        log = []

        def on_launch(i):
            if i == 1:
                sim.stop()

        self.walker(sim, [1.0, 2.0, 3.0], log, on_launch)
        sim.run_until(10.0)
        assert [t for _, t in log] == [1.0, 2.0]
        assert sim.now == 2.0
        sim.run_until(10.0)
        assert [t for _, t in log] == [1.0, 2.0, 3.0]

    def test_compaction_during_a_walk_changes_nothing(self):
        def run(compact):
            sim = Simulator()
            log = []
            husks = [sim.schedule_at(50.0, lambda: None) for _ in range(2000)]
            # one live event between launch instants blocks the claim
            sim.schedule_at(2.5, lambda: log.append(("other", sim.now)))

            def on_launch(i):
                if compact and i == 1:
                    for ev in husks:
                        ev.cancel()

            self.walker(sim, [1.0, 2.0, 3.0, 4.0], log, on_launch)
            sim.run_until(10.0)
            return sim, log

        plain, plain_log = run(False)
        compacted, compacted_log = run(True)
        assert compacted.compactions == 1
        assert compacted_log == plain_log == [
            ("launch", 1.0),
            ("launch", 2.0),
            ("other", 2.5),
            ("launch", 3.0),
            ("launch", 4.0),
        ]
        assert compacted.events_processed == plain.events_processed == 5
