"""Tests for site outages and their interplay with grid latency."""

import numpy as np
import pytest

from repro.gridsim import FaultModel, GridConfig, GridSimulator, SiteConfig
from repro.gridsim.events import Simulator
from repro.gridsim.jobs import Job, JobState
from repro.gridsim.site import ComputingElement

from oracles import OutageProcess


def tiny_config(**kw) -> GridConfig:
    defaults = dict(
        sites=(
            SiteConfig("a", 8, utilization=0.7, runtime_median=600.0),
            SiteConfig("b", 8, utilization=0.7, runtime_median=600.0),
        ),
        matchmaking_median=20.0,
        faults=FaultModel(),
    )
    defaults.update(kw)
    return GridConfig(**defaults)


class TestOutageProcess:
    def make_site(self):
        sim = Simulator()
        site = ComputingElement("ce", n_cores=4, sim=sim)
        return sim, site

    def test_outage_stalls_dispatch(self):
        sim, site = self.make_site()
        rng = np.random.default_rng(0)
        proc = OutageProcess(site, sim, rng, mean_uptime=100.0,
                             mean_downtime=1e9, kill_running=0.0)
        proc.start()
        sim.run_until(2000.0)  # well past the expected first outage
        assert proc.is_down
        job = Job(runtime=10.0)
        site.enqueue(job)
        sim.run_until(3000.0)
        assert job.state is JobState.QUEUED  # gate closed: never started

    def test_recovery_drains_queue(self):
        sim, site = self.make_site()
        rng = np.random.default_rng(1)
        proc = OutageProcess(site, sim, rng, mean_uptime=50.0,
                             mean_downtime=200.0, kill_running=0.0)
        proc.start()
        sim.run_until(5000.0)
        job = Job(runtime=1.0)
        site.enqueue(job)
        sim.run_until(50_000.0)
        assert job.state is JobState.COMPLETED
        assert proc.outages_started >= 1

    def test_kill_running_jobs(self):
        sim, site = self.make_site()
        jobs = [Job(runtime=1e8) for _ in range(4)]
        for j in jobs:
            site.enqueue(j)
        rng = np.random.default_rng(2)
        proc = OutageProcess(site, sim, rng, mean_uptime=10.0,
                             mean_downtime=1e9, kill_running=1.0)
        proc.start()
        sim.run_until(10_000.0)
        assert proc.is_down
        assert all(j.state is JobState.CANCELLED for j in jobs)
        assert site.busy_cores == 0  # cores idle but gated

    def test_kill_none(self):
        sim, site = self.make_site()
        jobs = [Job(runtime=1e8) for _ in range(2)]
        for j in jobs:
            site.enqueue(j)
        rng = np.random.default_rng(3)
        proc = OutageProcess(site, sim, rng, mean_uptime=10.0,
                             mean_downtime=1e9, kill_running=0.0)
        proc.start()
        sim.run_until(10_000.0)
        assert all(j.state is JobState.RUNNING for j in jobs)

    def test_validation(self):
        sim, site = self.make_site()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            OutageProcess(site, sim, rng, mean_uptime=0.0)
        with pytest.raises(ValueError):
            OutageProcess(site, sim, rng, mean_downtime=-1.0)
        with pytest.raises(ValueError):
            OutageProcess(site, sim, rng, kill_running=1.5)

    def sample_is_down(self, seed, *, step, t_end, **kw):
        sim, site = self.make_site()
        proc = OutageProcess(site, sim, np.random.default_rng(seed), **kw)
        proc.start()
        states = []

        def sample():
            states.append(proc.is_down)
            sim.schedule(step, sample)

        sim.schedule(step, sample)
        sim.run_until(t_end)
        return proc, states

    def test_first_outage_waits_one_up_period(self):
        sim, site = self.make_site()
        proc = OutageProcess(site, sim, np.random.default_rng(0),
                             mean_uptime=100.0, mean_downtime=50.0)
        proc.start()
        assert len(sim._heap) == 1  # only the first go-down is armed
        up = np.random.default_rng(0).exponential(100.0)  # the same first draw
        sim.run_until(up * (1 - 1e-9))
        assert not proc.is_down and proc.outages_started == 0
        sim.run_until(up * (1 + 1e-9))
        assert proc.is_down and proc.outages_started == 1

    def test_jobs_killed_counts_its_kills(self):
        sim, site = self.make_site()
        for _ in range(3):
            site.enqueue(Job(runtime=1e8))
        proc = OutageProcess(site, sim, np.random.default_rng(2),
                             mean_uptime=10.0, mean_downtime=1e9,
                             kill_running=1.0)
        proc.start()
        sim.run_until(10_000.0)
        assert proc.outages_started == 1
        assert proc.jobs_killed == 3 == site.jobs_killed

    def test_deterministic_given_seed(self):
        kw = dict(step=5.0, t_end=5000.0, mean_uptime=100.0, mean_downtime=50.0)
        a_proc, a = self.sample_is_down(5, **kw)
        b_proc, b = self.sample_is_down(5, **kw)
        _, c = self.sample_is_down(6, **kw)
        assert a == b and a_proc.outages_started == b_proc.outages_started
        assert a != c

    def test_long_run_down_fraction(self):
        # alternating renewal process: the site is down a share
        # mean_downtime / (mean_uptime + mean_downtime) of the time
        proc, states = self.sample_is_down(
            11, step=1.0, t_end=20_000.0, mean_uptime=10.0, mean_downtime=30.0
        )
        assert np.mean(states) == pytest.approx(0.75, abs=0.05)
        assert proc.outages_started == pytest.approx(20_000.0 / 40.0, rel=0.15)

    def test_outages_create_latency_outliers(self):
        # probes submitted into a grid with outage-prone sites should see
        # extra long waits compared to an outage-free clone
        from repro.gridsim import ProbeExperiment

        def campaign(with_outages: bool) -> float:
            grid = GridSimulator(tiny_config(), seed=9)
            if with_outages:
                rng = np.random.default_rng(7)
                for site in grid.sites:
                    OutageProcess(
                        site, grid.sim, rng,
                        mean_uptime=20_000.0, mean_downtime=15_000.0,
                        kill_running=0.5,
                    ).start()
            grid.warm_up(3600.0)
            trace = ProbeExperiment(grid, n_slots=6, timeout=5000.0).run(
                100_000.0
            )
            return trace.bounded_mean_latency()

        assert campaign(True) > campaign(False)
