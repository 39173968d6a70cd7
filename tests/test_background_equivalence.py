"""Law oracle for the chunked background-load streams.

The seed implementation drew each background arrival with three scalar
RNG calls (exponential gap, thinning uniform, log-normal runtime) and one
heap event per arrival.  The chunked implementation block-draws the same
randomness; fixed-seed draw *sequences* therefore differ, so — exactly as
PR 1 did for the Monte-Carlo fast paths — the original per-arrival loop
is preserved here verbatim as the distributional oracle: same Poisson
arrival law (with and without diurnal thinning), same log-normal
runtimes, same induced utilisation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gridsim.background import BackgroundLoad
from repro.gridsim.events import Simulator
from repro.gridsim.jobs import Job
from repro.gridsim.site import ComputingElement
from repro.traces.generator import DiurnalProfile


class _SeedPerArrivalLoop:
    """The seed repo's BackgroundLoad, kept verbatim as the law oracle."""

    def __init__(
        self,
        site,
        sim,
        rng,
        *,
        utilization=0.9,
        runtime_median=3600.0,
        runtime_sigma=0.8,
        diurnal=None,
    ):
        self.site = site
        self.sim = sim
        self.rng = rng
        self.utilization = utilization
        self.runtime_median = runtime_median
        self.runtime_sigma = runtime_sigma
        self.diurnal = diurnal
        self.jobs_generated = 0
        mean_runtime = runtime_median * float(np.exp(runtime_sigma**2 / 2.0))
        self.rate = utilization * site.n_cores / mean_runtime
        self._peak_rate = self.rate * (
            1.0 + (diurnal.amplitude if diurnal is not None else 0.0)
        )

    def start(self):
        self._schedule_next()

    def _schedule_next(self):
        gap = float(self.rng.exponential(1.0 / self._peak_rate))
        self.sim.schedule(gap, self._arrival)

    def _arrival(self):
        accept = True
        if self.diurnal is not None:
            rate_now = self.rate * float(self.diurnal.factor(self.sim.now))
            accept = self.rng.random() < rate_now / self._peak_rate
        if accept:
            runtime = float(
                self.rng.lognormal(np.log(self.runtime_median), self.runtime_sigma)
            )
            job = Job(runtime=runtime, tag="background")
            job.submit_time = self.sim.now
            self.site.enqueue(job)
            self.jobs_generated += 1
        self._schedule_next()


def _run_stream(impl, seed, *, diurnal=None, duration=150_000.0, n_cores=16):
    """Run one background stream implementation; return summary stats."""
    sim = Simulator()
    site = ComputingElement("s", n_cores, sim)
    rng = np.random.default_rng(seed)
    bg = impl(
        site,
        sim,
        rng,
        utilization=0.85,
        runtime_median=1200.0,
        runtime_sigma=0.8,
        diurnal=diurnal,
    )
    bg.start()
    sim.run_until(duration)
    runtimes = np.array(
        [j.runtime for j in site.running_jobs]
        + [j.runtime for j in site.queue]
    )
    return {
        "generated": bg.jobs_generated,
        "rate": bg.rate,
        "busy": site.busy_cores,
        "completed": site.jobs_completed,
        "in_system_runtimes": runtimes,
    }


SEEDS = range(20)


class TestArrivalLaw:
    @pytest.mark.parametrize("diurnal", [None, DiurnalProfile(amplitude=0.3)],
                             ids=["stationary", "diurnal"])
    def test_mean_arrival_counts_match_oracle(self, diurnal):
        """Mean arrival counts agree with the per-arrival loop within
        their combined standard error."""
        duration = 150_000.0
        old = np.array([
            _run_stream(_SeedPerArrivalLoop, s, diurnal=diurnal)["generated"]
            for s in SEEDS
        ], dtype=float)
        new = np.array([
            _run_stream(BackgroundLoad, 1000 + s, diurnal=diurnal)["generated"]
            for s in SEEDS
        ], dtype=float)
        se = np.sqrt(old.var(ddof=1) / old.size + new.var(ddof=1) / new.size)
        assert abs(old.mean() - new.mean()) < 4.0 * se + 1e-9
        # both also match the theoretical Poisson mean rate*T
        expected = _run_stream(BackgroundLoad, 0, diurnal=diurnal)["rate"] * duration
        assert old.mean() == pytest.approx(expected, rel=0.05)
        assert new.mean() == pytest.approx(expected, rel=0.05)

    def test_count_variance_is_poisson_like(self):
        """Chunked counts keep Poisson dispersion (var ≈ mean)."""
        counts = np.array([
            _run_stream(BackgroundLoad, s)["generated"] for s in range(40)
        ], dtype=float)
        # index of dispersion of a Poisson count is 1; allow generous CI
        dispersion = counts.var(ddof=1) / counts.mean()
        assert 0.5 < dispersion < 2.0

    def test_utilisation_matches_oracle(self):
        """Induced load (busy cores after a long run) agrees."""
        old = np.array([
            _run_stream(_SeedPerArrivalLoop, s)["busy"] for s in SEEDS
        ], dtype=float)
        new = np.array([
            _run_stream(BackgroundLoad, 2000 + s)["busy"] for s in SEEDS
        ], dtype=float)
        se = np.sqrt(old.var(ddof=1) / old.size + new.var(ddof=1) / new.size)
        assert abs(old.mean() - new.mean()) < 4.0 * se + 1e-9

    def test_runtime_law_matches_oracle(self):
        """Runtimes of jobs in the system follow the same log-normal."""
        old = np.concatenate([
            _run_stream(_SeedPerArrivalLoop, s)["in_system_runtimes"]
            for s in SEEDS
        ])
        new = np.concatenate([
            _run_stream(BackgroundLoad, 3000 + s)["in_system_runtimes"]
            for s in SEEDS
        ])
        lo, ln = np.log(old), np.log(new)
        se_m = np.sqrt(lo.var(ddof=1) / lo.size + ln.var(ddof=1) / ln.size)
        assert abs(lo.mean() - ln.mean()) < 4.0 * se_m
        assert ln.std(ddof=1) == pytest.approx(lo.std(ddof=1), rel=0.15)


class TestChunkMechanics:
    def test_deterministic_given_seed(self):
        a = _run_stream(BackgroundLoad, 7)
        b = _run_stream(BackgroundLoad, 7)
        assert a["generated"] == b["generated"]
        assert a["completed"] == b["completed"]

    def test_chunk_size_does_not_change_the_law(self):
        """Different chunk sizes give statistically equal streams."""
        def count(seed, chunk):
            sim = Simulator()
            site = ComputingElement("s", 16, sim)
            bg = BackgroundLoad(
                site, sim, np.random.default_rng(seed),
                utilization=0.85, runtime_median=1200.0, chunk_size=chunk,
            )
            bg.start()
            sim.run_until(150_000.0)
            return bg.jobs_generated

        small = np.array([count(s, 16) for s in SEEDS], dtype=float)
        large = np.array([count(100 + s, 2048) for s in SEEDS], dtype=float)
        se = np.sqrt(small.var(ddof=1) / small.size + large.var(ddof=1) / large.size)
        assert abs(small.mean() - large.mean()) < 4.0 * se + 1e-9

    def test_validation(self):
        sim = Simulator()
        site = ComputingElement("s", 4, sim)
        with pytest.raises(ValueError, match="chunk_size"):
            BackgroundLoad(site, sim, np.random.default_rng(0), chunk_size=0)
