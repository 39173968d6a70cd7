"""Background production workload keeping sites realistically loaded.

Probe latency on EGEE is dominated by queueing behind the production
workload of thousands of users (§3.1).  Each site gets an independent
Poisson job stream with log-normal runtimes, with optional diurnal rate
modulation (by thinning), tuned so that the site hovers near a target
utilisation — the regime where waiting times are heavy-tailed.

The stream is generated in *chunks*: each refill block-draws
``chunk_size`` exponential gaps, the thinning uniforms and the
log-normal runtimes with numpy, hands the accepted arrivals to the site
as arrays (``site.feed_background``, one call per refill), and leaves a
single refill event at the last drawn arrival time.  Every site engine
takes background load that way: the production
:class:`~repro.gridsim.fairshare.FairShareVectorComputingElement`
resolves the chunk lazily with zero events and zero
:class:`~repro.gridsim.jobs.Job` objects per background job, while the
event-driven test oracle schedules one arrival event per job.

Gaps stay i.i.d. exponential at the peak rate, thinning compares a
uniform against ``rate(t)/peak`` at the arrival time, runtimes stay
log-normal, and the RNG consumption order does not depend on the site,
so every engine sees *identical* (arrival, runtime) sequences for a
given seed.  On multi-VO sites a ``vo_mix`` adds one block of label
uniforms per chunk *after* the runtimes (inverse-CDF against the
traffic mix, translated into site VO indices), so single-VO streams
consume the RNG exactly as before and the engines also agree on every
VO label.  ``tests/test_background_equivalence.py`` keeps the
historical per-arrival loop as the law oracle;
``tests/test_site_engine_equivalence.py`` pins the engines against
each other.
"""

from __future__ import annotations

import numpy as np

from repro.gridsim.events import Simulator, restore_state
from repro.traces.generator import DiurnalProfile
from repro.util.validation import check_in_range, check_positive

__all__ = ["BackgroundLoad", "DEFAULT_CHUNK"]

#: arrivals pre-drawn per refill; large enough to amortise the numpy
#: calls, small enough that a warmed grid's pending stream stays cheap
#: to snapshot
DEFAULT_CHUNK = 256


class BackgroundLoad:
    """Poisson production-job stream feeding one computing element."""

    __setstate__ = restore_state

    def __init__(
        self,
        site,
        sim: Simulator,
        rng: np.random.Generator,
        *,
        utilization: float = 0.9,
        runtime_median: float = 3600.0,
        runtime_sigma: float = 0.8,
        diurnal: DiurnalProfile | None = None,
        chunk_size: int = DEFAULT_CHUNK,
        vo_mix: tuple[tuple[str, float], ...] | None = None,
    ) -> None:
        check_in_range("utilization", utilization, 0.0, 1.5, inclusive=(False, True))
        check_positive("runtime_median", runtime_median)
        check_positive("runtime_sigma", runtime_sigma)
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.site = site
        self.sim = sim
        self.rng = rng
        self.utilization = utilization
        self.runtime_median = runtime_median
        self.runtime_sigma = runtime_sigma
        self.diurnal = diurnal
        self.chunk_size = int(chunk_size)
        self._log_median = float(np.log(runtime_median))
        #: multi-VO production mix: labels are block-drawn per chunk
        #: (one uniform per accepted arrival, inverse-CDF against the
        #: cumulative mix) *after* the runtimes, so single-VO streams
        #: consume the RNG byte-for-byte as before
        self._vo_cum = None
        self._vo_site_idx = None
        if vo_mix is not None and len(vo_mix) >= 1:
            weights = np.asarray([w for _, w in vo_mix], dtype=np.float64)
            if (weights <= 0.0).any():
                raise ValueError("vo_mix weights must be > 0")
            # a single-entry mix is a constant label: no uniforms drawn,
            # so such streams consume the RNG exactly like unlabelled ones
            if len(vo_mix) >= 2:
                self._vo_cum = np.cumsum(weights / weights.sum())
            # translate mix order into the site's VO index space;
            # fair-share sites expose the mapping, others take 0
            index_of = getattr(
                getattr(site, "fairshare", None), "index_of", lambda _n: 0
            )
            self._vo_site_idx = np.asarray(
                [index_of(n) for n, _ in vo_mix], dtype=np.intp
            )
        # mean of lognormal = median * exp(sigma^2/2)
        mean_runtime = runtime_median * float(np.exp(runtime_sigma**2 / 2.0))
        #: base arrival rate achieving the target utilisation (jobs/s)
        self.rate = utilization * site.n_cores / mean_runtime
        #: peak rate used for Poisson thinning under diurnal modulation
        self._peak_rate = self.rate * (
            1.0 + (diurnal.amplitude if diurnal is not None else 0.0)
        )

    @property
    def jobs_generated(self) -> int:
        """Arrivals delivered to the site so far (the site counts them)."""
        return self.site.background_delivered()

    def start(self) -> None:
        """Begin generating arrivals (call once)."""
        self._refill()

    def _refill(self) -> None:
        """Draw and schedule the next chunk of arrivals in one block."""
        rng = self.rng
        n = self.chunk_size
        gaps = rng.exponential(1.0 / self._peak_rate, size=n)
        times = self.sim.now + np.cumsum(gaps)
        if self.diurnal is not None:
            # thinning: accept with probability rate(t)/peak_rate
            uniforms = rng.random(n)
            accept = uniforms * self._peak_rate < self.rate * self.diurnal.factor(
                times
            )
            accepted = times[accept]
        else:
            accepted = times
        runtimes = rng.lognormal(
            self._log_median, self.runtime_sigma, size=accepted.size
        )
        vos = None
        if self._vo_site_idx is not None:
            if self._vo_cum is None:
                # single-VO mix: constant label, no draws
                labels = np.zeros(accepted.size, dtype=np.intp)
            else:
                labels = np.searchsorted(
                    self._vo_cum, rng.random(accepted.size), side="right"
                )
                # guard against a uniform landing exactly on the last edge
                np.minimum(labels, len(self._vo_site_idx) - 1, out=labels)
            vos = self._vo_site_idx[labels].tolist()
        self.site.feed_background(accepted.tolist(), runtimes.tolist(), vos)
        # the refill rides at the last *drawn* time so the next chunk
        # continues the gap sequence seamlessly
        self.sim.schedule_at(float(times[-1]), self._refill)
