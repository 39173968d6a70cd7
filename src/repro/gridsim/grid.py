"""The grid facade: configuration, wiring and the client-visible API.

``GridSimulator`` assembles the EGEE-like stack (sites + WMS + background
load + fault injection) from a declarative :class:`GridConfig` and exposes
the operations a client-side strategy needs: submit, cancel, observe
start events, advance time.
"""

from __future__ import annotations

import math
import numbers
import pickle
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.gridsim.background import BackgroundLoad
from repro.gridsim.events import Simulator, restore_state
from repro.gridsim.fairshare import (
    SINGLE_VO,
    FairShareVectorComputingElement,
    multi_vo,
    normalize_vo_shares,
)
from repro.gridsim.faults import FaultModel, SubmitFaultConfig
from repro.gridsim.federation import BrokerConfig
from repro.gridsim.health import HealthConfig, HealthService
from repro.gridsim.jobs import Job, JobState
from repro.gridsim.middleware import MiddlewareDomain, RetryPolicy
from repro.gridsim.registry import MetricsRegistry
from repro.gridsim.tracing import TraceRecorder
from repro.gridsim.weather import (
    ResubmissionAgent,
    ResubmitConfig,
    StormProcess,
    WeatherConfig,
)
from repro.gridsim.wms import BatchedWorkloadManager, WorkloadManager
from repro.traces.generator import DiurnalProfile
from repro.util.rng import RngLike, as_rng, spawn_rngs
from repro.util.validation import check_positive

__all__ = [
    "SiteConfig",
    "GridConfig",
    "GridSimulator",
    "GridSnapshot",
    "configure_warm_cache",
    "default_grid_config",
    "federated_grid_config",
    "warmed_grid",
    "warmed_snapshot",
]

#: job states as module constants (``JobState.X`` reads take the enum's
#: slow attribute path): those :meth:`GridSimulator.cancel_many` hands to
#: the job's site, those it cancels by a state flip, and the single
#: states the per-job paths read or write
_AT_SITE = (JobState.QUEUED, JobState.RUNNING)
_OFF_SITE = (JobState.MATCHING, JobState.STUCK, JobState.LOST, JobState.CREATED)
_CANCELLED = JobState.CANCELLED
_QUEUED = JobState.QUEUED
_LOST = JobState.LOST
_STUCK = JobState.STUCK

#: broker class per :attr:`GridConfig.wms_engine`
_WMS_ENGINES = {
    "batched": BatchedWorkloadManager,
    "event": WorkloadManager,
}


@dataclass(frozen=True)
class SiteConfig:
    """Static description of one computing centre.

    Attributes
    ----------
    name:
        Site label (e.g. ``"ce03.biomed.example"``).
    n_cores:
        Worker cores behind the CE.
    utilization:
        Target background utilisation (≈0.9–0.97 reproduces EGEE's
        saturated production regime).
    runtime_median, runtime_sigma:
        Log-normal parameters of background job runtimes.
    vo_shares:
        ``(vo_name, share)`` pairs declaring the site's fair-share
        allocation.  Every site runs the fair-share engine: empty or a
        single entry gives it one VO, a plain FIFO with no VO label
        drawn for its background; two or more give it per-VO queues
        with usage-ordered dispatch, and a published usage split.
    vo_traffic:
        Optional ``(vo_name, weight)`` pairs for the *background traffic*
        mix (defaults to ``vo_shares`` — production demand proportional
        to allocation).  Skewing it away from the shares models a VO
        overdriving its allocation.
    """

    __setstate__ = restore_state

    name: str
    n_cores: int
    utilization: float = 0.9
    runtime_median: float = 3600.0
    runtime_sigma: float = 0.8
    vo_shares: tuple[tuple[str, float], ...] = ()
    vo_traffic: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        # bool is an Integral too, but never a core count
        if isinstance(self.n_cores, bool) or not isinstance(
            self.n_cores, numbers.Integral
        ):
            raise TypeError(
                f"site {self.name!r}: n_cores must be an integer, "
                f"got {self.n_cores!r}"
            )
        if self.n_cores < 1:
            raise ValueError(
                f"site {self.name!r} must have >= 1 core, got {self.n_cores}"
            )


@dataclass(frozen=True)
class GridConfig:
    """Full grid description (sites + middleware behaviour).

    Attributes
    ----------
    sites:
        Computing centres.
    matchmaking_median, matchmaking_sigma:
        Log-normal match-making delay at the WMS — the latency floor.
    info_refresh:
        Staleness period of the information system (s).
    ranking_noise:
        Multiplicative log-normal noise applied when ranking sites.
    faults:
        Outlier-producing fault channels.
    diurnal_amplitude:
        Amplitude of the shared daily load modulation (0 disables).
    wms_engine:
        ``"batched"`` (default) resolves match-making in windowed
        dispatch buckets — one event per information-refresh window,
        site selection vectorised over the bucket — and pools client
        timeout timers on the kernel's coarse timer wheel; ``"event"``
        keeps per-job dispatch with exact heap timers.  The two are
        different laws, not an implementation swap: dispatches land on
        window boundaries on the batched lane, and
        ``tests/test_wms_engine_equivalence.py`` bounds how far its
        laws sit from per-job dispatch.
    fairshare_halflife:
        Decay half-life (s) of the per-VO usage window on fair-share
        sites (``math.inf`` disables decay).
    brokers:
        Federated WMS brokers (:class:`~repro.gridsim.federation.BrokerConfig`).
        Empty builds one broker named ``"0"`` that owns every site — the
        single all-seeing WMS.  With brokers, submissions route round-robin (or
        explicitly via :meth:`GridSimulator.submit`'s ``via``) and each
        broker ranks owned sites on fresh estimates, the rest through
        the lagged federated view.
    weather:
        Grid weather regime (:class:`~repro.gridsim.weather.WeatherConfig`):
        per-site renewal outages, correlated storms and scheduled
        black-hole windows.  ``None`` (the default) keeps today's calm
        grid byte-for-byte.
    health:
        Site health state machine
        (:class:`~repro.gridsim.health.HealthConfig`): observed-outcome
        EWMAs, bans, probe re-admission, and health-aware ranking on
        every broker.  ``None`` disables the operator loop entirely.
    resubmit:
        Service-side self-healing agent
        (:class:`~repro.gridsim.weather.ResubmitConfig`) that resubmits
        failed-and-missing tasks under a retry budget.  ``None`` leaves
        recovery entirely to user-side strategies.
    submit_faults:
        At-least-once submission-path fault channel
        (:class:`~repro.gridsim.faults.SubmitFaultConfig`): submit
        attempts error with ``p_fail``, and a failed attempt may still
        have *landed* (``p_landed``), minting a duplicate the instant
        the client retries.  ``None`` keeps the path reliable.
    retry:
        Client-side resilience
        (:class:`~repro.gridsim.middleware.RetryPolicy`): capped
        exponential backoff with seeded jitter, per-attempt submit
        timeouts and per-broker circuit breakers driving failover
        across :attr:`GridSimulator.brokers`.  ``None`` means one
        attempt per copy, exactly today's clients.
    tracing:
        Opt-in end-to-end task tracing
        (:class:`~repro.gridsim.tracing.TraceRecorder`): records typed
        lifecycle events (submit, broker hop, enqueue, start,
        complete/cancel/fail, retry, rescue, duplicate mint/reconcile)
        for every client task.  ``False`` (default) keeps every hook on
        its ``_tr is None`` fast path — a traced run replays the
        untraced one byte-for-byte, tracing just writes it down.

    Configuring any of ``retry``, ``submit_faults``, scheduled
    ``weather.broker_outages`` or a storm ``broker_prob`` activates the
    grid's :class:`~repro.gridsim.middleware.MiddlewareDomain`;
    otherwise submissions take the historical path byte-for-byte.
    """

    __setstate__ = restore_state

    sites: tuple[SiteConfig, ...]
    matchmaking_median: float = 60.0
    matchmaking_sigma: float = 0.6
    info_refresh: float = 300.0
    ranking_noise: float = 0.3
    faults: FaultModel = field(default_factory=FaultModel)
    diurnal_amplitude: float = 0.0
    wms_engine: str = "batched"
    fairshare_halflife: float = 86_400.0
    brokers: tuple[BrokerConfig, ...] = ()
    weather: WeatherConfig | None = None
    health: HealthConfig | None = None
    resubmit: ResubmitConfig | None = None
    submit_faults: SubmitFaultConfig | None = None
    retry: RetryPolicy | None = None
    tracing: bool = False

    def __post_init__(self) -> None:
        if not self.sites:
            raise ValueError("grid needs at least one site")
        if self.wms_engine not in _WMS_ENGINES:
            raise ValueError(
                f"unknown wms_engine {self.wms_engine!r}; "
                f"available: {', '.join(_WMS_ENGINES)}"
            )
        names = [sc.name for sc in self.sites]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ValueError(
                f"duplicate site name(s): {', '.join(dupes)} — site names "
                "key cancellation and broker ownership, so they must be "
                "unique"
            )
        for sc in self.sites:
            if sc.vo_shares:
                shares = normalize_vo_shares(sc.vo_shares)
                if sc.vo_traffic:
                    known = {n for n, _ in shares}
                    stray = [n for n, _ in sc.vo_traffic if n not in known]
                    if stray:
                        raise ValueError(
                            f"site {sc.name!r}: vo_traffic names VO(s) "
                            f"absent from vo_shares: {', '.join(stray)}"
                        )
            elif sc.vo_traffic:
                raise ValueError(
                    f"site {sc.name!r} sets vo_traffic without vo_shares"
                )
        if not 0.0 <= self.diurnal_amplitude < 1.0:  # also rejects NaN
            raise ValueError(
                "diurnal_amplitude must be in [0, 1), "
                f"got {self.diurnal_amplitude!r}"
            )
        if not self.fairshare_halflife > 0.0:
            raise ValueError(
                f"fairshare_halflife must be > 0, got {self.fairshare_halflife!r}"
            )
        if self.brokers:
            bnames = [b.name for b in self.brokers]
            bdupes = sorted({n for n in bnames if bnames.count(n) > 1})
            if bdupes:
                raise ValueError(
                    f"duplicate broker name(s): {', '.join(bdupes)}"
                )
            site_names = set(names)
            for b in self.brokers:
                stray = [s for s in b.sites if s not in site_names]
                if stray:
                    raise ValueError(
                        f"broker {b.name!r} owns unknown site(s): "
                        f"{', '.join(stray)}"
                    )
        for name, kind in (
            ("weather", WeatherConfig),
            ("health", HealthConfig),
            ("resubmit", ResubmitConfig),
            ("submit_faults", SubmitFaultConfig),
            ("retry", RetryPolicy),
        ):
            value = getattr(self, name)
            if value is not None and not isinstance(value, kind):
                raise TypeError(
                    f"{name} must be a {kind.__name__}, "
                    f"got {type(value).__name__}"
                )
        if self.weather is not None:
            storm = self.weather.storm
            if storm is not None and storm.subset_size > len(self.sites):
                raise ValueError(
                    f"storm subset_size={storm.subset_size} exceeds the "
                    f"{len(self.sites)} configured site(s)"
                )
            site_names = {sc.name for sc in self.sites}
            for bh in self.weather.black_holes:
                if bh.site not in site_names:
                    raise ValueError(
                        f"black-hole site {bh.site!r} is not a configured "
                        f"site; available: {', '.join(sorted(site_names))}"
                    )
            broker_names = {b.name for b in self.brokers}
            for bo in self.weather.broker_outages:
                if bo.broker not in broker_names:
                    available = (
                        f"available: {', '.join(sorted(broker_names))}"
                        if broker_names
                        else "this grid configures no federated brokers"
                    )
                    raise ValueError(
                        f"broker_outages names unknown broker "
                        f"{bo.broker!r}; {available}"
                    )
            if storm is not None and storm.broker_prob > 0.0 and not self.brokers:
                raise ValueError(
                    f"storm broker_prob={storm.broker_prob!r} needs "
                    "federated brokers (GridConfig.brokers is empty)"
                )


def default_grid_config(
    *,
    n_sites: int = 12,
    seed: int = 7,
    utilization: float = 0.92,
    p_lost: float = 0.02,
    p_stuck: float = 0.03,
    diurnal_amplitude: float = 0.3,
) -> GridConfig:
    """An EGEE-biomed-flavoured default: heterogeneous, busy, faulty.

    Core counts span 8–128 (grid sites vary by two orders of magnitude);
    utilisation defaults near saturation so queue waits dominate, and the
    fault channels inject a ρ of ~5% before queueing outliers.
    """
    rng = np.random.default_rng(seed)
    cores_choices = np.array([8, 16, 24, 32, 48, 64, 96, 128])
    sites = tuple(
        SiteConfig(
            name=f"ce{i:02d}",
            n_cores=int(rng.choice(cores_choices)),
            utilization=float(utilization * rng.uniform(0.9, 1.05)),
            runtime_median=float(rng.uniform(1800.0, 7200.0)),
            runtime_sigma=float(rng.uniform(0.6, 1.1)),
        )
        for i in range(n_sites)
    )
    return GridConfig(
        sites=sites,
        faults=FaultModel(p_lost=p_lost, p_stuck=p_stuck),
        diurnal_amplitude=diurnal_amplitude,
    )


def federated_grid_config(
    *,
    n_sites: int = 8,
    n_brokers: int = 2,
    vo_shares: tuple[tuple[str, float], ...] = (
        ("biomed", 0.5),
        ("atlas", 0.3),
        ("cms", 0.2),
    ),
    seed: int = 7,
    utilization: float = 0.85,
    info_lag: float = 900.0,
    p_lost: float = 0.02,
    p_stuck: float = 0.02,
) -> GridConfig:
    """A multi-VO, multi-broker variant of :func:`default_grid_config`.

    Sites are drawn like the default config (heterogeneous cores and
    runtimes) but declare ``vo_shares`` fair-share allocations, and
    ``n_brokers`` federated brokers each own a contiguous slice of the
    sites with ``info_lag`` staleness towards the rest.
    """
    if n_sites < 1:
        raise ValueError(f"n_sites must be >= 1, got {n_sites}")
    if not 1 <= n_brokers <= n_sites:
        raise ValueError(
            f"n_brokers must be in [1, n_sites={n_sites}], got {n_brokers}"
        )
    rng = np.random.default_rng(seed)
    cores_choices = np.array([16, 24, 32, 48, 64, 96, 128])
    sites = tuple(
        SiteConfig(
            name=f"ce{i:02d}",
            n_cores=int(rng.choice(cores_choices)),
            utilization=float(utilization * rng.uniform(0.9, 1.05)),
            runtime_median=float(rng.uniform(1800.0, 7200.0)),
            runtime_sigma=float(rng.uniform(0.6, 1.1)),
            vo_shares=vo_shares,
        )
        for i in range(n_sites)
    )
    bounds = np.linspace(0, n_sites, n_brokers + 1).round().astype(int)
    brokers = tuple(
        BrokerConfig(
            name=f"wms-{k}",
            sites=tuple(s.name for s in sites[bounds[k] : bounds[k + 1]]),
            info_lag=info_lag,
        )
        for k in range(n_brokers)
    )
    return GridConfig(
        sites=sites,
        faults=FaultModel(p_lost=p_lost, p_stuck=p_stuck),
        brokers=brokers,
    )


class GridSimulator:
    """Executable grid built from a :class:`GridConfig`."""

    __setstate__ = restore_state

    def __init__(self, config: GridConfig, seed: RngLike = None) -> None:
        self.config = config
        self.sim = Simulator()
        #: unified counter/histogram/gauge namespace every subsystem
        #: publishes into (middleware stats, weather counters, tracing
        #: latency histogram); reading it never touches the laws
        self.metrics = MetricsRegistry()
        #: opt-in task tracing — None keeps every hook on its fast path
        self._tr = (
            TraceRecorder(self.sim, self.metrics) if config.tracing else None
        )
        # extra broker streams are appended *after* the historical
        # 2 + n_sites children, weather streams after those, and the
        # middleware chaos/jitter streams last, so degenerate
        # (broker-free, calm, fault-free) configs keep every RNG stream
        # byte-identical to the original layout
        n_extra_brokers = max(0, len(config.brokers) - 1)
        n_weather = int(
            config.weather is not None and config.weather.storm is not None
        )
        n_mw = (config.submit_faults is not None) + (config.retry is not None)
        rngs = spawn_rngs(
            as_rng(seed),
            2 + len(config.sites) + n_extra_brokers + n_weather + n_mw,
        )
        self._fault_rng = rngs[0]
        diurnal = (
            DiurnalProfile(amplitude=config.diurnal_amplitude)
            if config.diurnal_amplitude > 0.0
            else None
        )
        self.sites = [self._build_site(sc) for sc in config.sites]
        #: client timeout timers ride the pooled wheel on the batched lane
        self._pooled_timers = config.wms_engine == "batched"
        # a broker-free grid is a one-broker federation: broker "0" owns
        # every site and draws from the historical WMS stream rngs[1];
        # extra brokers take the streams appended after the sites'
        broker_configs = config.brokers or (
            BrokerConfig(
                "0", tuple(sc.name for sc in config.sites), info_lag=0.0
            ),
        )
        broker_cls = _WMS_ENGINES[config.wms_engine]
        self.brokers = [
            broker_cls(
                self.sim,
                self.sites,
                rng,
                owned=bc.sites,
                info_lag=bc.info_lag,
                name=bc.name,
                matchmaking_median=config.matchmaking_median,
                matchmaking_sigma=config.matchmaking_sigma,
                info_refresh=config.info_refresh,
                ranking_noise=config.ranking_noise,
            )
            for bc, rng in zip(
                broker_configs, [rngs[1], *rngs[2 + len(config.sites) :]]
            )
        ]
        #: the primary broker (the only one on broker-free grids)
        self.wms = self.brokers[0]
        self._broker_by_name = {b.name: b for b in self.brokers}
        self._next_broker = 0
        self.background = [
            BackgroundLoad(
                site,
                self.sim,
                rng,
                utilization=sc.utilization,
                runtime_median=sc.runtime_median,
                runtime_sigma=sc.runtime_sigma,
                diurnal=diurnal,
                vo_mix=(sc.vo_traffic or sc.vo_shares) if multi_vo(site) else None,
            )
            for site, sc, rng in zip(
                self.sites, config.sites, rngs[2 : 2 + len(config.sites)]
            )
        ]
        for bg in self.background:
            bg.start()
        #: name -> site, so cancel() resolves job.site in O(1)
        self._site_by_name = {s.name: s for s in self.sites}
        # -- grid weather / health / self-healing (all optional) ---------
        self.storm: StormProcess | None = None
        if config.weather is not None:
            if config.weather.storm is not None:
                self.storm = StormProcess(
                    self.sites,
                    self.sim,
                    rngs[2 + len(config.sites) + n_extra_brokers],
                    config.weather.storm,
                    brokers=self.brokers if config.brokers else None,
                )
                self.storm.start()
            for bh in config.weather.black_holes:
                site = self._site_by_name[bh.site]
                self.sim.schedule_at(bh.start, site.begin_black_hole)
                if math.isfinite(bh.duration):
                    self.sim.schedule_at(
                        bh.start + bh.duration, site.end_black_hole
                    )
            for bo in config.weather.broker_outages:
                broker = self._broker_by_name[bo.broker]
                self.sim.schedule_at(
                    bo.start, partial(broker.begin_outage, bo.mode)
                )
                if math.isfinite(bo.duration):
                    self.sim.schedule_at(
                        bo.start + bo.duration, broker.end_outage
                    )
        self._health: HealthService | None = None
        if config.health is not None:
            self._health = HealthService(self.sites, self.sim, config.health)
            for site in self.sites:
                site.on_fail = self._notify_fail
            for broker in self.brokers:
                broker.enable_health()
        self._agent: ResubmissionAgent | None = None
        if config.resubmit is not None:
            self._agent = ResubmissionAgent(self.sim, config.resubmit)
            self._agent.start()
        # -- middleware fault domain (optional) --------------------------
        self._mw: MiddlewareDomain | None = None
        mw_needed = (
            config.retry is not None
            or config.submit_faults is not None
            or (
                config.weather is not None
                and (
                    config.weather.broker_outages
                    or (
                        config.weather.storm is not None
                        and config.weather.storm.broker_prob > 0.0
                    )
                )
            )
        )
        if mw_needed:
            mw_rngs = rngs[
                2 + len(config.sites) + n_extra_brokers + n_weather :
            ]
            k = 0
            chaos_rng = jitter_rng = None
            if config.submit_faults is not None:
                chaos_rng = mw_rngs[k]
                k += 1
            if config.retry is not None:
                jitter_rng = mw_rngs[k]
            self._mw = MiddlewareDomain(
                self,
                retry=config.retry,
                faults=config.submit_faults,
                chaos_rng=chaos_rng,
                jitter_rng=jitter_rng,
            )
        #: optional (task, job) audit trail for the chaos harness's
        #: conservation auditor — None (off, zero cost) unless enabled
        self.task_ledger: list | None = None
        #: block-drawn fault uniforms (one per Bernoulli draw, consumed
        #: in the same order the scalar channel draws were)
        self._fault_uniforms: deque[float] = deque()
        #: whether submissions pass through the fault gate at all
        faults = config.faults
        self._faulty = faults.p_lost != 0.0 or faults.p_stuck != 0.0
        #: counters
        self.jobs_submitted = 0
        self.jobs_lost = 0
        self.jobs_stuck = 0
        #: at-least-once duplicates cleaned up by sibling-cancel
        self.duplicates_reconciled = 0
        if self._tr is not None:
            for broker in self.brokers:
                broker._tr = self._tr
            if self._agent is not None:
                self._agent._tr = self._tr
            if config.health is None:
                # health grids already route failures through
                # _notify_fail; tracing needs the same signal
                for site in self.sites:
                    site.on_fail = self._notify_fail
        self._register_metrics()

    def _build_site(self, sc: SiteConfig) -> FairShareVectorComputingElement:
        """The site engine for ``sc``: the fair-share engine, one VO when
        ``sc`` declares none."""
        return FairShareVectorComputingElement(
            sc.name,
            sc.n_cores,
            self.sim,
            vo_shares=sc.vo_shares or SINGLE_VO,
            fairshare_halflife=self.config.fairshare_halflife,
            on_start=self._notify_start,
        )

    def _register_metrics(self) -> None:
        """Publish every subsystem's gauges into :attr:`metrics`.

        Sources are ``(obj, attr)`` pairs or bound methods so the
        registry pickles with the grid (warm-cache snapshots).
        """
        m = self.metrics
        for attr in (
            "jobs_submitted",
            "jobs_lost",
            "jobs_stuck",
            "duplicates_reconciled",
        ):
            m.register_gauge(f"grid.{attr}", self, attr)
        m.register_gauge("grid.jobs_completed", self._jobs_completed_total)
        m.register_gauge("weather.outages_started", self._storm_outages_total)
        m.register_gauge("weather.storms_started", self._storms_started_total)
        for site in self.sites:
            m.register_gauge(f"site.{site.name}.jobs_killed", site, "jobs_killed")
            m.register_gauge(
                f"site.{site.name}.black_hole_failures", site, "jobs_failed_bh"
            )
            if multi_vo(site):
                m.register_gauge(f"site.{site.name}.usage_shares", site.usage_shares)
        for broker in self.brokers:
            name = broker.name
            m.register_gauge(f"broker.{name}.dispatches", broker, "dispatch_count")
            m.register_gauge(
                f"broker.{name}.outages_started", broker, "outages_started"
            )
        if self._health is not None:
            m.register_gauge("health.report", self._health.report)
        if self._agent is not None:
            m.register_gauge("resubmit.detected", self._agent, "detected")
            m.register_gauge(
                "resubmit.resubmissions", self._agent, "resubmissions"
            )
        if self._mw is not None:
            m.register_gauge("mw.duplicates", self._mw, "duplicates")

    def _storm_outages_total(self) -> int:
        return self.storm.outages_started if self.storm is not None else 0

    def _storms_started_total(self) -> int:
        return self.storm.storms_started if self.storm is not None else 0

    def _jobs_completed_total(self) -> int:
        return sum(s.jobs_completed for s in self.sites)

    @property
    def trace(self) -> TraceRecorder | None:
        """The task-lifecycle recorder, or ``None`` when tracing is off."""
        return self._tr

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time (s)."""
        return self.sim.now

    def run_until(self, t: float) -> None:
        """Advance virtual time to ``t``."""
        self.sim.run_until(t)

    def warm_up(self, duration: float = 6 * 3600.0) -> None:
        """Let the background load fill the queues before measuring."""
        check_positive("duration", duration)
        self.sim.run_until(self.sim.now + duration)

    # -- client API ------------------------------------------------------

    def submit(
        self,
        job: Job,
        on_start: Callable[[Job], None] | None = None,
        *,
        via: int | str | None = None,
        task=None,
    ) -> Job:
        """Submit one job: a one-item :meth:`submit_many`.

        Parameters
        ----------
        job:
            A fresh :class:`Job` (state CREATED).
        on_start:
            Callback fired the moment the job starts on a worker.
        via:
            Broker to route through on federated grids — an index into
            :attr:`brokers`, a broker name, or ``None`` for the default
            policy (round-robin across brokers; broker ``"0"`` when the
            grid configures none).
        task:
            The owning :class:`~repro.gridsim.client.TaskCore`, giving
            the middleware fault domain a retry context (backoff timers,
            attempt counters, duplicate registration).  Ignored — and
            free — on grids without a middleware fault domain; without a
            task, a failed submit attempt is simply LOST (no retries).
        """
        self.submit_many([job], on_start, via=via, task=task)
        return job

    def submit_many(
        self,
        jobs: list[Job],
        on_start: Callable[[Job], None] | None = None,
        *,
        via: int | str | None = None,
        task=None,
    ) -> list[Job]:
        """Submit a batch of sibling copies in one call.

        Law-identical to one :meth:`submit` per job (same per-job fault
        draws in the same order, same match-making delay stream), but
        the survivors reach the broker through one
        ``WorkloadManager.submit_many`` call — the lane burst strategies
        use so a ``b``-copy round costs one pass through the middleware
        instead of ``b``.

        With a middleware fault domain each copy takes its own resilient
        attempt (per-copy fault draws, retries and failover), so a burst
        under ``via=None`` round-robins per copy instead of pinning the
        whole burst to one broker — resilient clients spread their
        copies.
        """
        if self._mw is not None:
            mw = self._mw
            for job in jobs:
                mw.submit(job, on_start, via, task)
            return jobs
        now = self.sim._now
        tr = self._tr
        faulty = self._faulty
        live: list[Job] = []
        self.jobs_submitted += len(jobs)
        for job in jobs:
            job.submit_time = now
            if tr is not None and task is not None:
                tr.submit(task, job)
            if faulty and self._faulted(job):
                continue
            # attach the watcher only to jobs that can actually start: a
            # watcher on a lost/stuck job would never fire and only pins
            # a job→task reference cycle for the garbage collector
            if on_start is not None:
                job.on_start = on_start
            live.append(job)
        if live:
            # resolved only now, so a lost burst never advances the
            # round-robin
            brokers = self.brokers
            if via is None and len(brokers) == 1:
                broker = brokers[0]
            else:
                broker = self.broker_for(via)
            if tr is not None:
                for job in live:
                    tr.hop(job, broker)
            broker.submit_many(live)
        return jobs

    def broker_for(self, via: int | str | None = None) -> WorkloadManager:
        """Resolve a submission's broker (see :meth:`submit`)."""
        brokers = self.brokers
        if via is None:
            broker = brokers[self._next_broker]
            self._next_broker = (self._next_broker + 1) % len(brokers)
            return broker
        if isinstance(via, str):
            try:
                return self._broker_by_name[via]
            except KeyError:
                raise ValueError(
                    f"unknown broker {via!r}; available: "
                    f"{', '.join(self._broker_by_name)}"
                ) from None
        if not 0 <= via < len(brokers):
            raise ValueError(
                f"broker index {via} out of range; this grid has "
                f"{len(brokers)} broker(s)"
            )
        return brokers[via]

    def _submit_plain(self, job: Job, on_start, broker) -> None:
        """The accept tail shared with the middleware fault domain.

        A middleware-domain attempt that reaches the broker draws exactly
        the fault channels a plain :meth:`submit` would.
        """
        if self._faulty and self._faulted(job):
            return
        if on_start is not None:
            job.on_start = on_start
        broker.submit(job)

    def _faulted(self, job: Job) -> bool:
        """Draw the lost/stuck fault channels for one accepted submission.

        Returns ``True`` (job LOST or STUCK, counted and traced) when a
        channel fires.  The uniforms are block-drawn from the private
        ``_fault_rng`` stream and consumed in the order the historical
        per-channel Bernoullis drew them: the stuck draw only happens
        when the job survives the lost channel.  Callers skip the gate
        on fault-free grids (``_faulty``): the stream is private to this
        channel, so no other law can observe the skipped uniforms.
        """
        faults = self.config.faults
        uniforms = self._fault_uniforms
        if len(uniforms) < 2:
            uniforms.extend(self._fault_rng.random(256).tolist())
        if uniforms.popleft() < faults.p_lost:
            job.state = _LOST
            self.jobs_lost += 1
            reason = "lost"
        elif uniforms.popleft() < faults.p_stuck:
            # the job will sit in a mis-configured queue forever: model
            # it as matching that never dispatches
            job.state = _STUCK
            self.jobs_stuck += 1
            reason = "stuck"
        else:
            return False
        if self._tr is not None:
            self._tr.fail(job, reason)
        return True

    def enable_task_ledger(self) -> list:
        """Start recording every client ``(task, job)`` pair.

        The chaos harness's conservation auditor
        (:func:`~repro.gridsim.chaos.audit_conservation`) replays this
        ledger after a run to prove every task is accounted for exactly
        once.  Off by default (``task_ledger is None``) — a long
        population run would otherwise pin every job ever minted.
        """
        if self.task_ledger is None:
            self.task_ledger = []
        return self.task_ledger

    def cancel(self, job: Job) -> None:
        """Cancel a job wherever it is: a one-item :meth:`cancel_many`."""
        self.cancel_many([job])

    def cancel_many(self, jobs: list[Job]) -> None:
        """Cancel a batch of jobs in one grid call (sibling copies).

        Jobs die wherever they are — matching, queued, running, stuck or
        lost.  CREATED jobs cancel too: under a retry policy a copy sits
        in that state between failed submit attempts, and the sibling
        cancel that settles its task must kill the pending retry saga.
        Matching/stuck/lost jobs die by state flip; queued and running
        jobs are grouped per site and handed to the site's
        ``cancel_many``, so each touched site pays one dispatch /
        reconciliation pass for the whole batch instead of one per job.
        This is the cancellation lane :class:`~repro.gridsim.client.TaskCore`
        uses to kill a task's sibling copies the instant one starts.
        """
        tr = self._tr
        by_site: dict[str, list[Job]] = {}
        for job in jobs:
            job.on_start = None
            if job.duplicate:
                job.duplicate = False
                self.duplicates_reconciled += 1
                if tr is not None:
                    tr.dup_reconciled(job)
            state = job.state
            if state in _AT_SITE:
                by_site.setdefault(job.site, []).append(job)
            elif state in _OFF_SITE:
                job.state = _CANCELLED
            else:
                continue
            if tr is not None:
                tr.cancel(job)
        for name, bunch in by_site.items():
            site = self._site_by_name.get(name)
            if site is not None:
                site.cancel_many(bunch)

    def schedule_timeout(self, delay: float, callback: Callable[[], None]):
        """Arm a cancellable client timeout (strategy ``t_inf``, probes).

        Routes to the kernel's pooled timer wheel under the batched WMS
        engine (O(1) arm/cancel, fires within one wheel granule after
        the deadline) and to an exact heap event under the ``"event"``
        oracle, so the oracle's timing stays bit-faithful to the
        historical per-job pipeline.
        """
        if self._pooled_timers:
            return self.sim.schedule_pooled(delay, callback)
        return self.sim.schedule(delay, callback)

    # -- snapshots -------------------------------------------------------

    def snapshot(self) -> "GridSnapshot":
        """Capture the current state as a restorable :class:`GridSnapshot`."""
        return GridSnapshot(self)

    def report_failed(self, jobs: list[Job]) -> None:
        """Report jobs a client gave up on to the health service.

        Strategy timeouts are the WMS's main signal that a site is
        swallowing work: a job still QUEUED at its site when the client's
        ``t_inf`` fires counts as one observed failure against that site.
        No-op on grids without a health machine.
        """
        health = self._health
        if health is None:
            return
        for job in jobs:
            if job.state is _QUEUED and job.site:
                health.observe_failure(job.site)

    # -- internals -------------------------------------------------------

    def _notify_start(self, job: Job) -> None:
        # record the start before the watcher runs: settling a task
        # cancels its siblings, and those cancel events must not precede
        # the start that triggered them
        if self._tr is not None:
            self._tr.start(job)
        if self._health is not None and job.site:
            self._health.observe_success(job.site)
        watcher = job.on_start
        if watcher is not None:
            job.on_start = None
            watcher(job)

    def _notify_fail(self, job: Job) -> None:
        # site-side instant failures (black-hole CE) reach the health
        # machine through the site's on_fail hook
        if self._health is not None and job.site:
            self._health.observe_failure(job.site)
        if self._tr is not None:
            self._tr.fail(job, "failed")

    # -- telemetry -------------------------------------------------------

    def weather_report(self) -> dict:
        """Cumulative weather/health/self-healing telemetry.

        Cheap enough to call repeatedly; always available (zeros on calm
        grids), with ``"health"`` / ``"resubmit"`` sections present only
        when those services are configured.  Every value is read through
        :attr:`metrics` — this is a view over the registry, not a
        parallel set of books.
        """
        m = self.metrics
        report: dict = {
            "outages_started": m.value("weather.outages_started"),
            "storms_started": m.value("weather.storms_started"),
            "jobs_killed": {
                s.name: m.value(f"site.{s.name}.jobs_killed")
                for s in self.sites
            },
            "black_hole_failures": {
                s.name: m.value(f"site.{s.name}.black_hole_failures")
                for s in self.sites
            },
        }
        if self._mw is not None:
            report["brokers"] = self._mw.report()
            report["duplicates"] = {
                "created": m.value("mw.duplicates"),
                "reconciled": m.value("grid.duplicates_reconciled"),
            }
        if self._health is not None:
            report["health"] = m.value("health.report")
        if self._agent is not None:
            report["resubmit"] = {
                "detected": m.value("resubmit.detected"),
                "resubmissions": m.value("resubmit.resubmissions"),
            }
        return report

    def total_queue_length(self) -> int:
        """Jobs waiting across all sites."""
        return sum(s.queue_length for s in self.sites)

    def total_busy_cores(self) -> int:
        """Cores in use across all sites."""
        return sum(s.busy_cores for s in self.sites)

    def utilization(self) -> float:
        """Fraction of all cores currently busy."""
        total = sum(s.n_cores for s in self.sites)
        return self.total_busy_cores() / total


class GridSnapshot:
    """A frozen grid state; :meth:`restore` forks fresh grids from it.

    The snapshot serialises the grid once at capture time (pickle — all
    gridsim-internal callbacks are bound methods or ``partial``s, which
    serialise by reference through the object graph), so the grid it was
    taken from may keep running and every ``restore()`` is a cheap
    deserialisation yielding an independent simulator that continues
    exactly as the original would have at capture time.  A grid carrying
    an un-picklable attachment (a lambda on its event queue, say) cannot
    be captured: the constructor raises :class:`pickle.PicklingError`.

    Every class a snapshot carries binds
    :func:`~repro.gridsim.events.restore_state` as its ``__setstate__``,
    so a restored object keeps its attributes inline and reads them as
    fast as a fresh one; ``tests/test_snapshots.py::TestRestoreRule``
    walks restored grids and fails on a class that does not.
    """

    def __init__(self, grid: GridSimulator) -> None:
        if grid.jobs_submitted:
            raise RuntimeError(
                "can only snapshot a pristine grid (no client "
                "submissions); capture after warm_up(), before probing "
                "or running strategies"
            )
        self.time = grid.now
        try:
            self._payload = pickle.dumps(grid, pickle.HIGHEST_PROTOCOL)
        except (AttributeError, TypeError) as exc:
            # local functions and C objects (locks, files) fail with these
            raise pickle.PicklingError(f"cannot snapshot the grid: {exc}") from exc

    @property
    def nbytes(self) -> int:
        """Serialised size."""
        return len(self._payload)

    def restore(self) -> GridSimulator:
        """Fork a runnable grid from the snapshot (repeatable)."""
        return pickle.loads(self._payload)


#: warmed-grid snapshots keyed by (config, seed, duration); the cache
#: holds frozen state only — warmed_grid() hands out restored forks.
#: Bounded both by entry count and by total pickled bytes (LRU), so
#: many-config campaigns neither thrash a tiny cache nor hoard memory.
_WARM_CACHE: OrderedDict[tuple, GridSnapshot] = OrderedDict()
_WARM_CACHE_MAX = 16
_WARM_CACHE_MAX_BYTES = 256 * 1024 * 1024


def configure_warm_cache(
    max_entries: int | None = None, max_bytes: int | None = None
) -> None:
    """Set the warmed-snapshot cache limits (and evict down to them).

    The defaults are 16 entries and 256 MiB of total pickled size; pass
    explicit values to override them at runtime.
    """
    global _WARM_CACHE_MAX, _WARM_CACHE_MAX_BYTES
    if max_entries is not None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        _WARM_CACHE_MAX = int(max_entries)
    if max_bytes is not None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        _WARM_CACHE_MAX_BYTES = int(max_bytes)
    _warm_cache_evict()


def _warm_cache_evict() -> None:
    """Drop least-recently-used snapshots past the entry/byte budgets."""
    total = sum(snap.nbytes for snap in _WARM_CACHE.values())
    while _WARM_CACHE and (
        len(_WARM_CACHE) > _WARM_CACHE_MAX or total > _WARM_CACHE_MAX_BYTES
    ):
        _, evicted = _WARM_CACHE.popitem(last=False)
        total -= evicted.nbytes


def warmed_snapshot(
    config: GridConfig,
    seed: int,
    duration: float = 6 * 3600.0,
) -> GridSnapshot:
    """The frozen warmed state behind :func:`warmed_grid` (integer seeds).

    Experiments that fork several same-seed grids (``val-des`` executes
    each strategy on one, ``abl-adopt`` one per fleet) grab the snapshot
    once and :meth:`~GridSnapshot.restore` per execution; the sharded
    population runtime ships its pickled payload to worker processes,
    which is far cheaper than re-warming there.
    """
    check_positive("duration", duration)
    if not isinstance(seed, numbers.Integral):
        raise TypeError(
            f"warmed_snapshot caches integer seeds only, got {type(seed).__name__}"
        )
    seed = int(seed)
    key = (config, seed, float(duration))
    snap = _WARM_CACHE.get(key)
    if snap is None:
        master = GridSimulator(config, seed=seed)
        master.warm_up(duration)
        snap = master.snapshot()
        _WARM_CACHE[key] = snap
        _warm_cache_evict()
    else:
        _WARM_CACHE.move_to_end(key)
    return snap


def warmed_grid(
    config: GridConfig,
    seed: RngLike = None,
    duration: float = 6 * 3600.0,
) -> GridSimulator:
    """A grid warmed for ``duration`` seconds, served from a keyed cache.

    The first call for a given ``(config, seed, duration)`` builds and
    warms a master grid; subsequent calls fork bit-identical clones of
    it, so experiments that repeatedly need "a fresh grid with the same
    seed, warmed the same way" pay the warm-up once.  Clones are
    indistinguishable from independently warmed grids because
    construction and warm-up are deterministic given the seed.

    Only integer seeds (numpy integers included) are cached — generator
    seeds mutate and cannot key a cache, so those fall back to a direct
    warm-up.
    """
    check_positive("duration", duration)
    if not isinstance(seed, numbers.Integral):
        grid = GridSimulator(config, seed=seed)
        grid.warm_up(duration)
        return grid
    return warmed_snapshot(config, seed, duration).restore()
