"""Grid weather: correlated outage storms, black-hole sites, self-healing.

Independent per-site renewal outages (:mod:`repro.gridsim.outages`)
miss the two failure regimes that actually shape production-grid
workloads ("Mining the Workload of Real Grid Computing Systems"):

* **storms** — correlated multi-site outages (a shared service, a
  network segment, a power event takes a random subset of sites down
  *together*), modelled here as a Poisson storm process
  (:class:`StormProcess`);
* **black holes** — sites whose CE accepts jobs and instantly
  "completes" them as failures, so their published queue estimate is
  permanently the best on the grid and match-making keeps feeding them
  (:class:`BlackHoleConfig`, executed by the site engines'
  ``begin_black_hole`` / ``end_black_hole`` hooks).

The counterpart is the middleware's answer: a service-side
:class:`ResubmissionAgent` (modelled on the resubmit daemons of grid
analysis environments — see "Resource Management Services for a Grid
Analysis Environment") that periodically sweeps for failed-and-missing
work and resubmits it under a retry budget with exponential backoff, as
a *system* policy composable with the paper's *user-side* strategies.

All configs validate eagerly in ``__post_init__`` so a bad campaign
dies at construction, not three simulated days in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.gridsim.events import restore_state
from repro.gridsim.jobs import JobState
from repro.util.validation import (
    check_int_at_least,
    check_nonnegative,
    check_positive,
    check_probability,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gridsim.events import Simulator

__all__ = [
    "StormConfig",
    "BlackHoleConfig",
    "BrokerOutageConfig",
    "WeatherConfig",
    "StormProcess",
    "ResubmitConfig",
    "ResubmissionAgent",
]

#: how a downed broker treats submissions (see ``WorkloadManager.begin_outage``)
_BROKER_MODES = ("reject", "black-hole")


@dataclass(frozen=True)
class StormConfig:
    """Correlated multi-site outage storms (shared Poisson process)."""

    __setstate__ = restore_state

    #: mean time between storms (s, exponential)
    mean_interval: float = 86_400.0
    #: mean storm duration (s, exponential, shared by the hit subset)
    mean_duration: float = 7_200.0
    #: sites taken down together per storm
    subset_size: int = 2
    #: probability each running job on a hit site is killed
    kill_running: float = 0.0
    #: probability the storm also downs one random federated broker for
    #: its duration (middleware and site share the failure cause — a
    #: network segment, a machine room).  0 consumes no extra draws, so
    #: site-only storm configs keep their RNG streams byte-identical.
    broker_prob: float = 0.0
    #: outage mode of a storm-hit broker
    broker_mode: str = "reject"

    def __post_init__(self) -> None:
        check_positive("mean_interval", self.mean_interval)
        check_positive("mean_duration", self.mean_duration)
        check_int_at_least("subset_size", self.subset_size, 1)
        check_probability("kill_running", self.kill_running)
        check_probability("broker_prob", self.broker_prob)
        if self.broker_mode not in _BROKER_MODES:
            raise ValueError(
                f"unknown broker_mode {self.broker_mode!r}; "
                f"available: {', '.join(_BROKER_MODES)}"
            )


@dataclass(frozen=True)
class BlackHoleConfig:
    """A deterministic black-hole window at one named site.

    Deterministic on purpose: the attractor dynamics (traffic piling
    into the hole) are what the experiments measure, so the hole itself
    consumes no randomness and stays bit-identical across engines.
    """

    __setstate__ = restore_state

    #: name of the site that turns into a black hole
    site: str
    #: instant the hole opens (virtual seconds)
    start: float = 0.0
    #: how long it lasts; ``inf`` = never recovers
    duration: float = float("inf")

    def __post_init__(self) -> None:
        if not isinstance(self.site, str) or not self.site:
            raise ValueError(
                f"black-hole site must be a non-empty string, got {self.site!r}"
            )
        check_nonnegative("start", self.start)
        if not self.duration > 0.0:  # inf allowed
            raise ValueError(
                f"duration must be > 0, got {self.duration!r}"
            )


@dataclass(frozen=True)
class BrokerOutageConfig:
    """A scheduled outage window at one named federated broker.

    Deterministic like :class:`BlackHoleConfig` — what the experiments
    measure is how clients and failover react, so the outage itself
    consumes no randomness and stays bit-identical across engines.
    """

    __setstate__ = restore_state

    #: name of the broker that goes down
    broker: str
    #: instant the broker goes down (virtual seconds)
    start: float = 0.0
    #: how long it stays down; ``inf`` = never recovers
    duration: float = 3_600.0
    #: ``"reject"`` fails submissions synchronously, ``"black-hole"``
    #: swallows them (the client learns only from its submit timeout)
    mode: str = "reject"

    def __post_init__(self) -> None:
        if not isinstance(self.broker, str) or not self.broker:
            raise ValueError(
                f"broker must be a non-empty broker name, got {self.broker!r}"
            )
        check_nonnegative("start", self.start)
        if not self.duration > 0.0:  # inf allowed
            raise ValueError(
                f"duration must be > 0, got {self.duration!r}"
            )
        if self.mode not in _BROKER_MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; "
                f"available: {', '.join(_BROKER_MODES)}"
            )


@dataclass(frozen=True)
class WeatherConfig:
    """The grid's weather regime: any mix of the three processes."""

    __setstate__ = restore_state

    #: correlated storm process (None = no storms)
    storm: StormConfig | None = None
    #: scheduled black-hole windows
    black_holes: tuple[BlackHoleConfig, ...] = ()
    #: scheduled broker outage windows (middleware fault domain)
    broker_outages: tuple[BrokerOutageConfig, ...] = ()

    def __post_init__(self) -> None:
        if self.storm is not None and not isinstance(self.storm, StormConfig):
            raise TypeError(
                f"storm must be a StormConfig, got {type(self.storm).__name__}"
            )
        object.__setattr__(self, "black_holes", tuple(self.black_holes))
        for bh in self.black_holes:
            if not isinstance(bh, BlackHoleConfig):
                raise TypeError(
                    "black_holes entries must be BlackHoleConfig, "
                    f"got {type(bh).__name__}"
                )
        object.__setattr__(self, "broker_outages", tuple(self.broker_outages))
        for bo in self.broker_outages:
            if not isinstance(bo, BrokerOutageConfig):
                raise TypeError(
                    "broker_outages entries must be BrokerOutageConfig, "
                    f"got {type(bo).__name__}"
                )


class StormProcess:
    """Shared Poisson storm process downing random site subsets together.

    Each storm hits ``subset_size`` distinct sites drawn without
    replacement (sorted, so the order of ``begin_outage`` calls — and
    therefore kill-draw consumption — is deterministic given the
    choice); sites already down ride the storm out unaffected.  The
    whole subset recovers together after one shared exponential
    duration, mirroring the shared-cause semantics (one broken service,
    one fix).
    """

    __setstate__ = restore_state

    def __init__(
        self,
        sites: list,
        sim: "Simulator",
        rng: np.random.Generator,
        config: StormConfig,
        brokers: list | None = None,
    ) -> None:
        if config.subset_size > len(sites):
            raise ValueError(
                f"storm subset_size={config.subset_size} exceeds the "
                f"{len(sites)} configured site(s)"
            )
        if config.broker_prob > 0.0 and not brokers:
            raise ValueError(
                "storm broker_prob > 0 needs federated brokers to hit"
            )
        self.sites = sites
        self.sim = sim
        self.rng = rng
        self.config = config
        self.brokers = brokers or []
        self.storms_started = 0
        #: individual site-down events across all storms
        self.outages_started = 0
        #: broker-down events across all storms
        self.broker_outages_started = 0

    def start(self) -> None:
        """Schedule the first storm."""
        self.sim.schedule(
            self.rng.exponential(self.config.mean_interval), self._storm
        )

    def _storm(self) -> None:
        cfg = self.config
        n = len(self.sites)
        picks = sorted(self.rng.choice(n, size=cfg.subset_size, replace=False))
        duration = self.rng.exponential(cfg.mean_duration)
        self.storms_started += 1
        hit = []
        for k in picks:
            site = self.sites[k]
            if not site.dispatch_enabled:
                continue  # already down: the storm changes nothing for it
            site.begin_outage(self.rng, cfg.kill_running)
            self.outages_started += 1
            hit.append(site)
        if hit:
            self.sim.schedule(duration, partial(self._recover, hit))
        # the broker draws come strictly *after* the site draws, so
        # site-only storms (broker_prob == 0) consume exactly the
        # historical stream — and skip the branch entirely
        if cfg.broker_prob > 0.0 and self.rng.random() < cfg.broker_prob:
            broker = self.brokers[int(self.rng.integers(len(self.brokers)))]
            if broker.accepting:  # already-down brokers ride it out
                broker.begin_outage(cfg.broker_mode)
                self.broker_outages_started += 1
                self.sim.schedule(duration, partial(self._recover_broker, broker))
        # the next storm clock runs from the storm *start* (Poisson
        # arrivals are oblivious to how long the damage lasts)
        self.sim.schedule(self.rng.exponential(cfg.mean_interval), self._storm)

    def _recover(self, hit: list) -> None:
        for site in hit:
            if not site.dispatch_enabled:
                site.end_outage()

    def _recover_broker(self, broker) -> None:
        if not broker.accepting:
            broker.end_outage()


@dataclass(frozen=True)
class ResubmitConfig:
    """Retry budget and backoff of the self-healing resubmission agent."""

    __setstate__ = restore_state

    #: seconds between monitoring sweeps
    period: float = 300.0
    #: system-side resubmissions allowed per task
    max_retries: int = 3
    #: backoff before the first resubmission (s)
    backoff_base: float = 60.0
    #: multiplier applied per successive resubmission of the same task
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        check_positive("period", self.period)
        check_int_at_least("max_retries", self.max_retries, 0)
        check_nonnegative("backoff_base", self.backoff_base)
        if not self.backoff_factor >= 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )


#: job states the agent treats as dead-and-gone (resubmission candidates)
_DEAD = (JobState.LOST, JobState.STUCK, JobState.FAILED)


class ResubmissionAgent:
    """Service-side monitor that resubmits failed-and-missing work.

    Strategy executors register every ``(task, job)`` pair they submit
    (:meth:`watch`); each sweep drops finished tasks, finds watched jobs
    that died without their task completing, and — if the task still has
    retry budget — schedules one system-side resubmission after an
    exponential backoff.  The agent is a *system* policy: it composes
    with (and is invisible to) the paper's user-side strategies, which
    keep their own timeouts and their own resubmission logic.
    """

    __setstate__ = restore_state

    #: task-lifecycle recorder (grid-assigned on traced runs)
    _tr = None

    def __init__(self, sim: "Simulator", config: ResubmitConfig) -> None:
        self.sim = sim
        self.config = config
        #: live watch list of (task, job) pairs
        self._watch: list = []
        #: dead jobs noticed across all sweeps
        self.detected = 0
        #: system-side resubmissions performed
        self.resubmissions = 0

    def start(self) -> None:
        """Begin the periodic monitoring sweeps."""
        self.sim.schedule(self.config.period, self._sweep)

    def watch(self, task, job) -> None:
        """Register a submitted job for monitoring on behalf of ``task``."""
        self._watch.append((task, job))

    def _sweep(self) -> None:
        cfg = self.config
        live = []
        for task, job in self._watch:
            if task.done:
                continue  # the task made it; stop watching all its jobs
            if job.state in _DEAD:
                if getattr(task, "retry_pending", 0):
                    # the client's own retry policy is mid-flight on this
                    # task: rescuing now would double-submit.  Keep
                    # watching — if the client gives up, a later sweep
                    # still finds the dead job.  (getattr: duck-typed
                    # tasks without the middleware counters never defer)
                    live.append((task, job))
                    continue
                self.detected += 1
                if task.agent_retries < cfg.max_retries:
                    delay = cfg.backoff_base * (
                        cfg.backoff_factor**task.agent_retries
                    )
                    task.agent_retries += 1
                    self.sim.schedule(delay, partial(self._resubmit, task))
                continue  # dead jobs leave the watch list either way
            live.append((task, job))
        self._watch = live
        self.sim.schedule(cfg.period, self._sweep)

    def _resubmit(self, task) -> None:
        if task.done:
            return  # a sibling copy started while the backoff ran
        self.resubmissions += 1
        if self._tr is not None:
            self._tr.rescue(task)
        # submit_copy registers the new job with this agent again
        task.submit_copy()
