"""Site health state machine: EWMA outcome tracking, bans, probe re-admission.

Production grid operations teams do what no per-job fault model captures:
they watch per-site failure rates, *ban* sites that misbehave, and
re-admit them only after probe jobs succeed ("Mining the Workload of
Real Grid Computing Systems" documents exactly this operator loop).
:class:`HealthService` reproduces that loop inside the simulator:

* every site carries an operational state
  ``ok → degraded → banned → probing → ok``;
* the state is driven by an exponentially weighted moving average of
  *observed* job outcomes — successes reported by the grid's start
  notifications, failures reported by strategy timeouts
  (:meth:`~repro.gridsim.grid.GridSimulator.report_failed`) and by the
  site's black-hole intercept (``on_fail``);
* a ban publishes an infinite match-making penalty
  (``site.health_penalty``), which health-aware brokers fold into their
  ranking **at snapshot-refresh time** — so ban propagation inherits the
  information system's staleness, and a federated broker keeps feeding a
  banned remote site for up to ``info_refresh + info_lag`` (a real
  production failure mode this module makes measurable);
* after ``ban_cooldown`` the service submits ``n_probes`` short probe
  jobs straight to the site's CE (operator tooling bypasses the WMS); the
  first probe that *starts* re-admits the site, probes that all fail or
  hang until ``probe_timeout`` send it back to banned for another
  cooldown.  A black-hole site fails its probes instantly and therefore
  stays contained for as long as the hole lasts.

The service is deliberately deterministic (no RNG): given the same
observation stream it makes the same transitions on every engine, which
is what the law-equivalence suite pins.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from repro.gridsim.events import restore_state
from repro.gridsim.jobs import Job, JobState
from repro.util.validation import (
    check_in_range,
    check_int_at_least,
    check_positive,
    check_probability,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gridsim.events import Simulator

__all__ = ["HealthState", "HealthConfig", "SiteHealth", "HealthService"]


class HealthState(enum.Enum):
    """Operational state of a site in the operator's eyes."""

    #: healthy — no match-making penalty
    OK = "ok"
    #: elevated failure rate — penalised in match-making, still fed
    DEGRADED = "degraded"
    #: masked out of match-making, waiting out the ban cooldown
    BANNED = "banned"
    #: probe jobs submitted; first probe start re-admits the site
    PROBING = "probing"


# members read once: an attribute read on the Enum class goes through
# EnumType.__getattr__, and _observe runs on every client start
_OK = HealthState.OK
_DEGRADED = HealthState.DEGRADED
_BANNED = HealthState.BANNED
_PROBING = HealthState.PROBING
_QUEUED = JobState.QUEUED


@dataclass(frozen=True)
class HealthConfig:
    """Thresholds and timers of the health state machine.

    The EWMA tracks the failure *rate* in [0, 1]: each observation is 1
    (failure) or 0 (success) and ``ewma += alpha * (x - ewma)``.  The
    thresholds must satisfy ``recover <= degrade <= ban`` — the machine
    degrades at ``degrade_threshold``, bans at ``ban_threshold`` and
    recovers (degraded → ok) below ``recover_threshold``, the hysteresis
    gap preventing flapping.
    """

    __setstate__ = restore_state

    #: EWMA weight of the newest observation, in (0, 1]
    alpha: float = 0.2
    #: failure rate at which an ok site becomes degraded
    degrade_threshold: float = 0.5
    #: failure rate at which a site is banned outright
    ban_threshold: float = 0.8
    #: failure rate below which a degraded site recovers
    recover_threshold: float = 0.3
    #: observations required before any transition fires (EWMA warm-up)
    min_observations: int = 5
    #: seconds a ban lasts before probe jobs test the site
    ban_cooldown: float = 3600.0
    #: runtime of each probe job (s)
    probe_runtime: float = 30.0
    #: seconds after which unstarted probes are written off
    probe_timeout: float = 1800.0
    #: probe jobs submitted per re-admission attempt
    n_probes: int = 3
    #: match-making penalty of a degraded site (>= 1; banned is inf)
    degraded_penalty: float = 4.0

    def __post_init__(self) -> None:
        check_in_range("alpha", self.alpha, 0.0, 1.0, inclusive=(False, True))
        check_probability("degrade_threshold", self.degrade_threshold)
        check_probability("ban_threshold", self.ban_threshold)
        check_probability("recover_threshold", self.recover_threshold)
        if not (
            self.recover_threshold
            <= self.degrade_threshold
            <= self.ban_threshold
        ):
            raise ValueError(
                "health thresholds must satisfy recover <= degrade <= ban, "
                f"got recover={self.recover_threshold!r}, "
                f"degrade={self.degrade_threshold!r}, "
                f"ban={self.ban_threshold!r}"
            )
        check_int_at_least("min_observations", self.min_observations, 1)
        check_positive("ban_cooldown", self.ban_cooldown)
        check_positive("probe_runtime", self.probe_runtime)
        check_positive("probe_timeout", self.probe_timeout)
        check_int_at_least("n_probes", self.n_probes, 1)
        if not self.degraded_penalty >= 1.0:
            raise ValueError(
                f"degraded_penalty must be >= 1, got {self.degraded_penalty!r}"
            )


@dataclass
class SiteHealth:
    """Mutable per-site health record."""

    __setstate__ = restore_state

    site: object
    state: HealthState = HealthState.OK
    #: EWMA of the failure indicator (1 = failure, 0 = success)
    ewma: float = 0.0
    #: observations folded into the EWMA since the last reset
    n_obs: int = 0
    #: probes of the current probing round (empty outside PROBING)
    probes: list = field(default_factory=list)


class HealthService:
    """Operator loop: observe outcomes, ban sick sites, probe, re-admit.

    Wired by :class:`~repro.gridsim.grid.GridSimulator` when a
    :class:`HealthConfig` is configured; unconfigured grids never
    construct one, so the degenerate path stays byte-identical.
    """

    __setstate__ = restore_state

    def __init__(self, sites: list, sim: "Simulator", config: HealthConfig) -> None:
        self.sim = sim
        self.config = config
        self._records = {s.name: SiteHealth(s) for s in sites}
        #: cumulative transition counts keyed ``"old->new"``
        self.transitions: dict[str, int] = {}
        #: probe jobs submitted across all probing rounds
        self.probes_sent = 0

    # -- observation channels ----------------------------------------------

    def observe_success(self, site_name: str) -> None:
        """A client job started at the site (the WMS saw it succeed)."""
        sh = self._records.get(site_name)
        if sh is not None:
            self._observe(sh, 0.0)

    def observe_failure(self, site_name: str) -> None:
        """A client job failed or timed out while queued at the site."""
        sh = self._records.get(site_name)
        if sh is not None:
            self._observe(sh, 1.0)

    def _observe(self, sh: SiteHealth, x: float) -> None:
        config = self.config
        sh.n_obs += 1
        sh.ewma += config.alpha * (x - sh.ewma)
        state = sh.state
        if state is _BANNED or state is _PROBING:
            return  # re-admission is the probe loop's job, not the EWMA's
        if sh.n_obs < config.min_observations:
            return
        if sh.ewma >= config.ban_threshold:
            self._transition(sh, _BANNED)
        elif state is _OK:
            if sh.ewma >= config.degrade_threshold:
                self._transition(sh, _DEGRADED)
        elif state is _DEGRADED:
            if sh.ewma < config.recover_threshold:
                self._transition(sh, _OK)

    # -- the state machine ---------------------------------------------------

    def _transition(self, sh: SiteHealth, new: HealthState) -> None:
        key = f"{sh.state.value}->{new.value}"
        self.transitions[key] = self.transitions.get(key, 0) + 1
        sh.state = new
        if new is _BANNED:
            sh.site.health_penalty = math.inf
            self.sim.schedule(
                self.config.ban_cooldown, partial(self._begin_probing, sh)
            )
        elif new is _DEGRADED:
            sh.site.health_penalty = self.config.degraded_penalty
        elif new is _OK:
            sh.site.health_penalty = 1.0
            # fresh start: past sins are forgiven once probes vouch for
            # the site (and on degraded → ok recovery, which has already
            # decayed below recover_threshold anyway)
            sh.ewma = 0.0
            sh.n_obs = 0

    def _begin_probing(self, sh: SiteHealth) -> None:
        if sh.state is not _BANNED:  # pragma: no cover - safety
            return
        self._transition(sh, _PROBING)  # penalty stays inf
        sh.site.health_penalty = math.inf
        now = self.sim._now
        probes = []
        for _ in range(self.config.n_probes):
            job = Job(runtime=self.config.probe_runtime, tag="health-probe")
            job.submit_time = now
            job.on_start = partial(self._probe_started, sh)
            probes.append(job)
        sh.probes = probes
        self.probes_sent += len(probes)
        # operator tooling submits straight to the CE, bypassing the WMS
        sh.site.enqueue_many(probes)
        self.sim.schedule(
            self.config.probe_timeout, partial(self._probe_verdict, sh, probes)
        )

    def _probe_started(self, sh: SiteHealth, job: Job) -> None:
        # reaching a worker node is the re-admission criterion (the
        # paper's probes measure exactly this); a black-hole site fails
        # its probes before they start and never gets here
        if sh.state is _PROBING:
            sh.probes = []
            self._transition(sh, _OK)

    def _probe_verdict(self, sh: SiteHealth, probes: list) -> None:
        leftovers = [j for j in probes if j.state is _QUEUED]
        if leftovers:
            sh.site.cancel_many(leftovers)
        if sh.state is _PROBING and sh.probes is probes:
            # no probe started inside the window: another ban cycle
            sh.probes = []
            self._transition(sh, _BANNED)

    # -- telemetry -----------------------------------------------------------

    def report(self) -> dict:
        """Snapshot of states and cumulative transition counters."""
        return {
            "states": {
                n: sh.state.value for n, sh in self._records.items()
            },
            "transitions": dict(self.transitions),
            "probes_sent": self.probes_sent,
        }
