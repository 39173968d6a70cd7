"""Discrete-event simulation of an EGEE-like production grid.

The paper measures latency by submitting probe jobs through the real EGEE
stack (User Interface → Workload Management Server → Computing Element →
batch queue → worker node, §3.1).  This package provides a mechanistic
substitute: an event-driven simulator with

* heterogeneous sites (core counts, service policies) fronted by
  batch queues (:mod:`repro.gridsim.site`);
* a WMS performing match-making with stochastic delay and ranking sites
  on *stale* load information (:mod:`repro.gridsim.wms`) — the partial
  information problem of §1;
* per-stage fault injection (lost submissions, stuck jobs) producing the
  outlier ratio ρ (:mod:`repro.gridsim.faults`);
* background production workload with diurnal modulation keeping sites
  near saturation (:mod:`repro.gridsim.background`);
* the paper's constant-probe measurement protocol
  (:mod:`repro.gridsim.probes`), emitting :class:`~repro.traces.TraceSet`;
* client-side strategy executors replaying the three §4–§6 strategies
  against the simulated grid (:mod:`repro.gridsim.client`), including the
  fleet-adoption experiment the paper leaves as future work;
* per-VO fair-share scheduling at sites (:mod:`repro.gridsim.fairshare`)
  — the multi-tenant reality of production grids, with VO labels riding
  the vectorised background chunks;
* WMS federation (:mod:`repro.gridsim.federation`): several brokers,
  each owning a subset of sites and seeing the rest through a lagged
  information-system view (a broker-free grid is a one-broker
  federation);
* grid weather (:mod:`repro.gridsim.weather`): correlated multi-site
  outage storms, black-hole sites that instantly fail the traffic their
  excellent-looking queue attracts, and a service-side self-healing
  resubmission agent;
* a site health state machine (:mod:`repro.gridsim.health`) driving
  operator-style bans and probe re-admission off observed job outcomes,
  with health-aware (and therefore staleness-bound) broker masking;
* replay of recorded SWF/GWF workloads through the background lane
  (:mod:`repro.gridsim.replay`);
* opt-in end-to-end task tracing with latency decomposition and GWF
  export (:mod:`repro.gridsim.tracing`), backed by the per-grid
  counter/histogram/gauge registry (:mod:`repro.gridsim.registry`)
  every subsystem publishes into.

Fleets of strategy-running users per VO are driven by the companion
:mod:`repro.population` package.
"""

from repro.gridsim.chaos import (
    ChaosResult,
    ConservationReport,
    audit_conservation,
    chaos_grid_config,
    chaos_matrix,
    fault_schedule,
    run_chaos,
    standard_schedules,
)
from repro.gridsim.events import PooledTimer, Simulator
from repro.gridsim.fairshare import FairShareState, FairShareVectorComputingElement
from repro.gridsim.faults import FaultModel, SubmitFaultConfig
from repro.gridsim.federation import BrokerConfig
from repro.gridsim.grid import (
    GridConfig,
    GridSimulator,
    GridSnapshot,
    SiteConfig,
    configure_warm_cache,
    default_grid_config,
    federated_grid_config,
    warmed_grid,
    warmed_snapshot,
)
from repro.gridsim.health import (
    HealthConfig,
    HealthService,
    HealthState,
    SiteHealth,
)
from repro.gridsim.jobs import Job, JobState
from repro.gridsim.middleware import (
    CircuitBreaker,
    MiddlewareDomain,
    RetryPolicy,
)
from repro.gridsim.weather import (
    BlackHoleConfig,
    BrokerOutageConfig,
    ResubmissionAgent,
    ResubmitConfig,
    StormConfig,
    StormProcess,
    WeatherConfig,
)
from repro.gridsim.probes import ProbeExperiment
from repro.gridsim.registry import Counter, Histogram, MetricsRegistry
from repro.gridsim.replay import TraceReplayLoad, replay_arrays_from_trace
from repro.gridsim.tracing import (
    TaskBreakdown,
    TraceRecorder,
    breakdown_tables,
    decompose,
    export_gwf,
    read_trace,
    write_trace,
)
from repro.gridsim.wms import BatchedWorkloadManager, WorkloadManager
from repro.gridsim.client import (
    StrategyOutcome,
    TaskCore,
    launch_task,
    run_strategy_on_grid,
)

__all__ = [
    "Simulator",
    "PooledTimer",
    "FaultModel",
    "GridConfig",
    "SiteConfig",
    "GridSimulator",
    "GridSnapshot",
    "BrokerConfig",
    "BatchedWorkloadManager",
    "WorkloadManager",
    "FairShareState",
    "FairShareVectorComputingElement",
    "TraceReplayLoad",
    "replay_arrays_from_trace",
    "configure_warm_cache",
    "default_grid_config",
    "federated_grid_config",
    "warmed_grid",
    "warmed_snapshot",
    "Job",
    "JobState",
    "StormConfig",
    "StormProcess",
    "BlackHoleConfig",
    "BrokerOutageConfig",
    "WeatherConfig",
    "SubmitFaultConfig",
    "RetryPolicy",
    "CircuitBreaker",
    "MiddlewareDomain",
    "ChaosResult",
    "ConservationReport",
    "audit_conservation",
    "chaos_grid_config",
    "chaos_matrix",
    "fault_schedule",
    "run_chaos",
    "standard_schedules",
    "ResubmitConfig",
    "ResubmissionAgent",
    "HealthConfig",
    "HealthService",
    "HealthState",
    "SiteHealth",
    "ProbeExperiment",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "TaskBreakdown",
    "TraceRecorder",
    "breakdown_tables",
    "decompose",
    "export_gwf",
    "read_trace",
    "write_trace",
    "StrategyOutcome",
    "TaskCore",
    "launch_task",
    "run_strategy_on_grid",
]
