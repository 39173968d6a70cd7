"""User-population workload driver for the multi-tenant grid.

The paper models one user against aggregate EGEE latency; production
grids multiplex *thousands* of users across VOs through several brokers.
This package instantiates that workload structure mechanistically on the
:mod:`repro.gridsim` substrate:

* :class:`FleetSpec` / :class:`PopulationSpec` describe fleets of
  paper-strategy users per VO (single / multiple / delayed mixes), their
  task volume, payloads, home brokers and a shared diurnal activity
  profile;
* :func:`run_population` executes every fleet concurrently on **one**
  grid, so cross-VO and cross-fleet load feedback — the effect the
  paper's §3.3 no-feedback assumption ignores — is captured, and
  returns per-fleet outcome statistics plus grid-side telemetry;
* :func:`adoption_population` builds the §8-style sweeps where a growing
  fraction of one VO adopts an aggressive strategy.

The ``multi-vo`` experiment (:mod:`repro.experiments.multi_vo`) and the
``repro federation`` / ``repro population`` CLIs drive these; at 10⁴
tasks a full sweep runs in seconds on the vectorised site engine, and
the struct-of-arrays pool (:mod:`repro.population.soa`) carries fleet
runs to the ``population-1m`` scale in one process.  The site-sharded
multi-process runtime lives apart, in :mod:`repro.population.shard`,
only for the benchmark workload that pins its law.
"""

from repro.population.spec import FleetSpec, PopulationSpec, adoption_population
from repro.population.driver import (
    FleetOutcome,
    PopulationResult,
    run_population,
)

__all__ = [
    "FleetSpec",
    "PopulationSpec",
    "FleetOutcome",
    "PopulationResult",
    "adoption_population",
    "run_population",
]
