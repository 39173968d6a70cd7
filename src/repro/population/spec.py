"""Population specifications: who submits what, when, through which broker.

A :class:`PopulationSpec` is a declarative description of a grid's user
workload: fleets of users per VO, each fleet running one of the paper's
client strategies over a submission window, optionally modulated by a
shared :class:`~repro.traces.generator.DiurnalProfile` (users submit
when they are awake).  Launch instants are drawn by inverse-CDF sampling
of the modulated intensity — one block of uniforms per fleet — so a
population is fully reproducible given a seed and cheap to synthesise
even at 10⁴ tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.strategies import Strategy, round_shape
from repro.traces.generator import DiurnalProfile
from repro.util.validation import check_int_at_least, check_positive

__all__ = ["FleetSpec", "PopulationSpec", "adoption_population"]

#: resolution of the inverse-CDF grid for diurnal launch sampling
_CDF_GRID = 2048


@dataclass(frozen=True)
class FleetSpec:
    """One fleet: ``n_tasks`` tasks run under a strategy on behalf of a VO.

    Attributes
    ----------
    vo:
        VO label stamped on every submitted copy (fair-share sites
        account them to this VO).
    strategy:
        A paper strategy instance (single / multiple / delayed); anything
        without a :func:`~repro.core.strategies.round_shape` raises
        ``TypeError`` here, before any grid runs it.
    n_tasks:
        Tasks the fleet launches inside the population window.
    runtime:
        Payload runtime once a copy starts (s).
    broker:
        Home broker on federated grids — an index, a broker name, or
        ``None`` for the grid's default routing (round-robin).
    label:
        Display label (defaults to ``"<vo>/<strategy class>"``).
    """

    vo: str
    strategy: Strategy
    n_tasks: int
    runtime: float = 600.0
    broker: int | str | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if not self.vo:
            raise ValueError("fleet vo must be non-empty")
        round_shape(self.strategy)
        # zero is allowed: sweeps that carve adopters out of a VO's
        # volume can leave an empty fleet, which simply contributes
        # nothing (the driver returns empty outcome arrays for it)
        n_tasks = check_int_at_least("n_tasks", self.n_tasks, 0)
        object.__setattr__(self, "n_tasks", n_tasks)
        check_positive("runtime", self.runtime)
        if not self.label:
            object.__setattr__(
                self, "label", f"{self.vo}/{type(self.strategy).__name__}"
            )


@dataclass(frozen=True)
class PopulationSpec:
    """A full user population: fleets + their shared submission window.

    Attributes
    ----------
    fleets:
        The fleets submitting concurrently.
    window:
        Length (s) of the submission window all fleets spread their
        launches over.
    diurnal:
        Optional activity profile: launch intensity is modulated by
        ``1 + amplitude·sin(...)`` — users submit during their day.
    """

    fleets: tuple[FleetSpec, ...]
    window: float = 86_400.0
    diurnal: DiurnalProfile | None = None

    def __post_init__(self) -> None:
        # an empty fleet tuple is legal: run_population returns an
        # empty result without advancing the grid (degenerate sweeps)
        check_positive("window", self.window)

    @property
    def total_tasks(self) -> int:
        """Tasks across all fleets."""
        return sum(f.n_tasks for f in self.fleets)

    def launch_times(
        self, fleet: FleetSpec, rng: np.random.Generator
    ) -> np.ndarray:
        """Sorted launch instants for one fleet (relative to window start).

        Uniform order statistics over the window, warped through the
        inverse CDF of the diurnal intensity when a profile is set — the
        standard inhomogeneous-Poisson construction, vectorised.
        """
        u = np.sort(rng.random(fleet.n_tasks))
        if self.diurnal is None or self.diurnal.amplitude == 0.0:
            return u * self.window
        grid = np.linspace(0.0, self.window, _CDF_GRID + 1)
        intensity = np.asarray(self.diurnal.factor(grid), dtype=np.float64)
        cdf = np.concatenate(([0.0], np.cumsum((intensity[1:] + intensity[:-1]))))
        cdf /= cdf[-1]
        return np.interp(u, cdf, grid)


def adoption_population(
    *,
    vo_tasks: dict[str, int],
    strategies: dict[str, Strategy],
    adopter_vo: str,
    adopted: Strategy,
    adoption: float,
    window: float = 86_400.0,
    runtime: float = 600.0,
    diurnal: DiurnalProfile | None = None,
    brokers: dict[str, int | str] | None = None,
) -> PopulationSpec:
    """The §8-style sweep point: a fraction of one VO adopts a strategy.

    Every VO in ``vo_tasks`` runs its baseline strategy from
    ``strategies``; inside ``adopter_vo``, ``adoption`` of the tasks
    switch to ``adopted`` (the aggressive strategy whose fleet-level
    feedback the sweep measures).  Task totals per VO are preserved
    exactly — adopters are carved out of the VO's own volume.
    """
    if not 0.0 <= adoption <= 1.0:
        raise ValueError(f"adoption must be in [0, 1], got {adoption}")
    if adopter_vo not in vo_tasks:
        raise ValueError(f"adopter VO {adopter_vo!r} not in vo_tasks")
    fleets = []
    for vo, n in vo_tasks.items():
        broker = None if brokers is None else brokers.get(vo)
        baseline = strategies[vo]
        if vo == adopter_vo:
            n_adopt = int(round(n * adoption))
            if n - n_adopt >= 1:
                fleets.append(
                    FleetSpec(
                        vo, baseline, n - n_adopt, runtime=runtime, broker=broker
                    )
                )
            if n_adopt >= 1:
                fleets.append(
                    FleetSpec(
                        vo,
                        adopted,
                        n_adopt,
                        runtime=runtime,
                        broker=broker,
                        label=f"{vo}/adopters",
                    )
                )
        else:
            fleets.append(
                FleetSpec(vo, baseline, n, runtime=runtime, broker=broker)
            )
    return PopulationSpec(
        fleets=tuple(fleets), window=window, diurnal=diurnal
    )
