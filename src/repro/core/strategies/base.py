"""Common strategy interface and result container."""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.core.model import GriddedLatencyModel

__all__ = ["Strategy", "StrategyMoments"]


@dataclass(frozen=True)
class StrategyMoments:
    """First two moments of the total latency ``J`` under a strategy.

    Attributes
    ----------
    expectation:
        ``E_J`` — expected total latency including resubmissions (s).
    std:
        ``σ_J`` — standard deviation of the total latency (s).
    """

    expectation: float
    std: float


class Strategy(abc.ABC):
    """A parameterised client-side submission strategy.

    Concrete strategies are immutable parameter holders; all computation
    is delegated to the vectorised sweep functions so that optimisers and
    single-point evaluations share one code path.  Each one defines
    ``moments(model)`` (``E_J`` and ``σ_J`` as :class:`StrategyMoments`)
    and ``mean_parallel_jobs(model)``, the average number of identical
    jobs in the system (``N_//``): ``b`` for a burst (single resubmission
    is the ``b = 1`` burst and inherits both), and the §6.1 piecewise
    value at ``l = E_J`` for the delayed strategy.
    """

    #: short machine name, e.g. ``"single"``
    name: str = "strategy"

    def expectation(self, model: GriddedLatencyModel) -> float:
        """``E_J`` only (convenience)."""
        return self.moments(model).expectation

    def delta_cost(
        self, model: GriddedLatencyModel, single_reference: float
    ) -> float:
        """Eq. (6): ``Δcost = N_// · E_J / E_J(single resub., optimal)``.

        Parameters
        ----------
        model:
            Gridded latency model.
        single_reference:
            ``E_J`` of the optimal single-resubmission strategy on the
            same model (the denominator of Eq. 6).
        """
        if single_reference <= 0:
            raise ValueError(
                f"single_reference must be > 0, got {single_reference!r}"
            )
        return (
            self.mean_parallel_jobs(model)
            * self.expectation(model)
            / single_reference
        )

    @abc.abstractmethod
    def describe(self) -> str:
        """One-line human-readable description."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()
