"""The three submission strategies modelled in the paper.

* :class:`MultipleSubmission` — §5: burst of ``b`` copies, cancel the rest
  when one runs, resubmit the whole burst at ``t∞``.
* :class:`SingleResubmission` — §4: cancel and resubmit at timeout ``t∞``;
  the ``b = 1`` burst, so a subclass of :class:`MultipleSubmission`.
* :class:`DelayedResubmission` — §6: staggered copies every ``t0`` with
  per-job cancellation at age ``t∞``, constraint ``t0 <= t∞ <= 2·t0``.

Module-level ``*_sweep`` and ``*_moments`` functions are the vectorised
computational core (expectations over all candidate timeouts at once),
one per law: the burst law, which is single resubmission at ``b = 1``,
and the delayed law.  The classes are the user-facing parameterised
strategies, and :func:`round_shape` is how the grid executors run them.
"""

from repro.core.strategies.base import Strategy, StrategyMoments
from repro.core.strategies.multiple import (
    MultipleSubmission,
    multiple_expectation_sweep,
    multiple_moments,
)
from repro.core.strategies.single import SingleResubmission
from repro.core.strategies.delayed import (
    DelayedResubmission,
    delayed_cost_bands,
    delayed_expectation_bands,
    delayed_expectation_surface,
    delayed_moments,
    delayed_survival,
    n_parallel_for_latency,
)

__all__ = [
    "Strategy",
    "StrategyMoments",
    "SingleResubmission",
    "MultipleSubmission",
    "multiple_expectation_sweep",
    "multiple_moments",
    "DelayedResubmission",
    "delayed_cost_bands",
    "delayed_expectation_bands",
    "delayed_expectation_surface",
    "delayed_moments",
    "delayed_survival",
    "n_parallel_for_latency",
    "round_shape",
]


def round_shape(strategy: Strategy) -> tuple[int, float, float]:
    """The ``(b, t0, t∞)`` round the grid executors run ``strategy`` as.

    A task submits ``b`` copies every ``t0``, each cancelled at age
    ``t∞``: multiple ``(b, t∞, t∞)`` (single resubmission is its
    ``b = 1`` subclass), delayed ``(1, t0, t∞)``.  The one place a
    strategy type maps to behaviour, for the grid executors and
    :func:`~repro.core.distribution_of_j.strategy_quantile` alike; any
    other strategy raises ``TypeError``.
    """
    if isinstance(strategy, MultipleSubmission):
        return strategy.b, float(strategy.t_inf), float(strategy.t_inf)
    if isinstance(strategy, DelayedResubmission):
        return 1, float(strategy.t0), float(strategy.t_inf)
    raise TypeError(
        f"strategy: unsupported strategy type {type(strategy).__name__} "
        "has no round shape (single, multiple or delayed)"
    )
