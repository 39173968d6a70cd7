"""The three submission strategies modelled in the paper.

* :class:`SingleResubmission` — §4: cancel and resubmit at timeout ``t∞``.
* :class:`MultipleSubmission` — §5: burst of ``b`` copies, cancel the rest
  when one runs, resubmit the whole burst at ``t∞``.
* :class:`DelayedResubmission` — §6: staggered copies every ``t0`` with
  per-job cancellation at age ``t∞``, constraint ``t0 <= t∞ <= 2·t0``.

Module-level ``*_sweep`` functions are the vectorised computational core
(expectations over all candidate timeouts at once); the classes are the
user-facing parameterised strategies, and :func:`round_shape` is how the
grid executors run them.
"""

from repro.core.strategies.base import Strategy, StrategyMoments
from repro.core.strategies.single import (
    SingleResubmission,
    single_expectation_sweep,
    single_moments,
)
from repro.core.strategies.multiple import (
    MultipleSubmission,
    multiple_expectation_sweep,
    multiple_moments,
)
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
    "single_expectation_sweep",
    "single_moments",
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
    ``t∞``: single ``(1, t∞, t∞)``, multiple ``(b, t∞, t∞)``, delayed
    ``(1, t0, t∞)``.  The one place a strategy type maps to executor
    behaviour; any other strategy raises ``TypeError``.
    """
    if isinstance(strategy, SingleResubmission):
        return 1, float(strategy.t_inf), float(strategy.t_inf)
    if isinstance(strategy, MultipleSubmission):
        return strategy.b, float(strategy.t_inf), float(strategy.t_inf)
    if isinstance(strategy, DelayedResubmission):
        return 1, float(strategy.t0), float(strategy.t_inf)
    raise TypeError(
        f"strategy: unsupported strategy type {type(strategy).__name__} "
        "has no round shape (single, multiple or delayed)"
    )
