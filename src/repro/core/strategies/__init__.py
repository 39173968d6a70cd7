"""The three submission strategies modelled in the paper.

* :class:`SingleResubmission` — §4: cancel and resubmit at timeout ``t∞``.
* :class:`MultipleSubmission` — §5: burst of ``b`` copies, cancel the rest
  when one runs, resubmit the whole burst at ``t∞``.
* :class:`DelayedResubmission` — §6: staggered copies every ``t0`` with
  per-job cancellation at age ``t∞``, constraint ``t0 <= t∞ <= 2·t0``.

Module-level ``*_sweep`` functions are the vectorised computational core
(expectations over all candidate timeouts at once); the classes are the
user-facing parameterised strategies.
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
]
