"""Single resubmission strategy (paper §4, Eqs. 1–2).

The job is submitted; if it has not started after ``t∞`` seconds it is
cancelled and resubmitted, iterating until an attempt starts before its
timeout.  With per-attempt success probability ``p = F̃(t∞)``, the number
of failed attempts is geometric and the total latency is::

    J = K·t∞ + R_final ,   K ~ Geometric(p),  R_final ~ f̃ | R < t∞

which yields Eq. (1) for ``E_J`` and (after expanding ``E[J²]``) Eq. (2)
for ``σ_J``.  That is the burst law of §5 with ``b = 1``, so the strategy
is a one-copy :class:`~repro.core.strategies.multiple.MultipleSubmission`
and every formula is evaluated there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.strategies.multiple import MultipleSubmission

__all__ = ["SingleResubmission"]


@dataclass(frozen=True, repr=False)
class SingleResubmission(MultipleSubmission):
    """Cancel-and-resubmit at timeout ``t∞`` (paper §4): the ``b = 1`` burst.

    Parameters
    ----------
    t_inf:
        Timeout after which the pending job is cancelled and resubmitted
        (seconds).
    """

    b: int = field(default=1, init=False)
    name = "single"

    def describe(self) -> str:
        return f"single resubmission (t_inf={self.t_inf:g}s)"
