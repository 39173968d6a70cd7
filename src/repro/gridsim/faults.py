"""Per-stage fault injection.

Paper §1 lists the fault sources observed on EGEE: network/connectivity,
local configuration, middleware version skew, data access, scheduling.
The simulator abstracts them into two outlier-producing channels at the
points where they bite:

* **lost submissions** — the job disappears between the UI and any queue
  (credential/connectivity failures); the client only learns via its own
  timeout;
* **stuck jobs** — the job reaches a mis-configured site and waits in a
  queue it will never leave (wall-clock misconfiguration, dead worker).

Both channels leave the job unstarted, which is exactly how the paper's
ρ is defined (never started before the probe timeout).

:class:`SubmitFaultConfig` adds the *submission-path* channel of the
middleware fault domain: the UI→WMS call itself errors with probability
``p_fail``, and — the at-least-once twist — a failed call may still have
landed (``p_landed``: the ack was lost, not the job).  A resilient
client that retries such a call mints a duplicate that runs, burns cost,
and must be reconciled by sibling-cancel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_probability

__all__ = ["FaultModel", "SubmitFaultConfig"]


@dataclass(frozen=True)
class FaultModel:
    """Bernoulli fault channels applied per job.

    Attributes
    ----------
    p_lost:
        Probability a submission is swallowed before reaching a queue.
    p_stuck:
        Probability a dispatched job lands in a queue it never leaves.
    """

    p_lost: float = 0.0
    p_stuck: float = 0.0

    def __post_init__(self) -> None:
        check_probability("p_lost", self.p_lost)
        check_probability("p_stuck", self.p_stuck)
        if self.p_lost + self.p_stuck >= 1.0:
            raise ValueError(
                f"p_lost + p_stuck must be < 1, got {self.p_lost + self.p_stuck}"
            )

    @property
    def rho(self) -> float:
        """Overall outlier probability injected by the fault channels.

        A job is an outlier if lost, or (not lost but) stuck:
        ``ρ = p_lost + (1-p_lost)·p_stuck``.  Queueing can add more
        outliers on top (jobs that simply never reach a core before the
        measurement timeout).
        """
        return self.p_lost + (1.0 - self.p_lost) * self.p_stuck


@dataclass(frozen=True)
class SubmitFaultConfig:
    """At-least-once fault channel on the UI→WMS submission call.

    Attributes
    ----------
    p_fail:
        Probability a submit attempt returns an error to the client
        (independent per attempt, drawn from the grid's dedicated chaos
        stream).
    p_landed:
        Conditional probability that a *failed* attempt actually landed
        at the broker — the error ate the acknowledgement, not the job.
        The landed copy runs as a duplicate the instant the client
        retries; ``0`` makes every failure a clean failure.
    """

    p_fail: float = 0.0
    p_landed: float = 0.0

    def __post_init__(self) -> None:
        check_probability("p_fail", self.p_fail)
        check_probability("p_landed", self.p_landed)
