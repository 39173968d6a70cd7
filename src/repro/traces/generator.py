"""Nonstationary probe-stream generation.

The paper's measurement protocol (§3.2) keeps a *constant number of
probes* in the system: a new probe is submitted each time another one
completes.  This module reproduces that protocol against a latency law
that may vary over the campaign (diurnal load swings, transient
degradations), producing trace sets with realistic submission-time
structure for studies that go beyond the stationary Table-1 statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import LatencyModel
from repro.traces.dataset import PROBE_TIMEOUT, TraceSet
from repro.util.rng import RngLike, as_rng
from repro.util.validation import check_finite, check_in_range, check_positive

__all__ = ["DiurnalProfile", "generate_probe_trace"]


@dataclass(frozen=True)
class DiurnalProfile:
    """Multiplicative daily modulation of the latency scale.

    The latency of a probe submitted at time ``t`` is scaled by::

        m(t) = 1 + amplitude · sin(2π·(t - phase)/period)

    Attributes
    ----------
    amplitude:
        Relative swing in ``[0, 1)`` (0 disables modulation).
    period:
        Modulation period in seconds (default: one day).
    phase:
        Time of the rising zero-crossing (seconds).
    """

    amplitude: float = 0.0
    period: float = 86_400.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        check_in_range("amplitude", self.amplitude, 0.0, 1.0, inclusive=(True, False))
        check_positive("period", self.period)
        check_finite("phase", self.phase)

    def factor(self, t: np.ndarray | float) -> np.ndarray | float:
        """Latency multiplier at submission time ``t``."""
        t = np.asarray(t, dtype=np.float64)
        out = 1.0 + self.amplitude * np.sin(
            2.0 * np.pi * (t - self.phase) / self.period
        )
        return out if out.ndim else float(out)


def generate_probe_trace(
    model: LatencyModel,
    *,
    duration: float,
    n_slots: int,
    name: str = "synthetic",
    diurnal: DiurnalProfile | None = None,
    timeout: float = PROBE_TIMEOUT,
    rng: RngLike = None,
) -> TraceSet:
    """Run the constant-probe protocol against a latency model.

    ``n_slots`` probe slots are started at time 0; each slot resubmits a
    fresh probe as soon as the previous one completes (or is cancelled at
    ``timeout``), until ``duration`` is reached — exactly the §3.2
    protocol ("a new probe was submitted each time another one
    completed").

    Parameters
    ----------
    model:
        Latency law (outliers drawn with probability ``ρ``).
    duration:
        Campaign length in seconds.
    n_slots:
        Number of probes kept in flight.
    diurnal:
        Optional multiplicative modulation of latencies by submission
        time.
    timeout:
        Cancellation timeout for probes (outliers).
    rng:
        Seed or generator.

    Returns
    -------
    TraceSet
        All probes submitted during the campaign, in submission order.
    """
    check_positive("duration", duration)
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")
    check_positive("timeout", timeout)
    gen = as_rng(rng)

    submit_times: list[np.ndarray] = []
    latencies: list[np.ndarray] = []
    codes: list[np.ndarray] = []

    # each slot is an independent renewal process; vectorise over slots
    clock = np.zeros(n_slots)
    active = np.arange(n_slots)
    while active.size:
        lat = model.sample_latencies(active.size, gen)
        if diurnal is not None:
            lat = lat * np.asarray(diurnal.factor(clock[active]))
        is_outlier = ~np.isfinite(lat) | (lat >= timeout)
        observed = np.where(is_outlier, np.inf, lat)
        dwell = np.where(is_outlier, timeout, lat)

        submit_times.append(clock[active].copy())
        latencies.append(observed)
        codes.append(np.where(is_outlier, 1, 0).astype(np.int8))

        clock[active] += dwell
        active = active[clock[active] < duration]

    submit = np.concatenate(submit_times)
    order = np.argsort(submit, kind="stable")
    return TraceSet(
        name=name,
        submit_times=submit[order],
        latencies=np.concatenate(latencies)[order],
        status_codes=np.concatenate(codes)[order],
        timeout=timeout,
    )
