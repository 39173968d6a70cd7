"""Columnar trace-set container and its summary statistics.

A :class:`TraceSet` stores probe observations column-wise (numpy arrays)
for fast statistics, exposes the Table-1 style summary quantities
(non-outlier mean, bounded mean, σ_R, outlier ratio) and converts to the
:class:`~repro.core.model.LatencyModel` consumed by the strategy machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.model import LatencyModel

__all__ = ["PROBE_TIMEOUT", "TraceSet"]

#: the paper's probe timeout: latencies beyond this are outliers (§3.2)
PROBE_TIMEOUT: float = 10_000.0


@dataclass
class TraceSet:
    """A named set of probe observations (one of the paper's trace sets).

    Paper §3.2: *"For each probe job, the job submission date, the job
    final status and the total duration were logged."*  The three arrays
    are exactly those columns, one entry per probe.  The status codes are
    0 (completed: the probe started), 1 (timeout: it exceeded the probe
    timeout and was cancelled) and 2 (fault: middleware error, aborted or
    lost).  Codes 1 and 2 are the outliers counted into ``ρ``; their
    latency is ``inf``.

    Parameters
    ----------
    name:
        Trace-set label, e.g. ``"2006-IX"`` or ``"2007-36"``.
    submit_times:
        Per-probe submission dates (s since trace start).
    latencies:
        Per-probe latency (s); ``inf`` for outliers.
    status_codes:
        Per-probe status code (0 completed / 1 timeout / 2 fault).
    timeout:
        Measurement timeout used for this trace (default: the paper's
        10,000 s).
    """

    name: str
    submit_times: np.ndarray
    latencies: np.ndarray
    status_codes: np.ndarray
    timeout: float = PROBE_TIMEOUT

    def __post_init__(self) -> None:
        self.submit_times = np.asarray(self.submit_times, dtype=np.float64)
        self.latencies = np.asarray(self.latencies, dtype=np.float64)
        self.status_codes = np.asarray(self.status_codes, dtype=np.int8)
        n = self.submit_times.size
        if not (self.latencies.size == n and self.status_codes.size == n):
            raise ValueError(
                f"column lengths differ: {n} submit times, "
                f"{self.latencies.size} latencies, {self.status_codes.size} statuses"
            )
        if n == 0:
            raise ValueError("trace set must contain at least one probe")
        if np.isnan(self.latencies).any():
            raise ValueError("latencies must not contain NaN (use inf)")
        completed = self.status_codes == 0
        if np.isinf(self.latencies[completed]).any():
            raise ValueError("completed probes must have finite latency")
        if np.isfinite(self.latencies[~completed]).any():
            raise ValueError("outlier probes must have latency == inf")
        if (self.latencies[completed] > self.timeout).any():
            raise ValueError(
                f"completed latencies must be <= timeout ({self.timeout})"
            )

    # -- construction ----------------------------------------------------

    @classmethod
    def merge(cls, name: str, parts: Iterable["TraceSet"]) -> "TraceSet":
        """Concatenate several trace sets (e.g. the 2007/08 aggregate)."""
        parts = list(parts)
        if not parts:
            raise ValueError("need at least one trace set to merge")
        timeout = parts[0].timeout
        if any(p.timeout != timeout for p in parts):
            raise ValueError("cannot merge trace sets with different timeouts")
        return cls(
            name=name,
            submit_times=np.concatenate([p.submit_times for p in parts]),
            latencies=np.concatenate([p.latencies for p in parts]),
            status_codes=np.concatenate([p.status_codes for p in parts]),
            timeout=timeout,
        )

    def __len__(self) -> int:
        return int(self.submit_times.size)

    # -- summary statistics (Table 1 machinery) --------------------------

    @property
    def n_outliers(self) -> int:
        """Number of probes that never started (timeout or fault)."""
        return int((self.status_codes != 0).sum())

    @property
    def outlier_ratio(self) -> float:
        """ρ — the fraction of outliers among all probes (§3)."""
        return self.n_outliers / len(self)

    @property
    def successful_latencies(self) -> np.ndarray:
        """Latencies of probes that started (the ``R`` samples)."""
        return self.latencies[self.status_codes == 0]

    def mean_latency(self) -> float:
        """Table 1 column ``mean < 10^5``: mean of non-outlier latencies."""
        return float(self.successful_latencies.mean())

    def bounded_mean_latency(self) -> float:
        """Table 1 column ``mean with 10^5``.

        Lower bound of the full-population mean obtained by counting each
        outlier as exactly one timeout duration.
        """
        lat = np.where(np.isfinite(self.latencies), self.latencies, self.timeout)
        return float(lat.mean())

    def std_latency(self) -> float:
        """Table 1 column ``σ_R``: std of non-outlier latencies."""
        return float(self.successful_latencies.std())

    # -- modeling ---------------------------------------------------------

    def to_latency_model(self, *, smooth: bool = True) -> LatencyModel:
        """Empirical :class:`LatencyModel` (ECDF + ρ) from this trace."""
        return LatencyModel.from_samples(
            self.successful_latencies,
            n_outliers=self.n_outliers,
            name=self.name,
            smooth=smooth,
        )

    def describe(self) -> str:
        """One-line summary."""
        return (
            f"{self.name}: {len(self)} probes, rho={self.outlier_ratio:.3f}, "
            f"mean={self.mean_latency():.0f}s, std={self.std_latency():.0f}s"
        )
