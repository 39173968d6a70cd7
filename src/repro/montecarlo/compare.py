"""Agreement helpers between analytic values and Monte-Carlo estimates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["McSummary", "mc_summary", "agreement_zscore"]


@dataclass(frozen=True)
class McSummary:
    """Summary statistics of a Monte-Carlo sample.

    Attributes
    ----------
    mean, std:
        Sample mean and standard deviation.
    stderr:
        Standard error of the mean.
    n:
        Sample size.
    """

    mean: float
    std: float
    stderr: float
    n: int


def mc_summary(samples: np.ndarray) -> McSummary:
    """Summarise a 1-D Monte-Carlo sample."""
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size < 2:
        raise ValueError(f"need at least 2 samples, got {arr.size}")
    if not np.isfinite(arr).all():
        raise ValueError("samples must be finite")
    return McSummary(
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)),
        stderr=float(arr.std(ddof=1) / np.sqrt(arr.size)),
        n=int(arr.size),
    )


def agreement_zscore(analytic: float, samples: np.ndarray) -> float:
    """How many standard errors separate an analytic value from MC mean.

    Values below ~4 indicate agreement at the sample size used; the test
    suite uses this to validate every closed form against strategy replay.
    """
    s = mc_summary(samples)
    if s.stderr == 0.0:
        return 0.0 if np.isclose(analytic, s.mean) else float("inf")
    return abs(analytic - s.mean) / s.stderr
