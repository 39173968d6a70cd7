"""Labelled (x, y) series — the data form of every reproduced figure.

A paper figure is reproduced as a :class:`SeriesBundle`: named curves
sharing axis labels.  Bundles render as aligned text columns, which is
the form the committed figure artifacts take.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Series", "SeriesBundle"]


@dataclass(frozen=True)
class Series:
    """A single named curve.

    Attributes
    ----------
    label:
        Legend label (e.g. ``"b=3"`` or a dataset name).
    x, y:
        Coordinate arrays of equal length.
    """

    label: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError(
                f"series {self.label!r}: x{x.shape} and y{y.shape} must be "
                "equal-length 1-D arrays"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return int(self.x.size)

    def sample(self, n: int) -> "Series":
        """Evenly subsample to at most ``n`` points (keeps endpoints)."""
        if n <= 0:
            raise ValueError(f"n must be > 0, got {n}")
        if len(self) <= n:
            return self
        idx = np.unique(np.linspace(0, len(self) - 1, n).round().astype(int))
        return Series(self.label, self.x[idx], self.y[idx])


@dataclass
class SeriesBundle:
    """A set of curves sharing axes — the reproduction of one figure."""

    title: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)

    def add(self, series: Series) -> None:
        """Append a curve."""
        self.series.append(series)

    def __len__(self) -> int:
        return len(self.series)

    def render(self, points: int = 12) -> str:
        """Render all curves as aligned text columns (subsampled)."""
        lines = [f"{self.title}   [x={self.x_label}, y={self.y_label}]"]
        for s in self.series:
            sub = s.sample(points)
            pairs = ", ".join(f"({xi:g}, {yi:g})" for xi, yi in zip(sub.x, sub.y))
            lines.append(f"  {s.label}: {pairs}")
        return "\n".join(lines)
