"""A lightweight metrics registry every grid subsystem publishes into.

Before this module each layer kept its own telemetry: the middleware
domain a list of per-broker stat dicts, the weather report hand-summed
outage counters.  The registry replaces those parallel books with one namespace of
named instruments:

``Counter``
    a monotonically increasing integer updated in place on hot paths
    (``inc`` is one attribute add — no dict lookup, no allocation; the
    publishing subsystem holds the counter object directly).
``Histogram``
    fixed-bucket distribution (``observe`` bisects its edges — no
    per-event allocation).
gauges
    lazy reads registered as ``(obj, attribute)`` pairs or zero-arg
    bound methods, evaluated only when sampled.  Never lambdas:
    :class:`~repro.gridsim.grid.GridSnapshot` pickles the whole grid,
    and a registry full of closures would break the warm-cache fork
    path.

The registry itself stays out of the simulation laws — reading it never
schedules events or consumes randomness — so a traced or monitored run
is byte-identical to a bare one.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

__all__ = ["Counter", "Histogram", "MetricsRegistry"]


class Counter:
    """A named monotonic counter; subsystems hold it and ``inc`` in place."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Histogram:
    """Fixed-bucket histogram: ``len(edges) + 1`` counts plus running sums.

    ``counts[i]`` holds observations ``<= edges[i]`` (first matching
    edge); the trailing bucket is the overflow.  Edges are fixed at
    construction so observing allocates nothing.
    """

    __slots__ = ("name", "edges", "counts", "total", "sum")

    def __init__(self, name: str, edges: Sequence[float]) -> None:
        edges = tuple(float(e) for e in edges)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("histogram edges must be strictly increasing")
        self.name = name
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, x: float) -> None:
        # the first edge >= x; NaN compares false everywhere, so it goes
        # to the overflow bucket (bisection alone would file it first)
        edges = self.edges
        i = bisect_left(edges, x) if x == x else len(edges)
        self.counts[i] += 1
        self.total += 1
        self.sum += x

    def as_dict(self) -> dict:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.total}, sum={self.sum:.1f})"


class MetricsRegistry:
    """Named counters, histograms and gauges for one grid instance.

    ``counter``/``histogram`` are get-or-create so independent
    subsystems can share an instrument by name; ``register_gauge``
    records a lazy read (``(obj, attr)`` or a zero-arg bound method —
    both picklable, unlike a lambda).  ``value`` reads any instrument;
    ``snapshot`` materialises the whole namespace as plain data.
    """

    __slots__ = ("_counters", "_histograms", "_gauges")

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._gauges: dict[str, tuple] = {}

    # -- registration -------------------------------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, edges)
        return h

    def register_gauge(
        self, name: str, source: object, attr: str | None = None
    ) -> None:
        """Register a lazy read: ``getattr(source, attr)`` or ``source()``.

        With ``attr`` the gauge reads an attribute; without, ``source``
        must be a zero-arg callable (use bound methods, not lambdas —
        the grid, registry included, must stay picklable).
        """
        if attr is None and not callable(source):
            raise TypeError(f"gauge {name!r}: source must be callable or (obj, attr)")
        self._gauges[name] = (source, attr)

    # -- reads --------------------------------------------------------------

    def value(self, name: str):
        c = self._counters.get(name)
        if c is not None:
            return c.value
        g = self._gauges.get(name)
        if g is not None:
            source, attr = g
            return getattr(source, attr) if attr is not None else source()
        h = self._histograms.get(name)
        if h is not None:
            return h.as_dict()
        raise KeyError(f"no metric named {name!r}")

    def snapshot(self) -> dict:
        """Every instrument's current value as plain data."""
        out: dict = {name: c.value for name, c in self._counters.items()}
        for name, (source, attr) in self._gauges.items():
            out[name] = getattr(source, attr) if attr is not None else source()
        for name, h in self._histograms.items():
            out[name] = h.as_dict()
        return dict(sorted(out.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._histograms)} histograms)"
        )
