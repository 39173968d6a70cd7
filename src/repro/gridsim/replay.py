"""Trace replay: real SWF/GWF workloads as the background stream.

The synthetic :class:`~repro.gridsim.background.BackgroundLoad` keeps a
site near a target utilisation with Poisson arrivals; this bridge
instead *replays* a recorded production workload — the Parallel
Workloads Archive (SWF) or Grid Workloads Archive (GWF) traces the
paper's related work mines — through the very same site intake: each
refill hands one chunk of replayed arrivals to ``site.feed_background``.
The production
:class:`~repro.gridsim.fairshare.FairShareVectorComputingElement`
resolves the chunk with zero events and zero Job objects per
replayed job; the event-driven test oracle turns each arrival into a
background :class:`~repro.gridsim.jobs.Job`, so the replay is
engine-equivalent and testable against the Lindley lane.

``tests/test_replay.py`` round-trips the bundled toy trace through
parse → replay → telemetry on both engines.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.gridsim.background import DEFAULT_CHUNK
from repro.gridsim.events import Simulator
from repro.traces.gwf import read_gwf_workload
from repro.traces.swf import read_swf_workload
from repro.util.validation import check_positive

__all__ = ["TraceReplayLoad", "replay_arrays_from_trace"]


def replay_arrays_from_trace(
    source: str | Path,
    fmt: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(arrivals, runtimes)`` of an SWF/GWF trace file, replay-ready.

    ``fmt`` is ``"swf"``, ``"gwf"`` or ``None`` to infer: first from the
    file extension, otherwise from the comment convention of the first
    non-blank line (``;`` opens SWF headers, ``#`` GWF ones; a bare data
    row parses identically either way, so SWF is assumed).
    """
    path = Path(source)
    if fmt is None:
        suffix = path.suffix.lower().lstrip(".")
        if suffix in ("swf", "gwf"):
            fmt = suffix
        else:
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    stripped = line.strip()
                    if stripped:
                        fmt = "gwf" if stripped.startswith("#") else "swf"
                        break
                else:
                    raise ValueError(f"{path}: empty trace file")
    if fmt == "swf":
        return read_swf_workload(path)
    if fmt == "gwf":
        return read_gwf_workload(path)
    raise ValueError(f"unknown trace format {fmt!r}; expected 'swf' or 'gwf'")


class TraceReplayLoad:
    """Replays a fixed (arrival, runtime) workload into one site.

    Drop-in alternative to
    :class:`~repro.gridsim.background.BackgroundLoad`: same ``start()``
    entry point, same chunked delivery (one refill event per
    ``chunk_size`` arrivals), but the stream is the recorded trace —
    shifted so its first arrival lands ``offset`` seconds after
    ``start()`` — instead of drawn randomness.  Time and runtime scaling
    let a trace recorded on a bigger machine be squeezed onto a small
    simulated site.

    Parameters
    ----------
    site:
        The computing element to feed (either engine, fair-share or
        plain).
    sim:
        The simulator driving the site.
    arrivals, runtimes:
        The workload (seconds); arrivals need not start at zero but must
        be sorted after the rebase.
    time_scale:
        Multiplier applied to inter-arrival times (0.5 = replay twice as
        fast).
    runtime_scale:
        Multiplier applied to runtimes.
    vo:
        Optional VO label for every replayed job (fair-share sites
        account the replay to that VO; plain sites ignore it).
    offset:
        Delay (s) between ``start()`` and the first arrival.
    """

    def __init__(
        self,
        site,
        sim: Simulator,
        arrivals: Sequence[float] | np.ndarray,
        runtimes: Sequence[float] | np.ndarray,
        *,
        time_scale: float = 1.0,
        runtime_scale: float = 1.0,
        vo: str = "",
        offset: float = 0.0,
        chunk_size: int = DEFAULT_CHUNK,
    ) -> None:
        arr = np.asarray(arrivals, dtype=np.float64)
        run = np.asarray(runtimes, dtype=np.float64)
        if arr.size == 0:
            raise ValueError("replay needs at least one arrival")
        if arr.shape != run.shape:
            raise ValueError(
                f"{arr.size} arrivals but {run.size} runtimes"
            )
        if (np.diff(arr) < 0.0).any():
            raise ValueError("arrivals must be sorted ascending")
        if (run <= 0.0).any():
            raise ValueError("runtimes must be > 0")
        check_positive("time_scale", time_scale)
        check_positive("runtime_scale", runtime_scale)
        if offset < 0.0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.site = site
        self.sim = sim
        self.vo = vo
        self.chunk_size = int(chunk_size)
        self._arr = (arr - arr[0]) * float(time_scale) + float(offset)
        self._run = run * float(runtime_scale)
        self._cursor = 0
        self._base = 0.0
        self._vo_idx = getattr(
            getattr(site, "fairshare", None), "index_of", lambda _n: 0
        )(vo)
        self._started = False

    @property
    def jobs_total(self) -> int:
        """Number of jobs the trace will replay."""
        return int(self._arr.size)

    @property
    def jobs_generated(self) -> int:
        """Replayed arrivals whose arrival time has passed.

        Counted against the replay's own stream (a site may carry a
        synthetic :class:`BackgroundLoad` besides the replay, so the
        site-level delivered counter would alias the two).
        """
        reached = self.sim.now - self._base
        return int(np.searchsorted(self._arr[: self._cursor], reached, side="right"))

    def start(self) -> None:
        """Begin the replay (call once); arrivals are rebased to now."""
        if self._started:
            raise RuntimeError("replay already started")
        self._started = True
        self._base = self.sim.now
        self._refill()

    def _refill(self) -> None:
        lo = self._cursor
        hi = min(lo + self.chunk_size, self._arr.size)
        times = (self._base + self._arr[lo:hi]).tolist()
        runtimes = self._run[lo:hi].tolist()
        self._cursor = hi
        vos = [self._vo_idx] * len(times) if self._vo_idx else None
        self.site.feed_background(times, runtimes, vos)
        if hi < self._arr.size:
            self.sim.schedule_at(times[-1], self._refill)
