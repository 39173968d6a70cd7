"""Process memory readings behind the population day's ``bytes/task``.

A population day's memory cost is what its task state adds on top of the
warmed grid: ``(peak RSS - RSS before the day) / tasks``.  The example
``examples/population_1m.py`` and ``repro population`` print it on their
``wall`` line, next to the peak.
"""

from __future__ import annotations

import resource
import sys

__all__ = ["bytes_per_task", "peak_rss_bytes", "rss_bytes"]


def rss_bytes() -> int:
    """This process's resident set size now.

    Read from ``/proc/self/statm`` where it exists (Linux).  Elsewhere the
    high-water mark so far stands in, which can only understate what a
    later peak adds.
    """
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return peak_rss_bytes()
    return pages * resource.getpagesize()


def peak_rss_bytes() -> int:
    """This process's resident-set high-water mark."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in bytes on macOS and in KiB on Linux
    return peak if sys.platform == "darwin" else peak * 1024


def bytes_per_task(rss_before: int, tasks: int) -> float:
    """``(peak RSS - rss_before) / tasks``; ``nan`` for zero tasks."""
    if tasks <= 0:
        return float("nan")
    return (peak_rss_bytes() - rss_before) / tasks
