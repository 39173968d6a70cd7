"""Process memory readings behind the population day's ``bytes/task``.

A population day's memory cost is what its task state adds on top of the
warmed grid: ``(peak RSS - RSS before the day) / tasks``.
``repro population`` prints it on its ``wall`` line, next to the peak,
for a day of at least :data:`MIN_TASKS_FOR_BYTES` tasks.

Both readings come from one kernel counter pair, ``VmRSS`` and ``VmHWM``
of ``/proc/self/status``, so the peak is never below the current
reading.  (``ru_maxrss`` is kept by a different counter and read tens of
KB below ``/proc/self/statm`` in one process.)  Where ``/proc`` is
absent, ``getrusage``'s high-water mark stands in for both.
"""

from __future__ import annotations

import resource
import sys

__all__ = [
    "MIN_TASKS_FOR_BYTES",
    "bytes_per_task",
    "memory_summary",
    "peak_rss_bytes",
    "rss_bytes",
]

#: smallest day whose ``bytes/task`` is printed: below it, page-granular
#: RSS movements of the interpreter dominate the per-task figure
MIN_TASKS_FOR_BYTES = 100_000


def _status_bytes(field: str) -> int | None:
    """A ``kB`` field of ``/proc/self/status`` in bytes; ``None`` without it."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _rusage_peak_bytes() -> int:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in bytes on macOS and in KiB on Linux
    return peak if sys.platform == "darwin" else peak * 1024


def rss_bytes() -> int:
    """This process's resident set size now (``VmRSS``).

    Without ``/proc`` the high-water mark so far stands in, which can only
    understate what a later peak adds.
    """
    now = _status_bytes("VmRSS:")
    return _rusage_peak_bytes() if now is None else now


def peak_rss_bytes() -> int:
    """This process's resident-set high-water mark (``VmHWM``)."""
    peak = _status_bytes("VmHWM:")
    return _rusage_peak_bytes() if peak is None else peak


def bytes_per_task(rss_before: int, tasks: int) -> float:
    """``(peak RSS - rss_before) / tasks``; ``nan`` for zero tasks."""
    if tasks <= 0:
        return float("nan")
    return (peak_rss_bytes() - rss_before) / tasks


def memory_summary(rss_before: int, tasks: int) -> str:
    """``peak RSS N MB``, then ``, M bytes/task`` for a day of
    :data:`MIN_TASKS_FOR_BYTES` tasks or more."""
    text = f"peak RSS {peak_rss_bytes() / 2**20:.0f} MB"
    if tasks >= MIN_TASKS_FOR_BYTES:
        text += f", {bytes_per_task(rss_before, tasks):.0f} bytes/task"
    return text
