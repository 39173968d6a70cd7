"""Standard Workload Format (SWF) support.

The Parallel Workloads Archive's SWF (Feitelson et al.) predates the GWF
and carries 18 fields per job with ``;`` header comments.  Cluster-level
waiting times from SWF traces are a common substitute latency source in
the workload-modeling literature the paper cites (Li/Groep/Walters,
Feitelson), so the pipeline accepts SWF as well.
"""

from __future__ import annotations

from pathlib import Path
from typing import TextIO

import numpy as np

from repro.traces._workload import (
    open_text,
    parse_latency_trace,
    parse_workload_arrays,
)
from repro.traces.dataset import PROBE_TIMEOUT, TraceSet

__all__ = ["SWF_FIELDS", "read_swf", "read_swf_workload", "write_swf"]

#: the 18 SWF fields, in file order
SWF_FIELDS: tuple[str, ...] = (
    "JobNumber",
    "SubmitTime",
    "WaitTime",
    "RunTime",
    "NAllocatedProcs",
    "AverageCPUTimeUsed",
    "UsedMemory",
    "ReqNProcs",
    "ReqTime",
    "ReqMemory",
    "Status",
    "UserID",
    "GroupID",
    "ExecutableNumber",
    "QueueNumber",
    "PartitionNumber",
    "PrecedingJobNumber",
    "ThinkTimeFromPrecedingJob",
)


def read_swf(
    source: str | Path | TextIO,
    *,
    name: str | None = None,
    timeout: float = PROBE_TIMEOUT,
) -> TraceSet:
    """Parse an SWF trace into a :class:`TraceSet` (WaitTime as latency).

    Status 1 (completed) with a non-negative WaitTime is a latency
    sample; any other status (0 failed, 5 cancelled, …) is a fault.
    """
    return parse_latency_trace(
        source, comment=";", fmt="SWF", name=name, timeout=timeout
    )


def read_swf_workload(
    source: str | Path | TextIO,
) -> tuple[np.ndarray, np.ndarray]:
    """Parse an SWF trace into replayable ``(arrivals, runtimes)`` arrays.

    This is the workload view (SubmitTime + RunTime) rather than the
    latency view of :func:`read_swf`: it feeds the trace-replay bridge
    (:class:`~repro.gridsim.replay.TraceReplayLoad`), which streams the
    recorded production jobs through the vectorised background lane.
    Jobs with missing or non-positive runtimes are dropped (they held no
    core); arrivals are sorted and rebased so the first lands at 0.
    """
    return parse_workload_arrays(source, comment=";", fmt="SWF")


def write_swf(trace: TraceSet, target: str | Path | TextIO) -> None:
    """Write a :class:`TraceSet` as an SWF file."""
    with open_text(target, "w") as fh:
        fh.write(f"; SWF trace written by repro: {trace.name}\n")
        fh.write("; Fields: " + " ".join(SWF_FIELDS) + "\n")
        for i in range(len(trace)):
            ok = trace.status_codes[i] == 0
            wait = f"{trace.latencies[i]:.3f}" if ok else "-1"
            status = "1" if ok else "0"
            row = [
                str(i + 1),
                f"{trace.submit_times[i]:.3f}",
                wait,
                "0",
                "1",
            ] + ["-1"] * 5 + [status] + ["-1"] * 7
            fh.write(" ".join(row) + "\n")
