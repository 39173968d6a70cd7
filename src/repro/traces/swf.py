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

from repro.traces._workload import parse_workload_arrays
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

#: SWF status codes that indicate the job actually ran
_RAN_STATUSES = {1}  # 1 = completed; 0 = failed, 5 = cancelled


def read_swf(
    source: str | Path | TextIO,
    *,
    name: str | None = None,
    timeout: float = PROBE_TIMEOUT,
) -> TraceSet:
    """Parse an SWF trace into a :class:`TraceSet` (WaitTime as latency)."""
    should_close = isinstance(source, (str, Path))
    fh: TextIO = open(source, "r", encoding="utf-8") if should_close else source
    try:
        submit, lat, codes = [], [], []
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(";"):
                continue
            parts = stripped.split()
            if len(parts) < 11:
                raise ValueError(
                    f"SWF line {line_no}: expected >= 11 fields, got {len(parts)}"
                )
            try:
                submit_time = float(parts[1])
                wait_time = float(parts[2])
                status = int(float(parts[10]))
            except ValueError as exc:
                raise ValueError(f"SWF line {line_no}: malformed numeric field") from exc
            submit.append(max(submit_time, 0.0))
            if status not in _RAN_STATUSES or wait_time < 0:
                lat.append(np.inf)
                codes.append(2)
            elif wait_time >= timeout:
                lat.append(np.inf)
                codes.append(1)
            else:
                lat.append(wait_time)
                codes.append(0)
        if not submit:
            raise ValueError("SWF source contains no job records")
        if name is None:
            name = Path(source).stem if isinstance(source, (str, Path)) else "swf"
        base = min(submit)
        return TraceSet(
            name=name,
            submit_times=np.asarray(submit) - base,
            latencies=np.asarray(lat),
            status_codes=np.asarray(codes, dtype=np.int8),
            timeout=timeout,
        )
    finally:
        if should_close:
            fh.close()


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
    should_close = isinstance(target, (str, Path))
    fh: TextIO = open(target, "w", encoding="utf-8") if should_close else target
    try:
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
    finally:
        if should_close:
            fh.close()
