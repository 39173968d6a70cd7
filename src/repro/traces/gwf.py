"""Grid Workloads Archive (GWF) trace format.

The GWA distributes production-grid traces (including EGEE-era grids) in
the Grid Workload Format: one whitespace-separated record per line, 29
fields, ``#`` comments, ``-1`` for missing values (Iosup et al., *The
Grid Workloads Archive*, FGCS 2008).  The reproduction hint points at
these public traces as the natural real-data source, so trace sets
round-trip through this format: ``WaitTime`` carries the latency,
``Status`` the outlier flag.
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

__all__ = ["GWF_FIELDS", "gwf_record", "read_gwf", "read_gwf_workload", "write_gwf"]

#: the 29 GWF fields, in file order
GWF_FIELDS: tuple[str, ...] = (
    "JobID",
    "SubmitTime",
    "WaitTime",
    "RunTime",
    "NProcs",
    "AverageCPUTimeUsed",
    "UsedMemory",
    "ReqNProcs",
    "ReqTime",
    "ReqMemory",
    "Status",
    "UserID",
    "GroupID",
    "ExecutableID",
    "QueueID",
    "PartitionID",
    "OrigSiteID",
    "LastRunSiteID",
    "JobStructure",
    "JobStructureParams",
    "UsedNetwork",
    "UsedLocalDiskSpace",
    "UsedResources",
    "ReqPlatform",
    "ReqNetwork",
    "ReqLocalDiskSpace",
    "ReqResources",
    "VOID",
    "ProjectID",
)

_STATUS = GWF_FIELDS.index("Status")
_VOID = GWF_FIELDS.index("VOID")


def gwf_record(
    job_id: str, submit: str, wait: str, runtime: str, status: str, vo: str = "-1"
) -> str:
    """One GWF line: the fields repro writes, ``-1`` (missing) elsewhere.

    The arguments are the rendered JobID, SubmitTime, WaitTime, RunTime,
    Status and VOID fields; NProcs is always 1.
    """
    row = ["-1"] * len(GWF_FIELDS)
    row[0] = job_id
    row[1] = submit
    row[2] = wait
    row[3] = runtime
    row[4] = "1"
    row[_STATUS] = status
    row[_VOID] = vo
    return " ".join(row) + "\n"


def read_gwf(
    source: str | Path | TextIO,
    *,
    name: str | None = None,
    timeout: float = PROBE_TIMEOUT,
) -> TraceSet:
    """Parse a GWF trace into a :class:`TraceSet`.

    Jobs whose ``Status`` is not 1 (completed) or whose ``WaitTime`` is
    missing/negative are recorded as faults; completed jobs with
    ``WaitTime >= timeout`` are recorded as timeouts (the GWA keeps them,
    the paper's protocol cancels them — both are outliers for ρ).

    Parameters
    ----------
    source:
        Path or open text file.
    name:
        Trace-set name (default: file stem or ``"gwf"``).
    timeout:
        Outlier threshold applied to wait times.
    """
    return parse_latency_trace(
        source, comment="#", fmt="GWF", name=name, timeout=timeout
    )


def read_gwf_workload(
    source: str | Path | TextIO,
) -> tuple[np.ndarray, np.ndarray]:
    """Parse a GWF trace into replayable ``(arrivals, runtimes)`` arrays.

    The workload view (SubmitTime + RunTime) for the trace-replay bridge
    (:class:`~repro.gridsim.replay.TraceReplayLoad`); jobs with missing
    or non-positive runtimes are dropped, arrivals are sorted and
    rebased so the first lands at 0.
    """
    return parse_workload_arrays(source, comment="#", fmt="GWF")


def write_gwf(trace: TraceSet, target: str | Path | TextIO) -> None:
    """Write a :class:`TraceSet` as a GWF file.

    Latency goes to ``WaitTime``; outliers get ``Status = 0`` and
    ``WaitTime = -1``; unknown fields are ``-1`` per GWA convention.
    """
    with open_text(target, "w") as fh:
        fh.write(f"# GWF trace written by repro: {trace.name}\n")
        fh.write("# Fields: " + " ".join(GWF_FIELDS) + "\n")
        for i in range(len(trace)):
            ok = trace.status_codes[i] == 0
            # RunTime 0: probes are ~null /bin/hostname runs
            fh.write(
                gwf_record(
                    str(i),
                    f"{trace.submit_times[i]:.3f}",
                    f"{trace.latencies[i]:.3f}" if ok else "-1",
                    "0",
                    "1" if ok else "0",  # 1 = completed
                )
            )
