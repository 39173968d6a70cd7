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

from repro.traces._workload import parse_workload_arrays
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

#: GWF status code for a successfully completed job
_STATUS_COMPLETED = 1

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


def _open_for_read(path_or_file: str | Path | TextIO) -> tuple[TextIO, bool]:
    if isinstance(path_or_file, (str, Path)):
        return open(path_or_file, "r", encoding="utf-8"), True
    return path_or_file, False


def _open_for_write(path_or_file: str | Path | TextIO) -> tuple[TextIO, bool]:
    if isinstance(path_or_file, (str, Path)):
        return open(path_or_file, "w", encoding="utf-8"), True
    return path_or_file, False


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
    fh, should_close = _open_for_read(source)
    try:
        submit, lat, codes = [], [], []
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) < 11:
                raise ValueError(
                    f"GWF line {line_no}: expected >= 11 fields, got {len(parts)}"
                )
            try:
                submit_time = float(parts[1])
                wait_time = float(parts[2])
                status = int(float(parts[10]))
            except ValueError as exc:
                raise ValueError(f"GWF line {line_no}: malformed numeric field") from exc
            submit.append(max(submit_time, 0.0))
            if status != _STATUS_COMPLETED or wait_time < 0:
                lat.append(np.inf)
                codes.append(2)  # fault
            elif wait_time >= timeout:
                lat.append(np.inf)
                codes.append(1)  # timeout-class outlier
            else:
                lat.append(wait_time)
                codes.append(0)
        if not submit:
            raise ValueError("GWF source contains no job records")
        if name is None:
            name = Path(source).stem if isinstance(source, (str, Path)) else "gwf"
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
    fh, should_close = _open_for_write(target)
    try:
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
                    str(_STATUS_COMPLETED) if ok else "0",
                )
            )
    finally:
        if should_close:
            fh.close()
