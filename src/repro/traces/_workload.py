"""Shared record parsing for the SWF and GWF trace formats.

Both archive formats put SubmitTime, WaitTime, RunTime and Status in
fields 1, 2, 3 and 10 of a whitespace-separated record and differ only
in their comment prefix, so the latency readers
(:func:`repro.traces.swf.read_swf`, :func:`repro.traces.gwf.read_gwf`)
and the replay-oriented readers (:func:`repro.traces.swf.read_swf_workload`,
:func:`repro.traces.gwf.read_gwf_workload`) delegate here.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from repro.traces.dataset import TraceSet

__all__ = ["open_text", "parse_latency_trace", "parse_workload_arrays"]

#: Status value of a job that ran (completed); anything else is a fault
_STATUS_COMPLETED = 1


@contextmanager
def open_text(source: str | Path | TextIO, mode: str = "r") -> Iterator[TextIO]:
    """A text handle on ``source``: a path is opened (UTF-8) and closed
    on exit, an open file is used as given and left open."""
    if isinstance(source, (str, Path)):
        with open(source, mode, encoding="utf-8") as fh:
            yield fh
    else:
        yield source


def _records(fh: TextIO, comment: str, fmt: str, min_fields: int):
    """``(line number, fields)`` of every non-blank, non-comment line."""
    for line_no, line in enumerate(fh, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(comment):
            continue
        parts = stripped.split()
        if len(parts) < min_fields:
            raise ValueError(
                f"{fmt} line {line_no}: expected >= {min_fields} fields, "
                f"got {len(parts)}"
            )
        yield line_no, parts


def parse_latency_trace(
    source: str | Path | TextIO,
    *,
    comment: str,
    fmt: str,
    name: str | None,
    timeout: float,
) -> TraceSet:
    """A :class:`TraceSet` (``WaitTime`` as latency) from an SWF/GWF-shaped
    record stream; ``name`` defaults to the file stem, else ``fmt.lower()``.
    """
    submit, lat, codes = [], [], []
    with open_text(source) as fh:
        for line_no, parts in _records(fh, comment, fmt, 11):
            try:
                submit_time = float(parts[1])
                wait_time = float(parts[2])
                status = int(float(parts[10]))
            except ValueError as exc:
                raise ValueError(
                    f"{fmt} line {line_no}: malformed numeric field"
                ) from exc
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
        raise ValueError(f"{fmt} source contains no job records")
    if name is None:
        name = Path(source).stem if isinstance(source, (str, Path)) else fmt.lower()
    base = min(submit)
    return TraceSet(
        name=name,
        submit_times=np.asarray(submit) - base,
        latencies=np.asarray(lat),
        status_codes=np.asarray(codes, dtype=np.int8),
        timeout=timeout,
    )


def parse_workload_arrays(
    source: str | Path | TextIO,
    *,
    comment: str,
    fmt: str,
) -> tuple[np.ndarray, np.ndarray]:
    """``(arrivals, runtimes)`` from an SWF/GWF-shaped record stream.

    Jobs with missing or non-positive runtimes are dropped (they held no
    core); arrivals are sorted and rebased so the first lands at 0.
    """
    submit, run = [], []
    with open_text(source) as fh:
        for line_no, parts in _records(fh, comment, fmt, 4):
            try:
                submit_time = float(parts[1])
                run_time = float(parts[3])
            except ValueError as exc:
                raise ValueError(
                    f"{fmt} line {line_no}: malformed numeric field"
                ) from exc
            if run_time <= 0.0:
                continue
            submit.append(max(submit_time, 0.0))
            run.append(run_time)
    if not submit:
        raise ValueError(f"{fmt} source contains no replayable job records")
    arrivals = np.asarray(submit, dtype=np.float64)
    runtimes = np.asarray(run, dtype=np.float64)
    order = np.argsort(arrivals, kind="stable")
    arrivals = arrivals[order]
    return arrivals - arrivals[0], runtimes[order]
