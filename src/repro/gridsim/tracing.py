"""End-to-end task tracing: lifecycle spans, decomposition, exporters.

The paper's whole subject is where grid latency comes from — queueing,
middleware overhead, faults — but scalar end-states cannot answer
"which layer ate this task's 2000 s".  This module records a typed
event per lifecycle transition of every *client* task (background load
and untracked jobs are filtered at the door) and turns the stream into
latency decompositions and exportable traces.

Events are plain tuples ``(kind, t, task_id, job_id, aux)`` with
virtual timestamps:

========== =============================================================
kind        meaning (``aux``)
========== =============================================================
task        task launched (``(label, vo, runtime)``)
submit      a job copy handed to the grid (client attempt)
hop         job routed through a broker (``(broker, staleness)`` — the
            age in seconds of the load view the broker would rank on)
enqueue     job accepted into a site queue (``site``)
start       job began executing (``site``)
complete    task settled: its winning job started (``job_id`` = winner)
cancel      job cancelled (sibling reconciliation or task settle)
fail        job died (``reason``: ``lost`` / ``stuck`` / ``failed``)
retry       client retry armed (``(attempt, delay)``)
rescue      service-side resubmission agent re-submitted the task
dup         lost-ack ghost: the landed copy now runs as a duplicate
expire      task gave up without any job starting
========== =============================================================

Recording is opt-in (``GridConfig.tracing``) and zero-cost when off:
every hook sits behind a ``_tr is None`` fast path mirroring the
``_mw is None`` middleware idiom, and the recorder itself consumes no
randomness — a traced run replays the untraced one byte-for-byte.

On top of the stream, :func:`decompose` splits each completed task's
makespan into retry-loss / middleware / queue-wait components (they
telescope: the three sum to the start latency J), ``breakdown_tables``
renders per-strategy and per-VO summaries, and :func:`export_gwf`
writes completed tasks in the Grid Workloads Format that
``repro.traces.gwf`` parses — the substrate for trace-driven
calibration.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterable, NamedTuple, Sequence

from repro.util.tables import Table, format_seconds

__all__ = [
    "TaskBreakdown",
    "TraceRecorder",
    "breakdown_tables",
    "decompose",
    "export_gwf",
    "read_trace",
    "write_trace",
]

#: fixed bucket edges (seconds) for the registry's task-latency histogram
LATENCY_EDGES = (
    60.0,
    120.0,
    300.0,
    600.0,
    1200.0,
    3000.0,
    6000.0,
    12000.0,
    30000.0,
    86400.0,
)


class TraceRecorder:
    """Append-only event log for client-task lifecycles.

    Jobs are mapped to tasks at submission (``submit`` / ``adopt``);
    every other hook drops jobs it has never seen, which is how
    background load and raw test submissions stay out of the trace
    without the hot paths asking "is this a client job?".
    """

    __slots__ = ("sim", "events", "_task_of", "_next_task", "_latency_hist")

    def __init__(self, sim, metrics=None) -> None:
        self.sim = sim
        self.events: list[tuple] = []
        self._task_of: dict[int, int] = {}
        self._next_task = 0
        self._latency_hist = (
            metrics.histogram("trace.task_latency", LATENCY_EDGES)
            if metrics is not None
            else None
        )

    # -- task-level hooks ---------------------------------------------------

    def task_created(self, task) -> int:
        """Assign the next task id and record the launch event."""
        tid = self._next_task
        self._next_task = tid + 1
        self.events.append(
            ("task", self.sim._now, tid, -1, (task.trace_label, task.vo, task.runtime))
        )
        return tid

    def complete(self, task, winner) -> None:
        now = self.sim._now
        jid = winner.job_id if winner is not None else -1
        self.events.append(("complete", now, task.task_id, jid, None))
        h = self._latency_hist
        if h is not None:
            h.observe(now - task.t_start)

    def expire(self, task) -> None:
        self.events.append(("expire", self.sim._now, task.task_id, -1, None))

    def rescue(self, task) -> None:
        self.events.append(("rescue", self.sim._now, task.task_id, -1, None))

    # -- job-level hooks ----------------------------------------------------

    def adopt(self, task, job) -> None:
        """Map a job minted outside ``submit`` (lost-ack ghost sibling)."""
        self._task_of[job.job_id] = task.task_id

    def submit(self, task, job) -> None:
        tid = task.task_id
        self._task_of[job.job_id] = tid
        self.events.append(("submit", self.sim._now, tid, job.job_id, None))

    def hop(self, job, broker) -> None:
        tid = self._task_of.get(job.job_id)
        if tid is None:
            return
        self.events.append(
            (
                "hop",
                self.sim._now,
                tid,
                job.job_id,
                (broker.name, broker.snapshot_staleness()),
            )
        )

    def enqueue(self, job) -> None:
        tid = self._task_of.get(job.job_id)
        if tid is None:
            return
        self.events.append(("enqueue", self.sim._now, tid, job.job_id, job.site))

    def start(self, job) -> None:
        tid = self._task_of.get(job.job_id)
        if tid is None:
            return
        self.events.append(("start", self.sim._now, tid, job.job_id, job.site))

    def cancel(self, job) -> None:
        tid = self._task_of.get(job.job_id)
        if tid is None:
            return
        self.events.append(("cancel", self.sim._now, tid, job.job_id, None))

    def fail(self, job, reason: str) -> None:
        tid = self._task_of.get(job.job_id)
        if tid is None:
            return
        self.events.append(("fail", self.sim._now, tid, job.job_id, reason))

    def retry(self, job, attempt: int, delay: float) -> None:
        tid = self._task_of.get(job.job_id)
        if tid is None:
            return
        self.events.append(
            ("retry", self.sim._now, tid, job.job_id, (attempt, delay))
        )

    def dup(self, job) -> None:
        tid = self._task_of.get(job.job_id)
        if tid is None:
            return
        self.events.append(("dup", self.sim._now, tid, job.job_id, None))

    def dup_reconciled(self, job) -> None:
        tid = self._task_of.get(job.job_id)
        if tid is None:
            return
        self.events.append(("dup-reconciled", self.sim._now, tid, job.job_id, None))

    def __len__(self) -> int:
        return len(self.events)


# -- JSONL serialisation ----------------------------------------------------

#: per-kind names of the fields packed into the event's ``aux`` slot
_AUX_FIELDS = {
    "task": ("label", "vo", "runtime"),
    "hop": ("broker", "staleness"),
    "enqueue": ("site",),
    "start": ("site",),
    "fail": ("reason",),
    "retry": ("attempt", "delay"),
}


def write_trace(events: Iterable[tuple], target: str | Path | IO[str]) -> None:
    """Write events as JSON Lines (one ``{"kind", "t", "task", "job", ...}``
    object per line; ``aux`` fields unpacked under their per-kind names)."""

    def _write(fh: IO[str]) -> None:
        for kind, t, tid, jid, aux in events:
            rec = {"kind": kind, "t": t, "task": tid, "job": jid}
            fields = _AUX_FIELDS.get(kind)
            if fields is not None:
                vals = aux if isinstance(aux, tuple) else (aux,)
                rec.update(zip(fields, vals))
            fh.write(json.dumps(rec) + "\n")

    if hasattr(target, "write"):
        _write(target)  # type: ignore[arg-type]
    else:
        with open(target, "w", encoding="utf-8") as fh:
            _write(fh)


def read_trace(source: str | Path | IO[str]) -> list[tuple]:
    """Parse a JSONL trace back into the tuple-event form the recorder
    produces (exact round-trip of :func:`write_trace`)."""

    def _read(fh: IO[str]) -> list[tuple]:
        events: list[tuple] = []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rec = json.loads(line)
            kind = rec["kind"]
            fields = _AUX_FIELDS.get(kind)
            aux = None
            if fields is not None:
                vals = tuple(rec[f] for f in fields)
                aux = vals if len(vals) > 1 else vals[0]
            events.append((kind, rec["t"], rec["task"], rec["job"], aux))
        return events

    if hasattr(source, "read"):
        return _read(source)  # type: ignore[arg-type]
    with open(source, "r", encoding="utf-8") as fh:
        return _read(fh)


# -- latency decomposition --------------------------------------------------


class TaskBreakdown(NamedTuple):
    """Where one completed task's start latency J went.

    The three waiting components telescope along the *winning* job's
    span: ``retry_loss + middleware + queue_wait == makespan`` (J, the
    launch→start latency the paper studies).  ``execution`` is the
    payload runtime that follows the start.

    A named tuple: immutable, read by field name, and built in one C
    call — :func:`decompose` makes one per completed task, 25 000 on a
    traced population day.
    """

    task_id: int
    label: str
    vo: str
    runtime: float
    t_launch: float
    #: launch → the winner's (last) submission: time burned on copies
    #: that were lost, stuck, failed or abandoned before the winner
    retry_loss: float
    #: submission → site queue: broker matching, hops, outage backoff
    middleware: float
    #: site queue → start: waiting behind the background load
    queue_wait: float
    #: launch → winner start: the paper's latency J
    makespan: float

    @property
    def execution(self) -> float:
        return self.runtime

    @property
    def turnaround(self) -> float:
        """Launch → payload completion (J + runtime)."""
        return self.makespan + self.runtime


def decompose(events: Sequence[tuple]) -> list[TaskBreakdown]:
    """Split every completed task's makespan into waiting components.

    The winner is named by the ``complete`` event; its last ``submit``
    (client retries re-stamp submission), ``enqueue`` and ``start``
    timestamps cut J into retry-loss / middleware / queue-wait.  A
    missing stamp falls back along the span (submit → launch, enqueue →
    submit, start → completion); so do all three for a winner without a
    job id.  One pass over the events, then one over the completed
    tasks in id order.  A trace cut short before a completed task's
    ``task`` event (a tail of a recording) raises ``ValueError``.
    """
    tasks: dict[int, tuple] = {}
    complete: dict[int, tuple] = {}
    # one jid -> t map per stamped kind; last write wins: a retried
    # job's fresh submit supersedes
    submit: dict[int, float] = {}
    enqueue: dict[int, float] = {}
    start: dict[int, float] = {}
    for kind, t, tid, jid, aux in events:
        if kind == "submit":
            submit[jid] = t
        elif kind == "enqueue":
            enqueue[jid] = t
        elif kind == "start":
            start[jid] = t
        elif kind == "task":
            tasks[tid] = (t, aux)
        elif kind == "complete":
            complete[tid] = (t, jid)
    new = tuple.__new__
    out = []
    append = out.append
    for tid in sorted(complete):
        t_done, winner = complete[tid]
        try:
            t0, (label, vo, runtime) = tasks[tid]
        except KeyError:
            raise ValueError(
                f"trace is incomplete: task {tid} completes but its "
                "'task' event is missing"
            ) from None
        if winner < 0:
            # stamps without a job id match no winner
            t_submit = t_enqueue = t0
            t_start = t_done
        else:
            t_submit = submit.get(winner, t0)
            t_enqueue = enqueue.get(winner, t_submit)
            t_start = start.get(winner, t_done)
        append(
            new(
                TaskBreakdown,
                (
                    tid,
                    label,
                    vo,
                    runtime,
                    t0,
                    t_submit - t0,
                    t_enqueue - t_submit,
                    t_start - t_enqueue,
                    t_done - t0,
                ),
            )
        )
    return out


def _breakdown_table(title: str, key_name: str, groups: dict) -> Table:
    table = Table(
        title,
        [key_name, "tasks", "retry loss", "middleware", "queue wait", "execution", "mean J"],
    )
    for key in sorted(groups):
        recs = groups[key]
        n = len(recs)
        table.add_row(
            key,
            str(n),
            format_seconds(sum(r.retry_loss for r in recs) / n),
            format_seconds(sum(r.middleware for r in recs) / n),
            format_seconds(sum(r.queue_wait for r in recs) / n),
            format_seconds(sum(r.runtime for r in recs) / n),
            format_seconds(sum(r.makespan for r in recs) / n),
        )
    return table


def breakdown_tables(records: Sequence[TaskBreakdown]) -> tuple[Table, Table]:
    """Per-strategy and per-VO mean-decomposition tables."""
    by_label: dict[str, list] = {}
    by_vo: dict[str, list] = {}
    for r in records:
        by_label.setdefault(r.label, []).append(r)
        by_vo.setdefault(r.vo or "(none)", []).append(r)
    return (
        _breakdown_table("Latency decomposition by strategy", "strategy", by_label),
        _breakdown_table("Latency decomposition by VO", "vo", by_vo),
    )


# -- GWF export -------------------------------------------------------------

_GWF_N_FIELDS = 29
_GWF_STATUS_COMPLETED = "1"


def export_gwf(
    events: Sequence[tuple], target: str | Path | IO[str]
) -> int:
    """Write the completed tasks as a Grid Workloads Format trace.

    One row per completed task: JobID = task id, SubmitTime = launch,
    WaitTime = makespan (J), RunTime = payload runtime, NProcs = 1,
    Status = completed, VOID = the task's VO; every other field is the
    GWF missing marker ``-1``.  The output parses through
    ``repro.traces.gwf.read_gwf`` and — because client runtimes are
    positive — survives ``read_gwf_workload``'s non-positive-runtime
    filter, closing the simulate→export→calibrate loop.

    Returns the number of rows written.
    """
    records = decompose(events)

    def _write(fh: IO[str]) -> int:
        fh.write("# generated by repro.gridsim.tracing.export_gwf\n")
        fh.write(
            "# fields: JobID SubmitTime WaitTime RunTime NProcs ... "
            "Status(10) ... VOID(27)\n"
        )
        for r in records:
            row = (
                [
                    str(r.task_id),
                    f"{r.t_launch:.3f}",
                    f"{r.makespan:.3f}",
                    f"{r.runtime:.3f}",
                    "1",
                ]
                + ["-1"] * 5
                + [_GWF_STATUS_COMPLETED]
                + ["-1"] * 16
                + [r.vo if r.vo else "-1", "-1"]
            )
            assert len(row) == _GWF_N_FIELDS
            fh.write(" ".join(row) + "\n")
        return len(records)

    if hasattr(target, "write"):
        return _write(target)  # type: ignore[arg-type]
    with open(target, "w", encoding="utf-8") as fh:
        return _write(fh)
