"""Job objects and their lifecycle states."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["Job", "JobState"]


class JobState(enum.Enum):
    """Lifecycle of a grid job in the simulator.

    The paper's latency is the span SUBMITTED → RUNNING; jobs that end in
    LOST or STUCK (cancelled by the client at its timeout) are outliers.
    """

    #: created, not yet handed to the WMS
    CREATED = "created"
    #: at the WMS (match-making in progress)
    MATCHING = "matching"
    #: in a computing element's batch queue
    QUEUED = "queued"
    #: executing on a worker node
    RUNNING = "running"
    #: finished execution
    COMPLETED = "completed"
    #: cancelled by the client (strategy timeout) before starting
    CANCELLED = "cancelled"
    #: swallowed by a middleware fault before reaching any queue
    LOST = "lost"
    #: sitting in a queue it will never leave (site misconfiguration)
    STUCK = "stuck"
    #: failed at the site (black-hole CE, worker-node death) — the job
    #: was accepted and "completed" as a failure without ever starting
    FAILED = "failed"


@dataclass(eq=False, slots=True)
class Job:
    """One grid job, with the timestamps the paper's probes log.

    Jobs compare (and hash) by identity: two jobs are never "the same
    job" because they carry equal timestamps, and identity semantics
    keep containment/removal checks O(1) per element instead of a
    nine-field value comparison.  Jobs carry no id: a site keys its
    running jobs by the job itself, and a trace numbers the jobs it
    records (:class:`~repro.gridsim.tracing.TraceRecorder`), so no
    number depends on how many jobs the process made before.

    Attributes
    ----------
    runtime:
        Execution duration once started (s).  Probes use ~0 (the paper's
        ``/bin/hostname`` payload) so that only latency is measured.
    submit_time / start_time / end_time:
        Lifecycle timestamps in virtual seconds (NaN until reached).
    queue_time:
        Instant the job entered its site's batch queue (NaN before
        dispatch).  The FIFO position of a client job among the
        vectorised background lane's pending arrivals is decided by this
        timestamp, so both site engines stamp it on enqueue.
    site:
        Name of the computing element the job was dispatched to.
    tag:
        Free-form owner tag (used by strategy executors to group copies).
    vo:
        Virtual organisation the job is accounted to.  Empty means "the
        site's default VO" — fair-share sites map it to their first
        configured VO, plain FIFO sites ignore it entirely.
    """

    runtime: float = 0.0
    state: JobState = JobState.CREATED
    submit_time: float = float("nan")
    start_time: float = float("nan")
    end_time: float = float("nan")
    queue_time: float = float("nan")
    site: str = ""
    tag: str = ""
    vo: str = ""
    #: at-least-once ghost: a copy that *landed* although the client saw
    #: its submission fail (lost ack).  Cleared when the client's
    #: sibling-cancel reconciles it (counted by the grid)
    duplicate: bool = field(default=False, repr=False, compare=False)
    #: completion Event while RUNNING (owned by the executing site)
    completion_event: object | None = field(default=None, repr=False, compare=False)
    #: client start watcher (set by GridSimulator.submit, cleared on
    #: delivery/cancel) — carried on the job so the start path does not
    #: pay a watcher-registry lookup per job
    on_start: object | None = field(default=None, repr=False, compare=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Job({self.state.value}, site={self.site or '-'})"
