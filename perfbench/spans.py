"""In-memory span recorder and the self-time arithmetic of the ledger.

A span is ``(name, start, end, parent, run)``: host ``perf_counter``
instants around one call, the index of the enclosing span (``-1`` at the
top) and the repetition it belongs to.  Spans live in flat ``array``
columns (28 bytes each), so a traced population day keeps a few hundred
thousand of them without disturbing the run it measures.

A span's *self time* is its duration minus the part of its interval that
its direct child spans cover.
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np

__all__ = ["SpanRecorder", "aggregate", "self_times"]


class SpanRecorder:
    """Records nested spans in flat columns.

    ``run`` is stamped on every span opened while it is set, so several
    repetitions can share one recorder and still be told apart.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.runs = array("i")
        self.run = 0
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        """Intern ``name`` and return its id."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records a span.

        This is the only way a span is recorded.  The body appends to
        pre-bound columns: wrapped entry points run up to a few hundred
        thousand times per repetition, and every call saved here is
        tracing overhead the parent span's self time would absorb.
        """
        nid = self.name_id(name)
        rec = self
        stack = self._stack
        push, pop = stack.append, stack.pop
        names, end = self.name, self.end
        add_name, add_parent = names.append, self.parent.append
        add_run, add_end, add_start = self.runs.append, end.append, self.start.append
        clock = perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_run(rec.run)
            add_end(0.0)
            push(idx)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                pop()

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__wrapped__ = fn
        return traced

    def save(self, path) -> None:
        """Write every span to ``path`` (numpy ``.npz``)."""
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=object),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.runs, dtype=np.int32),
        )


def self_times(start, end, parent) -> np.ndarray:
    """Self time of every span: duration minus its children's coverage.

    Children of a parent are the spans whose ``parent`` names it; each is
    clipped to its parent's interval.  Spans recorded by nested calls on
    one thread never overlap their siblings, so the covered time is the
    sum of the clipped children and a grandchild is never counted twice.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    kids = np.nonzero(parent >= 0)[0]
    p = parent[kids]
    covered = np.clip(
        np.minimum(end[kids], end[p]) - np.maximum(start[kids], start[p]),
        0.0,
        None,
    )
    return (end - start) - np.bincount(p, weights=covered, minlength=start.size)


def aggregate(rec: SpanRecorder) -> dict[int, dict[str, dict]]:
    """Per-repetition, per-name ``calls``, ``self_s`` and ``total_s``.

    Returns ``{run: {name: row}}``.  Inclusive totals count each span,
    so recursion under one name counts twice; self time never does.
    """
    start = np.asarray(rec.start, dtype=np.float64)
    end = np.asarray(rec.end, dtype=np.float64)
    name = np.asarray(rec.name, dtype=np.int64)
    runs = np.asarray(rec.runs, dtype=np.int64)
    selfs = self_times(start, end, rec.parent)
    k = len(rec.names)
    out: dict[int, dict[str, dict]] = {}
    for run in np.unique(runs).tolist():
        m = runs == run
        calls = np.bincount(name[m], minlength=k)
        own = np.bincount(name[m], weights=selfs[m], minlength=k)
        total = np.bincount(name[m], weights=(end - start)[m], minlength=k)
        out[run] = {
            rec.names[i]: {
                "calls": int(calls[i]),
                "self_s": float(own[i]),
                "total_s": float(total[i]),
            }
            for i in np.nonzero(calls)[0].tolist()
        }
    return out
