"""Metric catalogue and the reduction of repetitions to reported values.

End-to-end metrics come from untraced repetitions only; per-layer
metrics from traced ones.  Every reported value is the median over the
repetitions of one run.  End-to-end times are wall times scaled by the
host speed around their repetition; the per-layer ``host.*`` rows give
the unscaled wall times and the speed.
"""

from __future__ import annotations

import resource
import statistics

from perfbench.layers import EVENT_LAYERS
from perfbench.workloads import PAPER_ARTIFACTS

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "end_to_end",
    "fail_frac",
    "per_layer",
    "peak_rss_mb",
]

#: name -> (unit, better)
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "tasks_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: spans reported as ``<name>.calls`` and ``<name>.self_s``
_SPAN_ROWS = (
    "grid.submit",
    "grid.submit_many",
    "grid.cancel_many",
    "wms.submit",
    "wms.submit_many",
    "fairshare.enqueue",
    "fairshare.enqueue_many",
    "fairshare.cancel",
    "fairshare.cancel_many",
    "background.feed_background",
    "client.launch_task",
    "middleware.submit",
    "distributions.fit",
    "core.surface",
    "core.optimize",
    "montecarlo.simulate",
) + tuple(f"{layer}.event" for layer in EVENT_LAYERS)

#: per-repetition work counters taken as they are
_WORK_ROWS = {
    "events.processed": "count",
    "events.compactions": "count",
    "background.jobs_generated": "count",
    "site.jobs_started": "count",
    "site.background_delivered": "count",
    "wms.dispatches": "count",
    "grid.jobs_submitted": "count",
    "middleware.attempts": "count",
    "middleware.failovers": "count",
    "middleware.duplicates": "count",
    "weather.storms": "count",
    "weather.jobs_killed": "count",
    "health.bans": "count",
    "resubmit.rescues": "count",
    "tracing.events": "count",
    "tracing.decompose_s": "s",
    "j.retry_loss_mean_s": "s",
    "j.middleware_mean_s": "s",
    "j.queue_wait_mean_s": "s",
    "chaos.audit_s": "s",
    "chaos.violations": "count",
    "shard.parent_cpu_s": "s",
    "shard.children_cpu_s": "s",
    "shard.cpu_util": "ratio",
    **{f"experiments.{eid}_s": "s" for eid in PAPER_ARTIFACTS},
}

#: fair-share spans whose self time is the fair-share layer's busy time
_FAIRSHARE_SPANS = (
    "fairshare.enqueue",
    "fairshare.enqueue_many",
    "fairshare.cancel",
    "fairshare.cancel_many",
    "fairshare.event",
)


def _catalogue() -> dict[str, str]:
    rows: dict[str, str] = {
        "phase.warm_s": "s",
        "phase.restore_s": "s",
        "phase.launch_s": "s",
        "phase.simulate_s": "s",
        "phase.readout_s": "s",
        "events.self_s": "s",
    }
    for name in _SPAN_ROWS:
        rows[f"{name}.calls"] = "count"
        rows[f"{name}.self_s"] = "s"
    rows.update(_WORK_ROWS)
    rows.update(
        {
            "fairshare.us_per_start": "us",
            "wms.useful_ratio": "ratio",
            "middleware.useful_ratio": "ratio",
            "soa.settle.calls": "count",
            "soa.readout_s": "s",
            "traces.synthesize_s": "s",
            "task_j_p50_s": "s",
            "task_j_p99_s": "s",
            "jobs_per_task": "jobs",
            "fail_frac": "ratio",
            "trace.overhead_frac": "ratio",
            "host.speed": "ratio",
            "host.setup_wall_s": "s",
            "host.run_wall_s": "s",
        }
    )
    return rows


#: per-layer metric name -> unit
PER_LAYER: dict[str, str] = _catalogue()


def _median(values) -> float:
    return float(statistics.median(list(values)))


def peak_rss_mb(children: int = 0) -> float:
    """Resident-set high-water mark of this process, plus ``children``
    times the largest child's (forked workers run concurrently)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children * child) / 1024.0


def fail_frac(reps) -> float:
    """Failed operations over attempted ones, across repetitions."""
    attempted = sum(r.attempted for r in reps)
    return sum(r.failed for r in reps) / attempted if attempted else 0.0


def end_to_end(reps, rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics of untraced repetitions."""
    return {
        "setup_s": _median(r.setup_s * r.speed for r in reps),
        "run_s": _median(r.run_s * r.speed for r in reps),
        "tasks_per_s": _median(r.tasks / (r.run_s * r.speed) for r in reps),
        "peak_rss_mb": rss_mb,
    }


def _rep_layers(rep, table: dict) -> dict[str, float]:
    """Per-layer values of one traced repetition."""

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def own(name):
        return table.get(name, {}).get("self_s", 0.0)

    def per_call(name):
        row = table.get(name)
        return row["total_s"] / row["calls"] if row else 0.0

    out = dict.fromkeys(PER_LAYER, 0.0)
    for name in _SPAN_ROWS:
        out[f"{name}.calls"] = table.get(name, {}).get("calls", 0)
        out[f"{name}.self_s"] = own(name)
    for name in _WORK_ROWS:
        out[name] = rep.work.get(name, 0)
    # a repetition sets up several times; report one set-up
    out["phase.warm_s"] = per_call("phase.warm")
    out["phase.restore_s"] = per_call("phase.restore")
    out["phase.launch_s"] = total("phase.launch")
    out["phase.simulate_s"] = total("phase.simulate")
    out["phase.readout_s"] = total("soa.readout") + total("grid.readout")
    out["events.self_s"] = own("events")
    out["soa.settle.calls"] = table.get("soa.settle", {}).get("calls", 0)
    out["soa.readout_s"] = total("soa.readout")
    out["traces.synthesize_s"] = total("traces.synthesize")
    starts = rep.work.get("site.jobs_started", 0)
    if starts:
        busy = sum(own(n) for n in _FAIRSHARE_SPANS)
        out["fairshare.us_per_start"] = 1e6 * busy / starts
    if rep.work.get("wms.dispatches"):
        out["wms.useful_ratio"] = rep.tasks / rep.work["wms.dispatches"]
    if rep.work.get("middleware.attempts"):
        out["middleware.useful_ratio"] = (
            rep.work["middleware.accepted"] / rep.work["middleware.attempts"]
        )
    out.update(rep.law)
    return out


def per_layer(traced, tables: dict, plain) -> dict[str, float]:
    """Median per-layer values over traced repetitions.

    ``tables[i]`` is the span table of traced repetition ``i``; ``plain``
    are the run's untraced repetitions, which give the tracing overhead
    and the run's ``fail_frac``.
    """
    rows = [_rep_layers(rep, tables.get(i, {})) for i, rep in enumerate(traced)]
    out = {name: _median(row[name] for row in rows) for name in PER_LAYER}
    out["fail_frac"] = fail_frac(list(plain) + list(traced))
    base = _median(r.run_s * r.speed for r in plain)
    out["trace.overhead_frac"] = (
        _median(r.run_s * r.speed for r in traced) / base - 1.0 if base else 0.0
    )
    out["host.speed"] = _median(r.speed for r in plain)
    out["host.setup_wall_s"] = _median(r.setup_s for r in plain)
    out["host.run_wall_s"] = _median(r.run_s for r in plain)
    return out
