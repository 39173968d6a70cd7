"""Where the traced run puts its spans, and the work counters it reads.

Everything here wraps or reads *public* entry points of ``repro`` from
outside: methods are replaced on their classes, functions in every
``repro`` module that binds them, and the event kernel's ``schedule*``
methods tag each callback they are handed with the layer that owns it,
so time spent inside scheduled callbacks (the fair-share commit loop in
a site wake, the WMS dispatch bucket, a pooled timeout block) lands on
that layer instead of on the kernel.  :meth:`Instrumentation.remove`
puts every original back.  No wrapper draws randomness or reorders a
call, so traced repetitions replay untraced ones bit for bit.
"""

from __future__ import annotations

import sys
from functools import partial
from types import ModuleType

__all__ = [
    "EVENT_LAYERS",
    "Instrumentation",
    "grid_counters",
    "layer_of",
    "install_population",
    "install_paper",
]

#: layers a scheduled callback is attributed to (``<layer>.event``)
EVENT_LAYERS = (
    "fairshare",
    "site",
    "wms",
    "background",
    "client",
    "middleware",
    "weather",
    "soa",
    "driver",
    "other",
)

#: defining module (last dotted part) -> layer of its callbacks
_LAYER_BY_MODULE = {
    "fairshare": "fairshare",
    "site": "site",
    "wms": "wms",
    "federation": "wms",
    "background": "background",
    "client": "client",
    "middleware": "middleware",
    "weather": "weather",
    "health": "weather",
    "outages": "weather",
    "soa": "soa",
    "driver": "driver",
}


def _call(callback):
    return callback()


def layer_of(callback) -> str:
    """The layer owning a scheduled callback (bound method or partial)."""
    f = callback
    while isinstance(f, partial):
        f = f.func
    owner = getattr(f, "__self__", None)
    if owner is not None and not isinstance(owner, ModuleType):
        module = type(owner).__module__
    else:
        module = getattr(f, "__module__", None) or ""
    return _LAYER_BY_MODULE.get(module.rpartition(".")[2], "other")


class Instrumentation:
    """Installs span wrappers and undoes them (use as a context manager)."""

    def __init__(self, rec) -> None:
        self.rec = rec
        self._undo: list = []

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            self._undo.pop()()

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, value)
        if had:
            self._undo.append(partial(setattr, owner, attr, old))
        else:
            self._undo.append(partial(delattr, owner, attr))

    def method(self, name: str, cls: type, attr: str) -> None:
        """Record a ``name`` span around every call of ``cls.attr``."""
        self._set(cls, attr, self.rec.wrap(name, getattr(cls, attr)))

    def function(self, name: str, fn) -> None:
        """Record a ``name`` span around ``fn`` wherever ``repro`` binds it."""
        wrapped = self.rec.wrap(name, fn)
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)

    def scheduled_callbacks(self) -> None:
        """Tag every callback handed to the kernel with its owner's layer."""
        from repro.gridsim.events import Simulator

        rec = self.rec
        spans = {layer: rec.wrap(f"{layer}.event", _call) for layer in EVENT_LAYERS}

        def tag(callback):
            return partial(spans[layer_of(callback)], callback)

        schedule = Simulator.schedule
        schedule_at = Simulator.schedule_at
        schedule_many = Simulator.schedule_many
        schedule_pooled = Simulator.schedule_pooled
        self._set(
            Simulator,
            "schedule",
            lambda sim, delay, callback: schedule(sim, delay, tag(callback)),
        )
        self._set(
            Simulator,
            "schedule_at",
            lambda sim, time, callback: schedule_at(sim, time, tag(callback)),
        )
        self._set(
            Simulator,
            "schedule_many",
            lambda sim, times, callbacks: schedule_many(
                sim, times, map(tag, callbacks)
            ),
        )
        self._set(
            Simulator,
            "schedule_pooled",
            lambda sim, delay, callback: schedule_pooled(
                sim, delay, tag(callback)
            ),
        )


def install_population(ins: Instrumentation) -> None:
    """Spans of a population day, from the grid up to the readout."""
    from repro.gridsim import client
    from repro.gridsim.events import Simulator
    from repro.gridsim.fairshare import (
        FairShareComputingElement,
        FairShareVectorComputingElement,
    )
    from repro.gridsim.grid import GridSimulator
    from repro.gridsim.middleware import MiddlewareDomain
    from repro.gridsim.registry import MetricsRegistry
    from repro.gridsim.site import VectorComputingElement
    from repro.gridsim.wms import BatchedWorkloadManager, WorkloadManager
    from repro.population.soa import TaskPool
    from repro.population.spec import PopulationSpec

    m = ins.method
    m("phase.launch", PopulationSpec, "launch_times")
    m("phase.launch", TaskPool, "__init__")
    m("phase.simulate", GridSimulator, "run_until")
    m("soa.readout", TaskPool, "fleet_results")
    m("grid.readout", MetricsRegistry, "snapshot")
    m("grid.readout", GridSimulator, "weather_report")
    m("events", Simulator, "run_until")
    m("grid.submit", GridSimulator, "submit")
    m("grid.submit_many", GridSimulator, "submit_many")
    m("grid.cancel_many", GridSimulator, "cancel_many")
    for cls in (WorkloadManager, BatchedWorkloadManager):
        m("wms.submit", cls, "submit")
        m("wms.submit_many", cls, "submit_many")
    for cls in (FairShareVectorComputingElement, FairShareComputingElement):
        m("fairshare.enqueue", cls, "enqueue")
        m("fairshare.enqueue_many", cls, "enqueue_many")
        m("fairshare.cancel", cls, "cancel")
        m("fairshare.cancel_many", cls, "cancel_many")
    m("background.feed_background", VectorComputingElement, "feed_background")
    m(
        "background.feed_background",
        FairShareVectorComputingElement,
        "feed_background",
    )
    m("soa.settle", TaskPool, "settle")
    m("middleware.submit", MiddlewareDomain, "submit")
    ins.function("client.launch_task", client.launch_task)
    ins.scheduled_callbacks()


def install_paper(ins: Instrumentation) -> None:
    """Spans of the paper pipeline: traces, fits, surfaces, optimisers, MC."""
    from repro.core import optimize
    from repro.core.strategies import delayed
    from repro.distributions import fitting
    from repro.montecarlo import engine
    from repro.traces import paper

    ins.function("traces.synthesize", paper.synthesize_all)
    ins.function("distributions.fit", fitting.fit_distribution)
    for fn in (
        delayed.delayed_expectation_surface,
        delayed.delayed_expectation_bands,
    ):
        ins.function("core.surface", fn)
    for fn in (
        optimize.optimize_single,
        optimize.optimize_multiple,
        optimize.optimize_delayed,
        optimize.optimize_delayed_ratio,
        optimize.optimize_delayed_ratio_sweep,
        optimize.optimize_delayed_cost,
    ):
        ins.function("core.optimize", fn)
    for fn in (
        engine.simulate_single,
        engine.simulate_multiple,
        engine.simulate_delayed,
    ):
        ins.function("montecarlo.simulate", fn)


def grid_counters(grid) -> dict[str, int]:
    """Cumulative work counters a grid publishes (take deltas around a run)."""
    sites = grid.sites
    report = grid.weather_report()
    brokers = report.get("brokers", {}).values()
    transitions = report.get("health", {}).get("transitions", {})
    return {
        "events.processed": grid.sim.events_processed,
        "events.compactions": grid.sim.compactions,
        "background.jobs_generated": sum(
            bg.jobs_generated for bg in grid.background
        ),
        "site.jobs_started": sum(s.jobs_started for s in sites),
        "site.background_delivered": sum(
            s.background_delivered()
            for s in sites
            if hasattr(s, "background_delivered")
        ),
        "wms.dispatches": sum(b.dispatch_count for b in grid.brokers),
        "grid.jobs_submitted": grid.jobs_submitted,
        "weather.storms": report["storms_started"],
        "weather.jobs_killed": sum(report["jobs_killed"].values()),
        "health.bans": sum(
            n for k, n in transitions.items() if k.endswith("->banned")
        ),
        "resubmit.rescues": report.get("resubmit", {}).get("resubmissions", 0),
        "middleware.attempts": sum(b["submits"] for b in brokers),
        "middleware.accepted": sum(
            b["submits"] - b["rejects"] - b["black_holed"] for b in brokers
        ),
        "middleware.failovers": sum(b["failovers"] for b in brokers),
        "middleware.duplicates": report.get("duplicates", {}).get("created", 0),
    }
