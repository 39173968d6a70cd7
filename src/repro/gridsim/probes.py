"""The paper's probe measurement protocol on the simulated grid (§3.2).

A constant number of probe slots is maintained: each slot submits a probe
job (near-null runtime), waits until it starts or hits the measurement
timeout (10,000 s — then cancels it and counts an outlier), and
immediately submits the next probe.  The output is a
:class:`~repro.traces.TraceSet`, so the whole modeling pipeline (ECDF →
strategy optimisation) runs unchanged on simulated data.

Each slot is a slotted :class:`~repro.gridsim.client.TaskCore` subclass,
so probes share the strategy executors' lifecycle bookkeeping — pooled
timeout timers under the batched WMS engine, exact heap timers under the
event oracle — instead of carrying their own closure-based state.
"""

from __future__ import annotations

import numpy as np

from repro.gridsim.client import TaskCore
from repro.gridsim.grid import GridSimulator
from repro.gridsim.jobs import Job
from repro.traces.dataset import PROBE_TIMEOUT, TraceSet
from repro.util.validation import check_int_at_least, check_positive

__all__ = ["ProbeExperiment"]


class _ProbeSlot(TaskCore):
    """One slot's current probe: a single copy plus its timeout timer."""

    __slots__ = ("exp",)

    tag = "probe"
    trace_label = "probe"

    def __init__(self, exp: "ProbeExperiment") -> None:
        super().__init__(exp.grid, exp.probe_runtime)
        self.exp = exp
        self.submit_copy()
        self.arm(exp.timeout, self._timeout)

    def finished(self, winner: Job) -> None:
        exp = self.exp
        exp._record(self.t_start, winner.start_time - self.t_start, 0)
        # §3.2: "a new probe was submitted each time another one
        # completed" — schedule the next probe after the (near-null)
        # payload finishes
        self.grid.sim.schedule(exp.probe_runtime, exp._launch_probe)

    def _timeout(self) -> None:
        if self.done:
            return
        self.expire()
        self.exp._record(self.t_start, float("inf"), 1)
        self.exp._launch_probe()


class ProbeExperiment:
    """Constant-in-flight probe measurement campaign."""

    def __init__(
        self,
        grid: GridSimulator,
        *,
        n_slots: int = 20,
        timeout: float = PROBE_TIMEOUT,
        probe_runtime: float = 1.0,
    ) -> None:
        self.n_slots = check_int_at_least("n_slots", n_slots, 1)
        check_positive("timeout", timeout)
        check_positive("probe_runtime", probe_runtime)
        self.grid = grid
        self.timeout = timeout
        self.probe_runtime = probe_runtime
        self._submit_times: list[float] = []
        self._latencies: list[float] = []
        self._codes: list[int] = []
        self._deadline = 0.0

    def run(self, duration: float, *, name: str = "gridsim-probes") -> TraceSet:
        """Run the campaign for ``duration`` virtual seconds.

        Probes still pending at the end of the campaign are not recorded
        (their outcome is unknown), matching the paper's trace semantics.
        Each call is an independent campaign: per-run state is reset, so
        a reused experiment never leaks records from a previous run.
        """
        check_positive("duration", duration)
        self._submit_times = []
        self._latencies = []
        self._codes = []
        start = self.grid.now
        self._deadline = start + duration
        for _ in range(self.n_slots):
            self._launch_probe()
        # run long enough for the last probes to resolve: one timeout
        # (plus the pooled wheel's granule of firing lateness) past the
        # deadline covers every pending probe
        self.grid.run_until(
            self._deadline
            + self.timeout
            + self.grid.sim.pooled_granularity
            + 1.0
        )
        if not self._submit_times:
            raise RuntimeError("probe campaign recorded no probes")
        order = np.argsort(self._submit_times, kind="stable")
        return TraceSet(
            name=name,
            submit_times=np.asarray(self._submit_times)[order] - start,
            latencies=np.asarray(self._latencies)[order],
            status_codes=np.asarray(self._codes, dtype=np.int8)[order],
            timeout=self.timeout,
        )

    # -- slot machinery ----------------------------------------------------

    def _launch_probe(self) -> None:
        if self.grid.now >= self._deadline:
            return
        _ProbeSlot(self)

    def _record(self, submit_time: float, latency: float, code: int) -> None:
        if submit_time >= self._deadline:
            return
        self._submit_times.append(submit_time)
        self._latencies.append(latency)
        self._codes.append(code)
