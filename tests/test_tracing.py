"""End-to-end task tracing: registry, span completeness, decomposition.

Four layers under test.  **Registry**: counters, fixed-bucket
histograms and lazy gauges behave as documented (get-or-create sharing,
strict edge validation, picklable gauge sources only).  **Spans**: on
every site×WMS engine corner, under a calm grid and all three chaos
standard schedules, every ledgered task's events telescope — launch ≤
submit ≤ enqueue ≤ start ≤ complete along the winning job — and the
latency decomposition sums exactly to the makespan the campaign
reported.  **Round-trips**: JSONL traces read back event-for-event and
the GWF export parses through the same ``read_gwf_workload`` loader the
replay bridge uses.  **Laws**: tracing is opt-in and invisible — a
traced run reproduces the untraced campaign bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import io
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.strategies import SingleResubmission
from repro.gridsim import (
    Counter,
    FaultModel,
    GridConfig,
    GridSimulator,
    Histogram,
    MetricsRegistry,
    ResubmitConfig,
    SiteConfig,
    TraceRecorder,
    breakdown_tables,
    chaos_grid_config,
    decompose,
    export_gwf,
    read_trace,
    run_chaos,
    standard_schedules,
    write_trace,
)
from repro.gridsim.client import launch_task
from repro.traces.gwf import read_gwf_workload
from oracles import CORNERS, chaos_on

_N_TASKS = 12
_HORIZON = 8 * 3600.0


def _traced_run(cfg, site_engine="vector", wms_engine="batched"):
    run_cfg = dataclasses.replace(cfg, tracing=True, wms_engine=wms_engine)
    with chaos_on(site_engine):
        return run_chaos(run_cfg, seed=11, n_tasks=_N_TASKS, horizon=_HORIZON)


def _campaigns():
    """Calm + the three chaos standard schedules on one small grid."""
    base = chaos_grid_config(seed=7)
    return [("calm", base)] + standard_schedules(base)


@pytest.fixture(scope="module")
def storm_result():
    """One traced storm campaign shared by the round-trip tests."""
    base = chaos_grid_config(seed=7)
    cfg = dict(standard_schedules(base))["storm-broker-site"]
    return _traced_run(cfg)


# -- registry ---------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_is_get_or_create(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b")
        assert reg.counter("a.b") is c
        c.value += 4
        assert reg.value("a.b") == 4
        assert "a.b" in reg.snapshot()

    def test_histogram_buckets_and_sum(self):
        h = Histogram("lat", (10.0, 100.0))
        for x in (5.0, 50.0, 500.0, 7.0):
            h.observe(x)
        assert h.counts == [2, 1, 1]
        assert h.total == 4
        assert h.sum == pytest.approx(562.0)
        d = h.as_dict()
        assert d["edges"] == [10.0, 100.0] and d["counts"] == [2, 1, 1]

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram("x", ())
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("x", (1.0, 1.0))

    def test_histogram_bisection_matches_the_edge_scan(self):
        def scan(edges, x):
            # the linear scan observe() replaced: first edge with x <= edge
            i = 0
            for edge in edges:
                if x <= edge:
                    break
                i += 1
            return i

        edges = (-5.0, 0.0, 10.0, 100.0, 86400.0)
        between = [(a + b) / 2 for a, b in zip(edges, edges[1:])]
        xs = [*edges, *between, -1e9, -5.000001, 1e12, -0.0, 0]
        xs += [math.nextafter(e, math.inf) for e in edges]
        xs += [math.nextafter(e, -math.inf) for e in edges]
        xs += [math.inf, -math.inf, math.nan]
        for x in xs:
            h = Histogram("x", edges)
            h.observe(x)
            assert h.counts.index(1) == scan(edges, x), x
        assert scan(edges, math.nan) == len(edges)  # NaN: overflow

    def test_gauges_attr_and_callable(self):
        reg = MetricsRegistry()
        c = Counter("raw")
        reg.register_gauge("g.attr", c, "value")
        h = Histogram("h", (1.0,))
        reg.register_gauge("g.bound", h.as_dict)
        c.value += 2
        assert reg.value("g.attr") == 2
        assert reg.value("g.bound")["total"] == 0

    def test_gauge_rejects_non_callable_without_attr(self):
        reg = MetricsRegistry()
        with pytest.raises(TypeError, match="callable"):
            reg.register_gauge("bad", object())

    def test_value_raises_on_unknown_name(self):
        with pytest.raises(KeyError, match="nope"):
            MetricsRegistry().value("nope")

    def test_snapshot_is_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z").value += 1
        reg.counter("a").value += 2
        reg.histogram("m", (1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert list(snap) == ["a", "m", "z"]
        assert snap["a"] == 2 and snap["m"]["total"] == 1


# -- span completeness across the engine matrix -----------------------------


@pytest.mark.parametrize(
    "site_engine,wms_engine", CORNERS, ids=lambda e: str(e)
)
class TestSpanCompleteness:
    def test_spans_telescope_on_every_campaign(self, site_engine, wms_engine):
        for name, cfg in _campaigns():
            res = _traced_run(cfg, site_engine, wms_engine)
            assert res.ok, f"{name}: conservation audit failed"
            self._check_spans(name, res)

    @staticmethod
    def _check_spans(name, res):
        by_kind: dict[str, list] = {}
        for ev in res.events:
            by_kind.setdefault(ev[0], []).append(ev)
        task_ids = [tid for _, _, tid, _, _ in by_kind.get("task", [])]
        assert task_ids == list(range(_N_TASKS)), name
        completes = by_kind.get("complete", [])
        assert len(completes) == res.finished, name
        assert len(by_kind.get("expire", [])) == res.gave_up, name

        t_launch = {tid: t for _, t, tid, _, _ in by_kind["task"]}
        per_job: dict[int, dict] = {}
        for kind in ("submit", "hop", "enqueue", "start"):
            for _, t, _, jid, _ in by_kind.get(kind, []):
                per_job.setdefault(jid, {})[kind] = t  # last write wins
        for _, t_done, tid, winner, _ in completes:
            span = per_job.get(winner)
            assert span is not None, f"{name}: winner {winner} never submitted"
            for stage in ("submit", "hop", "enqueue", "start"):
                assert stage in span, f"{name}: winner {winner} missing {stage}"
            assert (
                t_launch[tid]
                <= span["submit"]
                <= span["enqueue"]
                <= span["start"]
                <= t_done
            ), f"{name}: task {tid} span does not telescope"

    def test_decomposition_sums_to_makespan(self, site_engine, wms_engine):
        for name, cfg in _campaigns():
            res = _traced_run(cfg, site_engine, wms_engine)
            records = decompose(res.events)
            assert len(records) == res.finished, name
            for r in records:
                assert r.retry_loss >= 0 and r.middleware >= 0, name
                assert r.queue_wait >= 0 and r.makespan >= 0, name
                assert math.isclose(
                    r.retry_loss + r.middleware + r.queue_wait,
                    r.makespan,
                    rel_tol=1e-12,
                    abs_tol=1e-9,
                ), f"{name}: task {r.task_id} decomposition does not sum"
            if records:
                mean_j = sum(r.makespan for r in records) / len(records)
                assert mean_j == pytest.approx(res.mean_latency), name


# -- broker hops ------------------------------------------------------------


class TestHopEvents:
    def test_hops_name_brokers_and_bound_staleness(self, storm_result):
        hops = [ev for ev in storm_result.events if ev[0] == "hop"]
        assert hops, "no hop events in a federated campaign"
        names = {aux[0] for _, _, _, _, aux in hops}
        assert names <= {"wms-0", "wms-1"}
        assert all(aux[1] >= 0.0 for _, _, _, _, aux in hops)

    def test_plain_grid_hop_labels_match_the_registry(self):
        cfg = dataclasses.replace(
            chaos_grid_config(seed=7), brokers=(), tracing=True
        )
        grid = GridSimulator(cfg, seed=11)
        grid.warm_up(3600.0)
        results: list = []
        for _ in range(4):
            launch_task(grid, SingleResubmission(t_inf=1800.0), 600.0, results)
        grid.run_until(grid.now + 4 * 3600.0)
        hops = [ev for ev in grid.trace.events if ev[0] == "hop"]
        assert hops, "no hop events in a traced run"
        labels = {aux[0] for _, _, _, _, aux in hops}
        assert labels == {"0"}
        names = grid.metrics.snapshot()
        for label in labels:
            assert f"broker.{label}.dispatches" in names


# -- serialisation round-trips ----------------------------------------------


class TestRoundTrips:
    def test_jsonl_round_trip_is_exact(self, storm_result):
        buf = io.StringIO()
        write_trace(storm_result.events, buf)
        buf.seek(0)
        assert read_trace(buf) == list(storm_result.events)

    def test_jsonl_file_round_trip(self, storm_result, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(storm_result.events, path)
        assert read_trace(path) == list(storm_result.events)

    def test_read_trace_skips_comments_and_blanks(self):
        buf = io.StringIO('# header\n\n{"kind": "expire", "t": 1.0, "task": 0, "job": -1}\n')
        assert read_trace(buf) == [("expire", 1.0, 0, -1, None)]

    def test_gwf_export_parses_through_workload_loader(
        self, storm_result, tmp_path
    ):
        path = tmp_path / "trace.gwf"
        n = export_gwf(storm_result.events, path)
        assert n == storm_result.finished > 0
        arrivals, runtimes = read_gwf_workload(path)
        # all rows survive the loader's non-positive-runtime filter
        assert arrivals.size == runtimes.size == n
        assert arrivals[0] == 0.0  # rebased
        assert np.all(np.diff(arrivals) >= 0)
        assert np.all(runtimes > 0)

    def test_gwf_export_of_the_golden_trace_is_pinned(self, tmp_path):
        # every byte of the 29-field rows (-1 fillers, Status at index
        # 10, VOID at index 27) for the committed storm campaign
        data = Path(__file__).parent / "data"
        path = tmp_path / "golden.gwf"
        events = read_trace(data / "storm-broker-site-20.jsonl")
        assert export_gwf(events, path) == 20
        assert path.read_bytes() == (data / "storm-broker-site-20.gwf").read_bytes()

    def test_breakdown_tables_render(self, storm_result):
        by_strategy, by_vo = breakdown_tables(decompose(storm_result.events))
        text = by_strategy.render()
        for label in ("single", "multiple", "delayed"):
            assert label in text
        assert "(none)" in by_vo.render()


# -- tracing is opt-in and invisible ----------------------------------------


class TestZeroCost:
    def test_traced_run_reproduces_untraced_campaign(self):
        base = chaos_grid_config(seed=7)
        cfg = dict(standard_schedules(base))["storm-broker-site"]
        # same config either side (engine selection included), only the
        # tracing flag differs
        off = run_chaos(cfg, seed=11, n_tasks=_N_TASKS, horizon=_HORIZON)
        on = run_chaos(
            dataclasses.replace(cfg, tracing=True),
            seed=11,
            n_tasks=_N_TASKS,
            horizon=_HORIZON,
        )
        assert off.events == ()
        assert len(on.events) > 0
        assert on.finished == off.finished
        assert on.gave_up == off.gave_up
        assert on.mean_latency == off.mean_latency
        assert on.weather == off.weather

    def test_recorder_absent_unless_configured(self):
        cfg = GridConfig(sites=(SiteConfig("a", 4),))
        assert GridSimulator(cfg, seed=1).trace is None
        traced = GridSimulator(
            dataclasses.replace(cfg, tracing=True), seed=1
        )
        assert isinstance(traced.trace, TraceRecorder)
        assert traced.trace is traced._tr

    def test_latency_histogram_fills_on_completion(self):
        cfg = GridConfig(
            sites=(SiteConfig("a", 8, utilization=0.3),), tracing=True
        )
        grid = GridSimulator(cfg, seed=3)
        grid.warm_up(3600.0)
        results: list = []
        for _ in range(3):
            launch_task(
                grid, SingleResubmission(t_inf=1800.0), 300.0, results
            )
        grid.run_until(grid.now + 6 * 3600.0)
        hist = grid.metrics.value("trace.task_latency")
        assert hist["total"] == len(results) == 3
        assert hist["sum"] == pytest.approx(sum(r[0] for r in results))


class TestTaskEndEvents:
    """The recorder's hooks for tasks that end without a client start."""

    def test_expired_task_records_an_expire_event(self):
        cfg = GridConfig(
            sites=(SiteConfig("a", 2, utilization=0.95),), tracing=True
        )
        grid = GridSimulator(cfg, seed=5)
        grid.warm_up(600.0)
        task = launch_task(grid, SingleResubmission(t_inf=3000.0), 60.0, [])
        grid.run_until(grid.now + 1.0)
        task.expire()
        expires = [ev for ev in grid.trace.events if ev[0] == "expire"]
        assert expires == [("expire", grid.now, task.task_id, -1, None)]

    def test_agent_rescue_records_a_rescue_event(self):
        cfg = GridConfig(
            sites=(SiteConfig("a", 8, utilization=0.3),),
            faults=FaultModel(p_lost=0.5),
            resubmit=ResubmitConfig(period=120.0, backoff_base=30.0),
            tracing=True,
        )
        grid = GridSimulator(cfg, seed=9)
        grid.warm_up(600.0)
        results: list = []
        for _ in range(6):
            launch_task(grid, SingleResubmission(t_inf=6000.0), 60.0, results)
        grid.run_until(grid.now + 4 * 3600.0)
        rescues = [ev for ev in grid.trace.events if ev[0] == "rescue"]
        assert rescues
        assert len(rescues) == grid._agent.resubmissions
