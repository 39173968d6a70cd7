"""Tests of the benchmark's own helpers and a tiny-scale smoke per workload."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from array import array
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import hostspeed, metrics
from perfbench.layers import Instrumentation, install_population, layer_of
from perfbench.expected import POPULATION, parse_seeds
from perfbench.run import measure, verdict
from perfbench.spans import SpanRecorder, aggregate, self_times
from perfbench.workloads import EXPECTED, WORKLOADS, Rep, _check_day, make_workload

ROOT = Path(__file__).resolve().parents[2]

#: the metric-name grammar of BENCHMARK.json (letters, digits, ``_``,
#: ``.``, ``-``; starts with a letter or digit; at most 64 characters)
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _selfs(spans):
    """self_times over ``(start, end, parent)`` triples."""
    start = array("d", [s for s, _, _ in spans])
    end = array("d", [e for _, e, _ in spans])
    parent = array("i", [p for _, _, p in spans])
    return self_times(start, end, parent).tolist()


# -- self-time arithmetic ----------------------------------------------------


def test_nested_children_are_subtracted_once():
    # parent [0,10] > child [1,5] > grandchild [2,4]
    assert _selfs([(0, 10, -1), (1, 5, 0), (2, 4, 1)]) == [6, 2, 2]


def test_back_to_back_children_cover_their_sum():
    assert _selfs([(0, 6, -1), (0, 2, 0), (2, 5, 0)]) == [1, 2, 3]


def test_children_are_clipped_to_the_parent():
    assert _selfs([(2, 8, -1), (0, 4, 0), (7, 12, 0)])[0] == 3


def test_self_time_of_an_empty_trace():
    assert _selfs([]) == []


def test_recorder_nests_spans_and_aggregates_per_run():
    rec = SpanRecorder()

    def inner():
        return 7

    traced_inner = rec.wrap("inner", inner)
    traced_outer = rec.wrap("outer", lambda: traced_inner() + traced_inner())
    rec.run = 0
    assert traced_outer() == 14
    rec.run = 1
    rec.wrap("outer", traced_inner)()
    assert list(rec.parent) == [-1, 0, 0, -1, 3]
    tables = aggregate(rec)
    assert tables[0]["inner"]["calls"] == 2
    assert tables[1]["inner"]["calls"] == 1
    for table in tables.values():
        outer = table["outer"]
        assert outer["self_s"] <= outer["total_s"]
        assert outer["self_s"] == pytest.approx(
            outer["total_s"] - table["inner"]["total_s"], abs=1e-12
        )


def test_recorder_closes_spans_when_the_call_raises():
    rec = SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("boom", boom)()
    assert rec.end[0] >= rec.start[0] and not rec._stack


# -- metric names --------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["run_s", "fairshare.enqueue.self_s", "experiments.val-mc_s", "9x"]
)
def test_valid_metric_names(name):
    assert METRIC_NAME.fullmatch(name)


@pytest.mark.parametrize("name", ["", "a b", "-x", ".x", "x/y", "x" * 65])
def test_invalid_metric_names(name):
    assert not METRIC_NAME.fullmatch(name)


def test_benchmark_json_matches_the_catalogue():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert list(e2e) == list(metrics.END_TO_END)
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert [m["name"] for m in bench["per_layer"]] == list(metrics.PER_LAYER)
    assert {m["unit"] for m in bench["per_layer"]} >= {"s", "count"}
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names)) and len(names) - len(e2e) <= 128
    assert all(METRIC_NAME.fullmatch(name) for name in names)


# -- fail_frac accounting ------------------------------------------------------


def _rep(digest="d", failed=0, attempted=10, problems=()):
    return Rep(
        setup_s=0.1,
        run_s=1.0,
        tasks=attempted - failed,
        attempted=attempted,
        failed=failed,
        digest=digest,
        problems=list(problems),
    )


def test_fail_frac_counts_failures_over_attempts():
    reps = [_rep(), _rep(failed=3, problems=["3 tasks gave up"]), _rep(attempted=20)]
    assert metrics.fail_frac(reps) == pytest.approx(3 / 40)
    correct, attempted, failed, problems = verdict(reps)
    assert (correct, attempted, failed) == (False, 40, 3)
    assert problems == ["3 tasks gave up"]


def test_a_digest_mismatch_is_a_failed_check():
    correct, attempted, failed, problems = verdict([_rep(), _rep(), _rep("other")])
    assert not correct and failed == 1 and attempted == 30
    assert "outputs differ" in problems[0]


def test_clean_repetitions_are_correct():
    assert verdict([_rep(), _rep()]) == (True, 20, 0, [])


# -- host speed ------------------------------------------------------------------


def test_host_speed_is_the_reference_over_the_median_probe():
    slow = 2 * hostspeed.REFERENCE_S
    assert hostspeed.speed([slow, slow, 99.0]) == pytest.approx(0.5)


def test_end_to_end_times_are_scaled_by_host_speed():
    reps = [_rep(), _rep()]
    for rep in reps:
        rep.speed = 0.5
    e2e = metrics.end_to_end(reps, 100.0)
    assert e2e["setup_s"] == pytest.approx(0.05)
    assert e2e["run_s"] == pytest.approx(0.5)
    assert e2e["tasks_per_s"] == pytest.approx(20.0)


def test_the_probe_times_its_reference_task():
    probe = hostspeed.Probe(nodes=100, lookups=200)
    assert probe.reference() == probe.reference()
    assert 0 < probe(calls=1)


def _day(*fleets):
    """A stand-in population result from ``(j, jobs)`` pairs."""
    outcomes = [
        SimpleNamespace(j=np.asarray(j, float), jobs_submitted=np.asarray(n, int))
        for j, n in fleets
    ]
    return SimpleNamespace(
        fleets=outcomes, total_finished=sum(f.j.size for f in outcomes)
    )


def test_a_clean_day_passes_every_count():
    problems = []
    assert _check_day(_day(([5.0, 7.0], [1, 2])), 2, 2, 3, problems) == 0
    assert problems == []


def test_unfinished_and_unsettled_tasks_fail():
    problems = []
    # 3 launched, 2 finished, but the runtime settled only 1
    assert _check_day(_day(([5.0, 7.0], [1, 1])), 3, 1, 2, problems) == 2
    assert problems == ["2 of 3 tasks finished", "1 tasks settled but 2 have a J"]


def test_jobs_the_tasks_do_not_account_for_fail():
    problems = []
    assert _check_day(_day(([5.0], [2])), 1, 1, 3, problems) == 1
    assert "the grid took 3" in problems[0]
    # where duplicates add jobs no task counts, the comparison is skipped
    assert _check_day(_day(([5.0], [2])), 1, 1, None, []) == 0


def test_a_j_that_is_not_positive_and_finite_fails():
    problems = []
    assert _check_day(_day(([5.0, 0.0, np.inf], [1, 1, 1])), 3, 3, 3, problems) == 2


# -- instrumentation -----------------------------------------------------------


def test_instrumentation_restores_every_original():
    from repro.gridsim import client
    from repro.gridsim.events import Simulator
    from repro.gridsim.fairshare import FairShareVectorComputingElement as FS
    from repro.population import driver

    before = (
        dict(vars(Simulator)),
        dict(vars(FS)),
        driver.launch_task,
        client.launch_task,
    )
    with Instrumentation(SpanRecorder()) as ins:
        install_population(ins)
        assert "enqueue_many" in vars(FS)
        assert driver.launch_task is not before[2]
    assert (dict(vars(Simulator)), dict(vars(FS))) == before[:2]
    assert (driver.launch_task, client.launch_task) == before[2:]


def test_callbacks_are_attributed_to_their_owner_module():
    from repro.gridsim.events import Simulator
    from repro.population.soa import TaskPool

    sim = Simulator()
    assert layer_of(sim.stop) == "other"
    assert layer_of(partial(partial(TaskPool.settle, None), 1)) == "soa"
    assert layer_of(print) == "other"


# -- tiny-scale smoke of every workload -----------------------------------------


@pytest.mark.parametrize(
    "name, size",
    [("pop-calm", 400), ("pop-chaos-traced", 300), ("pop-sharded", 400)],
)
def test_population_workload_smoke(name, size):
    workload = make_workload(name, n_tasks=size)
    warm, plain, traced, rec = measure(workload, seed=3, seconds=0, trace=True)
    reps = [warm] + plain + traced
    assert verdict(reps) == (True, 3 * size, 0, [])
    assert {r.tasks for r in reps} == {size}
    layers = metrics.per_layer(traced, aggregate(rec), plain)
    assert set(layers) == set(metrics.PER_LAYER)
    assert layers["task_j_p50_s"] > 0 and layers["jobs_per_task"] >= 1
    # one speed for the whole run, set on every measured repetition
    assert layers["host.speed"] > 0
    assert {r.speed for r in plain + traced} == {layers["host.speed"]}
    if name == "pop-calm":
        assert layers["soa.settle.calls"] == size
        assert layers["client.launch_task.calls"] == 0
        assert layers["fairshare.enqueue.calls"] > 0
    elif name == "pop-chaos-traced":
        assert layers["soa.settle.calls"] == 0
        assert layers["client.launch_task.calls"] == size
        assert layers["middleware.submit.calls"] > 0
        assert layers["tracing.events"] > 0 and layers["chaos.violations"] == 0
    else:
        assert layers["shard.children_cpu_s"] > 0


def test_paper_workload_smoke():
    workload = make_workload("paper-artifacts", artifacts=("fig1", "table1", "fig2"))
    warm, plain, traced, rec = measure(workload, seed=5, seconds=0, trace=True)
    assert verdict([warm] + plain + traced) == (True, 9, 0, [])
    layers = metrics.per_layer(traced, aggregate(rec), plain)
    assert layers["traces.synthesize_s"] > 0
    assert layers["experiments.table1_s"] > 0


def test_a_law_change_at_a_committed_seed_fails():
    workload = make_workload("pop-calm", n_tasks=300)
    rep = workload.repetition(seed=4)
    assert rep.failed == 0
    workload.committed = {"4": {"digest": rep.digest, **rep.law}}
    assert workload.repetition(seed=4).failed == 0
    workload.committed["4"]["jobs_per_task"] += 0.01
    again = workload.repetition(seed=4)
    assert again.failed == 1
    assert again.problems == ["outputs differ from those committed for seed 4"]


def test_committed_outputs_cover_the_default_seed():
    table = json.loads(EXPECTED.read_text())
    assert set(table) == set(POPULATION)
    for name in POPULATION:
        assert table[name]["tasks"] == WORKLOADS[name]
        assert {"2009", "1"} <= set(table[name]["seeds"])
    assert parse_seeds("0-2,9") == [0, 1, 2, 9]


def test_the_chaos_grid_is_the_storm_broker_site_schedule():
    from dataclasses import replace

    from repro.gridsim.chaos import standard_schedules
    from perfbench.workloads import chaos_grid

    grid = chaos_grid()
    base = replace(grid, health=None, resubmit=None, tracing=False)
    schedule = dict(standard_schedules(base))["storm-broker-site"]
    assert schedule.submit_faults == grid.submit_faults
    assert schedule.retry == grid.retry
    assert schedule.weather.storm == replace(grid.weather.storm, kill_running=0.3)
    assert grid.health is not None and grid.resubmit is not None and grid.tracing


def test_paper_workload_reports_a_mismatch():
    workload = make_workload("paper-artifacts", artifacts=("fig1", "table1"))
    workload.expected["table1"] += "drift\n"
    rep = workload.repetition(seed=1)
    assert (rep.attempted, rep.failed) == (2, 1)
    assert rep.problems == ["table1 differs from the committed artifact"]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pop-calm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 2
    assert "correct" not in out.stdout
