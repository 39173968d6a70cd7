"""``decompose`` on hand-built event logs: which stamps cut J.

The winner's *last* ``submit``/``enqueue``/``start`` stamps split the
makespan; a client retry re-stamps ``submit`` on the same job id, and
the loser copies' stamps never leak into the winner's breakdown.  The
production pass is also held record for record, floats equal, to
:func:`oracles.decompose_reference` on drawn event streams and on a
traced 2 000-task chaos day.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gridsim.tracing import TaskBreakdown, decompose
from oracles import decompose_reference


def _task(tid, t0, label="single", vo="vo", runtime=600.0):
    return ("task", t0, tid, -1, (label, vo, runtime))


def test_retried_job_restamps_submit():
    events = [
        _task(0, 100.0),
        ("submit", 110.0, 0, 7, None),
        # the submit failed; the retry of job 7 re-stamps it
        ("submit", 250.0, 0, 7, None),
        ("enqueue", 300.0, 0, 7, None),
        ("start", 420.0, 0, 7, None),
        ("complete", 420.0, 0, 7, None),
    ]
    (r,) = decompose(events)
    assert r.retry_loss == pytest.approx(150.0)
    assert r.middleware == pytest.approx(50.0)
    assert r.queue_wait == pytest.approx(120.0)
    assert r.makespan == pytest.approx(320.0)


def test_loser_stamps_do_not_reach_the_winner():
    events = [
        _task(0, 0.0),
        ("submit", 10.0, 0, 1, None),
        ("submit", 10.0, 0, 2, None),
        ("enqueue", 20.0, 0, 1, None),
        ("enqueue", 40.0, 0, 2, None),
        ("start", 50.0, 0, 2, None),
        ("complete", 50.0, 0, 2, None),
        ("cancel", 50.0, 0, 1, None),
    ]
    (r,) = decompose(events)
    assert (r.retry_loss, r.middleware, r.queue_wait) == (10.0, 30.0, 10.0)


def test_missing_stamps_fall_back_along_the_span():
    # a winner whose enqueue and start were never traced: enqueue falls
    # back to its submit and start to its completion; a stamp without a
    # job id is ignored
    events = [
        _task(3, 5.0, label="multi", vo="other"),
        ("submit", 15.0, 3, 9, None),
        ("complete", 95.0, 3, 9, None),
        ("start", 60.0, 4, -1, None),
    ]
    (r,) = decompose(events)
    assert (r.task_id, r.label, r.vo) == (3, "multi", "other")
    assert (r.retry_loss, r.middleware, r.queue_wait) == (10.0, 0.0, 80.0)


def test_winner_without_job_id_ignores_unlabelled_stamps():
    # stamps without a job id match nothing, not even a winner without one
    events = [
        _task(0, 0.0),
        ("submit", 5.0, 0, -1, None),
        ("enqueue", 6.0, 0, -1, None),
        ("start", 7.0, 0, -1, None),
        ("complete", 9.0, 0, -1, None),
    ]
    (r,) = decompose(events)
    assert (r.retry_loss, r.middleware, r.queue_wait) == (0.0, 0.0, 9.0)
    assert decompose(events) == decompose_reference(events)


def test_completion_without_its_task_event_names_the_task():
    # a trace cut short: task 8 completes but was launched before the cut
    events = [
        _task(2, 0.0),
        ("complete", 40.0, 2, 5, None),
        ("submit", 50.0, 8, 6, None),
        ("complete", 90.0, 8, 6, None),
    ]
    with pytest.raises(ValueError, match="trace is incomplete: task 8 "):
        decompose(events)


def test_breakdown_is_an_immutable_record_with_derived_spans():
    r = TaskBreakdown(1, "single", "atlas", 120.0, 10.0, 5.0, 30.0, 25.0, 60.0)
    assert TaskBreakdown._fields == (
        "task_id", "label", "vo", "runtime", "t_launch",
        "retry_loss", "middleware", "queue_wait", "makespan",
    )
    assert (r.execution, r.turnaround) == (120.0, 180.0)
    with pytest.raises(AttributeError):
        r.makespan = 0.0  # type: ignore[misc]


# -- against the reference --------------------------------------------------

#: arbitrary floats, and quarter seconds: distinct small stamps, so a
#: stamp read off the wrong job shows in the record
_TIMES = st.one_of(
    st.floats(0.0, 1e5, allow_nan=False, allow_infinity=False),
    st.integers(0, 10**6).map(lambda k: k / 4),
)
#: kinds decompose reads, and kinds it must skip
_STAMPS = ("submit", "enqueue", "start")
_NOISE = ("hop", "cancel", "fail", "retry", "dup", "dup-reconciled", "rescue", "expire")


@st.composite
def _event_streams(draw):
    """Launches, stamps and completions in any order.

    Job ids are shared across tasks and repeat, so a stream holds
    retried submits, loser copies' stamps, stamps without a job id
    (``-1``), winners without any stamp or without a job id, tasks
    completed twice and tasks never completed.
    """
    n_tasks = draw(st.integers(0, 6))
    jids = st.integers(-1, 4)
    labels = st.sampled_from(("single", "multiple"))
    vos = st.sampled_from(("", "atlas"))
    events = [
        ("task", draw(_TIMES), tid, -1, (draw(labels), draw(vos), draw(_TIMES)))
        for tid in range(n_tasks)
    ]
    if n_tasks:
        tids = st.integers(0, n_tasks - 1)
        events += [
            (kind, t, tid, jid, None)
            for kind, t, tid, jid in draw(
                st.lists(
                    st.tuples(st.sampled_from(_STAMPS + _NOISE), _TIMES, tids, jids),
                    max_size=40,
                )
            )
        ]
        events += [
            ("complete", t, tid, jid, None)
            for t, tid, jid in draw(st.lists(st.tuples(_TIMES, tids, jids), max_size=8))
        ]
    return draw(st.permutations(events))


@settings(max_examples=400, deadline=None)
@given(events=_event_streams())
def test_drawn_streams_match_the_reference(events):
    assert decompose(events) == decompose_reference(events)


def test_traced_chaos_day_matches_the_reference():
    from perfbench.workloads import GRID_SEED, WARM, chaos_grid

    from repro.gridsim import warmed_snapshot
    from repro.population import run_population
    from repro.population.presets import fleet_population_spec

    grid = warmed_snapshot(chaos_grid(), GRID_SEED, WARM).restore()
    run_population(grid, fleet_population_spec(2_000), seed=2009)
    events = grid.trace.events
    got = decompose(events)
    assert len(got) == 2_000
    assert any(r.retry_loss > 0 for r in got)
    assert got == decompose_reference(events)
