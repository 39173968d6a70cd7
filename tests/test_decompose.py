"""``decompose`` on hand-built event logs: which stamps cut J.

The winner's *last* ``submit``/``enqueue``/``start`` stamps split the
makespan; a client retry re-stamps ``submit`` on the same job id, and
the loser copies' stamps never leak into the winner's breakdown.
"""

from __future__ import annotations

import pytest

from repro.gridsim.tracing import decompose


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
