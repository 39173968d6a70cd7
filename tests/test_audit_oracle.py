"""The conservation audit against its group-by reference.

:func:`~repro.gridsim.chaos.audit_conservation` tallies the ledger into
int-keyed counters in one pass; :func:`oracles.audit_conservation_reference`
groups it per task first.  On a real ledgered campaign and on ledgers
tampered every way the audit exists to catch — a dropped entry, a copy
ledgered twice or under a second task, a foreign job, a copy flipped
back to ``QUEUED``/``RUNNING``, a stray duplicate flag, an unsettled
task, a skewed submission counter — both must return the same report:
the same violations in the same order, the same ``by_state`` and the
same counts.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import (
    DelayedResubmission,
    MultipleSubmission,
    SingleResubmission,
)
from repro.gridsim import GridSimulator, chaos_grid_config, standard_schedules
from repro.gridsim.chaos import audit_conservation
from repro.gridsim.client import launch_task
from repro.gridsim.jobs import Job, JobState
from oracles import audit_conservation_reference

_WARM = 6 * 3600.0


def _campaign(kind: str) -> GridSimulator:
    """A settled, ledgered campaign: ``middleware`` runs ``dup-on-retry``
    (retries and lost-ack duplicates), ``plain`` a grid without one."""
    base = chaos_grid_config(seed=7)
    cfg = dict(standard_schedules(base))["dup-on-retry"] if kind == "middleware" else base
    grid = GridSimulator(cfg, seed=11)
    grid.warm_up(_WARM)
    grid.enable_task_ledger()
    strategies = (
        SingleResubmission(t_inf=1_800.0),
        MultipleSubmission(b=2, t_inf=1_800.0),
        DelayedResubmission(t0=1_200.0, t_inf=1_800.0),
    )
    tasks: list = []

    def launch(strategy) -> None:
        tasks.append(launch_task(grid, strategy, 600.0, []))

    for i in range(24):
        grid.sim.schedule_at(grid.now + i * 180.0, partial(launch, strategies[i % 3]))
    grid.run_until(grid.now + 6 * 3600.0)
    for task in tasks:
        task.expire()
    return grid


@pytest.fixture(scope="module")
def campaigns() -> dict[str, GridSimulator]:
    return {kind: _campaign(kind) for kind in ("middleware", "plain")}


def _view(grid, ledger, jobs_submitted):
    """The grid surface the audit reads, over a (tampered) ledger."""
    return SimpleNamespace(
        task_ledger=ledger,
        _mw=grid._mw,
        duplicates_reconciled=grid.duplicates_reconciled,
        jobs_submitted=jobs_submitted,
    )


def _assert_same_report(grid) -> None:
    got = audit_conservation(grid)
    want = audit_conservation_reference(grid)
    for f in dataclasses.fields(want):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


def _tamper(grid, ops):
    ledger = list(grid.task_ledger)
    submitted = grid.jobs_submitted
    for op, i, k, state in ops:
        if not ledger:
            break
        i %= len(ledger)
        task, job = ledger[i]
        if op == "drop":
            del ledger[i]
        elif op == "twice":
            ledger.insert(k % (len(ledger) + 1), (task, job))
        elif op == "rehome":
            ledger.insert(k % (len(ledger) + 1), (ledger[k % len(ledger)][0], job))
        elif op == "foreign":
            ledger.insert(k % (len(ledger) + 1), (task, Job(runtime=60.0)))
        elif op == "flip":
            ledger[i] = (task, dataclasses.replace(job, state=state))
        elif op == "duplicate":
            ledger[i] = (task, dataclasses.replace(job, duplicate=True))
        elif op == "unsettled":
            ghost = SimpleNamespace(
                jobs_used=task.jobs_used,
                client_attempts=task.client_attempts,
                done=False,
            )
            ledger = [(ghost if t is task else t, j) for t, j in ledger]
        else:  # "skew"
            submitted += 1 if k % 2 else -1
    return _view(grid, ledger, submitted)


_OPS = st.tuples(
    st.sampled_from(
        ("drop", "twice", "rehome", "foreign", "flip", "duplicate", "unsettled", "skew")
    ),
    st.integers(0, 1 << 16),
    st.integers(0, 1 << 16),
    st.sampled_from((JobState.QUEUED, JobState.RUNNING)),
)


@pytest.mark.parametrize("kind", ["middleware", "plain"])
def test_untampered_campaign_audits_clean_on_both(campaigns, kind):
    grid = campaigns[kind]
    assert audit_conservation(grid).ok
    _assert_same_report(grid)


def test_campaign_exercises_duplicates_and_retries(campaigns):
    report = audit_conservation(campaigns["middleware"])
    assert report.duplicates > 0
    assert report.jobs > report.tasks


def test_every_tamper_kind_is_caught(campaigns):
    grid = campaigns["middleware"]
    for op in ("drop", "twice", "foreign", "flip", "duplicate", "unsettled", "skew"):
        view = _tamper(grid, [(op, 3, 5, JobState.QUEUED)])
        report = audit_conservation(view)
        assert not report.ok, op
        _assert_same_report(view)


@settings(max_examples=250, deadline=None)
@given(
    kind=st.sampled_from(("middleware", "plain")),
    ops=st.lists(_OPS, min_size=1, max_size=4),
)
def test_tampered_ledgers_match_the_reference(campaigns, kind, ops):
    _assert_same_report(_tamper(campaigns[kind], ops))
