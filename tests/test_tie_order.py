"""Outputs that must not depend on how the kernel orders same-instant events.

The event kernel pops events that share an instant in scheduling order
(first in, first out).  No model rule fixes that order, so a committed
result should read the same under the reverse order.
:func:`oracles.lifo_ties` flips it; these tests run product entry points
under both orders.
"""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from oracles import lifo_ties
from repro.cli import main
from repro.experiments.runner import render_experiment
from repro.gridsim.grid import warmed_grid
from repro.population import run_population
from repro.population.presets import fleet_grid_config, fleet_population_spec

REPO = Path(__file__).resolve().parent.parent
GOLDEN_TRACE = REPO / "tests" / "data" / "storm-broker-site-20.jsonl"
BROKER_STORM = REPO / "benchmarks" / "results" / "broker-storm.txt"


def population_day() -> tuple:
    """``repro population --scale 2000 --sites 6 --cores 64``, exactly."""
    result = run_population(
        warmed_grid(fleet_grid_config(6, 64), 41),
        fleet_population_spec(2000),
        seed=41,
    )
    return (
        [
            (f.j.tobytes(), f.jobs_submitted.tobytes(), f.gave_up)
            for f in result.fleets
        ],
        result.duration,
        result.broker_dispatches,
        result.site_usage_shares,
        result.weather,
        result.metrics,
    )


def chaos_campaign(trace: Path) -> tuple[str, bytes]:
    """The 20-task ``storm-broker-site`` campaign: CLI text and trace."""
    out = io.StringIO()
    argv = [
        "chaos", "--schedule", "storm-broker-site", "--trace", str(trace),
        "--tasks", "20",
    ]
    assert main(argv, out=out) == 0
    return out.getvalue().replace(str(trace), "<trace>"), trace.read_bytes()


def test_population_day_and_chaos_campaign_hold_under_both_orders(tmp_path):
    fifo_day = population_day()
    fifo_chaos = chaos_campaign(tmp_path / "fifo.jsonl")
    with lifo_ties():
        lifo_day = population_day()
        lifo_chaos = chaos_campaign(tmp_path / "lifo.jsonl")
    assert lifo_day == fifo_day
    assert lifo_chaos == fifo_chaos
    assert lifo_chaos[1] == GOLDEN_TRACE.read_bytes()


@pytest.mark.xfail(
    strict=True,
    reason=(
        "broker-storm resolves same-instant client starts by event order: "
        "under LIFO, calm x off 'multiple b=3' moves from 573 s to 385 s"
    ),
)
def test_broker_storm_holds_under_lifo():
    with lifo_ties():
        text = render_experiment("broker-storm")
    assert text + "\n" == BROKER_STORM.read_text(encoding="utf-8")
