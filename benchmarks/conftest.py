"""Shared benchmark fixtures.

Each benchmark regenerates one paper artifact (table or figure) through
the experiment harness, times it with pytest-benchmark, and writes the
rendered result to ``benchmarks/results/<id>.txt`` so the regenerated
tables are inspectable after a run.

With ``REPRO_BENCH_MEM=1`` (``run_benchmarks.py --mem``) every bench
body runs one extra, untimed pass under :mod:`tracemalloc` and records
its peak allocation in the report's ``extra_info`` — the memory column
of the comparison table.  The measurement pass is separate from the
timed rounds so tracemalloc's ~2x slowdown never contaminates timings.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.experiments import ExperimentResult
from repro.experiments.context import ReproContext

RESULTS_DIR = Path(__file__).parent / "results"

# the test-side references (tests/oracles.py) read artifact tables and
# drive site outages for the benches too
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

TRACK_MEM = os.environ.get("REPRO_BENCH_MEM", "") not in ("", "0")


def _mem_pass(bench, fn, args=(), kwargs=None) -> None:
    """Run ``fn`` once under tracemalloc, record its allocation peak."""
    tracemalloc.start()
    try:
        fn(*args, **(kwargs or {}))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bench.extra_info["mem_peak_bytes"] = int(peak)


if TRACK_MEM:
    # pytest-benchmark insists the `benchmark` funcarg IS a
    # BenchmarkFixture, so a wrapper fixture is rejected — the
    # measurement pass hooks the class's entry points instead
    from pytest_benchmark.fixture import BenchmarkFixture

    _orig_call = BenchmarkFixture.__call__
    _orig_pedantic = BenchmarkFixture.pedantic

    def _call(self, function_to_benchmark, *args, **kwargs):
        _mem_pass(self, function_to_benchmark, args, kwargs)
        return _orig_call(self, function_to_benchmark, *args, **kwargs)

    def _pedantic(self, target, args=(), kwargs=None, **opts):
        _mem_pass(self, target, args, kwargs)
        return _orig_pedantic(self, target, args=args, kwargs=kwargs, **opts)

    BenchmarkFixture.__call__ = _call
    BenchmarkFixture.pedantic = _pedantic


@pytest.fixture(scope="session")
def ctx() -> ReproContext:
    """Shared context: full-resolution grid, the paper's seed."""
    return ReproContext(seed=2009, dt=1.0)


@pytest.fixture(scope="session")
def ctx_fast() -> ReproContext:
    """Coarser grid for the heavier sweeps (table5/6, frontier)."""
    return ReproContext(seed=2009, dt=2.0)


@pytest.fixture(scope="session")
def save_result():
    """Write an experiment's rendered output under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(result: ExperimentResult) -> None:
        path = RESULTS_DIR / f"{result.experiment_id}.txt"
        path.write_text(result.render() + "\n", encoding="utf-8")

    return _save
