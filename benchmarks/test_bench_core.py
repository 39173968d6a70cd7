"""Micro-benchmarks of the numerical core (not paper artifacts).

These track the costs that dominate every experiment: building a gridded
model, the O(n) timeout sweeps, the delayed 2-D optimisation and the
vectorised Monte-Carlo engines — the quantities to watch when changing
the integration kernels.
"""

import numpy as np

from repro.core.model import LatencyModel
from repro.core.optimize import optimize_delayed, optimize_multiple, optimize_single
from repro.core.strategies import (
    delayed_expectation_bands,
    multiple_expectation_sweep,
)
from repro.distributions import LogNormal, ShiftedDistribution
from repro.montecarlo import simulate_multiple, simulate_single
from repro.traces.paper import synthesize_week
from repro.util.grids import TimeGrid


def fresh_gridded():
    dist = ShiftedDistribution(LogNormal(mu=5.6, sigma=1.1), shift=150.0)
    return LatencyModel(dist, rho=0.05).on_grid(TimeGrid(t_max=10_000.0, dt=1.0))


def test_bench_grid_model_build(benchmark):
    def build():
        gm = fresh_gridded()
        return gm.A[-1]  # force tabulation

    assert benchmark(build) > 0.0


def test_bench_single_sweep(benchmark):
    """Single resubmission's Eq. (1) sweep: the one-copy burst."""
    gm = fresh_gridded()
    _ = gm.A  # pre-tabulate: measure the sweep alone
    sweep = benchmark(lambda: multiple_expectation_sweep(gm, 1))
    assert np.isfinite(sweep).any()


def test_bench_multiple_sweep_b5(benchmark):
    gm = fresh_gridded()
    _ = gm.A
    sweep = benchmark(lambda: multiple_expectation_sweep(gm, 5))
    assert np.isfinite(sweep).any()


def test_bench_delayed_t0_slice(benchmark):
    """One ``t0`` row of the delayed surface through the production kernel."""
    gm = fresh_gridded()
    _ = gm.A
    k0 = gm.index_of(400.0)

    def row():
        # empty the per-model row cache so every round computes the row
        gm._delayed_band_cache.clear()
        gm._delayed_band_cache_floats = 0
        return delayed_expectation_bands(gm, [k0])

    rect, widths = benchmark(row)
    assert widths[0] == k0 + 1
    assert np.isfinite(rect[0]).any()


def test_bench_optimizers_end_to_end(benchmark):
    gm = fresh_gridded()

    def optimise_all():
        s = optimize_single(gm)
        m = optimize_multiple(gm, 3)
        d = optimize_delayed(gm, t0_min=100.0, t0_max=1500.0, coarse=16)
        return s.e_j + m.e_j + d.e_j

    assert benchmark(optimise_all) > 0.0


def test_bench_mc_single_20k(benchmark):
    gm = fresh_gridded()
    run = benchmark.pedantic(
        lambda: simulate_single(gm.model, 600.0, 20_000, rng=3),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert run.j.size == 20_000


def test_bench_mc_multiple_b5_20k(benchmark):
    gm = fresh_gridded()
    run = benchmark.pedantic(
        lambda: simulate_multiple(gm.model, 5, 800.0, 20_000, rng=4),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert run.j.size == 20_000


def test_bench_trace_synthesis(benchmark):
    trace = benchmark.pedantic(
        lambda: synthesize_week("2006-IX", seed=9),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert len(trace) == 2093
