"""Benchmark: regenerate Figure 1 (latency cdf vs sub-cdf)."""

from repro.experiments import run_experiment

from oracles import series_named


def test_bench_fig1(benchmark, ctx, save_result):
    result = benchmark(lambda: run_experiment("fig1", ctx=ctx))
    save_result(result)
    (bundle,) = result.figures
    f_r = series_named(bundle, "F_R")
    assert f_r.y.max() > series_named(bundle, "F~_R = (1-rho) F_R").y.max()
