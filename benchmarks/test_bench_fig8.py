"""Benchmark: regenerate Figure 8 (delta_cost vs N_// curves)."""

from repro.experiments import run_experiment

from oracles import series_named


def test_bench_fig8(benchmark, ctx_fast, save_result):
    result = benchmark.pedantic(
        lambda: run_experiment("fig8", ctx=ctx_fast, b_max=5),
        rounds=2,
        iterations=1,
        warmup_rounds=1,
    )
    save_result(result)
    (bundle,) = result.figures
    assert series_named(bundle, "delayed (cost frontier)").y.min() < 1.0
