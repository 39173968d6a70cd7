"""Benchmarks: Monte-Carlo validation and the Eq. (5) ablation."""

from repro.experiments import run_experiment

from oracles import table_rows


def test_bench_val_mc(benchmark, ctx_fast, save_result):
    result = benchmark.pedantic(
        lambda: run_experiment("val-mc", ctx=ctx_fast, n_tasks=20_000),
        rounds=2,
        iterations=1,
        warmup_rounds=1,
    )
    save_result(result)
    (table,) = result.tables
    zs = [float(r["z"]) for r in table_rows(table)]
    assert max(zs) < 4.5


def test_bench_eq5_ablation(benchmark, ctx_fast, save_result):
    result = benchmark(lambda: run_experiment("abl-eq5", ctx=ctx_fast))
    save_result(result)
    (table,) = result.tables
    assert len(table.rows) == 20
