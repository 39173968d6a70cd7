"""Benchmark: regenerate Table 3 (delayed strategy, imposed ratios)."""

from repro.experiments import run_experiment

from oracles import table_rows


def test_bench_table3(benchmark, ctx, save_result):
    result = benchmark.pedantic(
        lambda: run_experiment("table3", ctx=ctx),
        rounds=2,
        iterations=1,
        warmup_rounds=1,
    )
    save_result(result)
    (table,) = result.tables
    assert len(table.rows) == 10
    assert all(
        row["delta vs single"].startswith("-") for row in table_rows(table)
    )
