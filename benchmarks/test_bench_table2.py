"""Benchmark: regenerate Table 2 (multiple submission, b = 1..20)."""

from repro.experiments import run_experiment

from oracles import table_rows


def test_bench_table2(benchmark, ctx, save_result):
    result = benchmark(lambda: run_experiment("table2", ctx=ctx, b_max=20))
    save_result(result)
    (table,) = result.tables
    assert len(table.rows) == 20
    e_j = [float(r["best E_J"].rstrip("s")) for r in table_rows(table)]
    assert all(a >= b for a, b in zip(e_j, e_j[1:]))
