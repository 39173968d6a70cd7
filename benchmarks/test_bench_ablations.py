"""Benchmarks: sensitivity ablations (rho, model family, grid resolution)."""

from repro.experiments import run_experiment

from oracles import table_rows


def test_bench_rho_sensitivity(benchmark, ctx_fast, save_result):
    result = benchmark.pedantic(
        lambda: run_experiment("abl-rho", ctx=ctx_fast),
        rounds=2,
        iterations=1,
        warmup_rounds=1,
    )
    save_result(result)
    (table,) = result.tables
    e_j = [float(r["single E_J"].rstrip("s")) for r in table_rows(table)]
    assert all(a <= b for a, b in zip(e_j, e_j[1:]))  # monotone in rho


def test_bench_family_sensitivity(benchmark, ctx_fast, save_result):
    result = benchmark.pedantic(
        lambda: run_experiment("abl-family", ctx=ctx_fast),
        rounds=2,
        iterations=1,
        warmup_rounds=1,
    )
    save_result(result)
    (table,) = result.tables
    assert len(table.rows) == 7  # ECDF reference + 6 families


def test_bench_resolution_study(benchmark, ctx_fast, save_result):
    result = benchmark.pedantic(
        lambda: run_experiment("abl-grid", ctx=ctx_fast),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    save_result(result)
    (table,) = result.tables
    assert len(table.rows) == 5
