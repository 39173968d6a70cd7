from repro.experiments import run_experiment


def test_bench_grid_weather(benchmark, save_result):
    """End-to-end `grid-weather` experiment at its committed defaults:
    6 warmed snapshots (3 regimes × self-healing on/off), 18 strategy
    campaigns of 400 tasks through the full weather/health stack."""
    result = benchmark.pedantic(
        lambda: run_experiment("grid-weather"),
        rounds=2,
        iterations=1,
        warmup_rounds=1,
    )
    save_result(result)
    frontier, telemetry = result.tables
    assert len(frontier.rows) == 6
    assert any("flips" not in n and "strategy" in n for n in result.notes)


def test_bench_broker_storm(benchmark, save_result):
    """End-to-end `broker-storm` experiment at its committed defaults:
    the (calm, broker-storm) × (retry off, retry on) task days through
    the middleware fault domain, each with its conservation audit."""
    result = benchmark.pedantic(
        lambda: run_experiment("broker-storm"),
        rounds=2,
        iterations=1,
        warmup_rounds=1,
    )
    save_result(result)
    assert result.experiment_id == "broker-storm"
    assert result.tables[0].rows
