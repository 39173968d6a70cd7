"""Tests for the experiment harness: every registered artifact runs and
reproduces the paper's qualitative claims."""

from pathlib import Path

import numpy as np
import pytest

from repro.experiments import context as context_module
from repro.experiments import (
    ExperimentResult,
    get_context,
    list_experiments,
    run_experiment,
)
from repro.experiments.context import ReproContext
from repro.experiments.table5_weekly_cost import TABLE5_WEEKS
from repro.traces.paper import PAPER_TABLE1

from oracles import series_named, table_rows

#: the committed artifacts (written by the pytest benchmarks)
RESULTS_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


@pytest.fixture(scope="module")
def ctx() -> ReproContext:
    # dt=2 halves the sweeps' cost; statistics are unaffected at test tolerance
    return ReproContext(seed=2009, dt=2.0)


class TestRegistry:
    def test_all_artifacts_registered(self):
        ids = list_experiments()
        for required in (
            "fig1", "fig2", "fig3", "fig5", "fig6", "fig8",
            "table1", "table2", "table3", "table4", "table5", "table6",
            "val-mc", "val-des", "abl-eq5", "abl-adopt",
        ):
            assert required in ids

    def test_unknown_id_raises(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("fig99")

    def test_get_context_cached(self):
        assert get_context(seed=1, dt=4.0) is get_context(seed=1, dt=4.0)


class TestContext:
    def test_weeks_order_matches_table1(self, ctx):
        assert ctx.weeks == list(PAPER_TABLE1)

    def test_models_cached(self, ctx):
        assert ctx.model("2006-IX") is ctx.model("2006-IX")
        assert ctx.single_optimum("2006-IX") is ctx.single_optimum("2006-IX")


class TestFig1(object):
    def test_structure_and_claims(self, ctx):
        res = run_experiment("fig1", ctx=ctx)
        assert isinstance(res, ExperimentResult)
        (bundle,) = res.figures
        f_r = series_named(bundle, "F_R")
        f_t = series_named(bundle, "F~_R = (1-rho) F_R")
        # F~ = (1-rho) F pointwise; F~ saturates strictly below F
        rho = ctx.model("2006-IX").rho
        np.testing.assert_allclose(f_t.y, (1 - rho) * f_r.y, rtol=1e-9)
        assert f_t.y.max() < f_r.y.max()


class TestTable1:
    def test_rows_and_qualitative_claims(self, ctx):
        res = run_experiment("table1", ctx=ctx)
        (table,) = res.tables
        assert len(table.rows) == 13
        # qualitative: E_J of the same order as mean<1e4, far below bounded
        for row in table_rows(table):
            e_j = float(row["E_J"].rstrip("s"))
            mean_less = float(row["mean <10^5"].rstrip("s"))
            mean_with = float(row["mean with 10^5"].rstrip("s"))
            assert e_j < mean_with
            assert 0.4 * mean_less < e_j < 1.6 * mean_less

    def test_sigma_reduction_majority(self, ctx):
        res = run_experiment("table1", ctx=ctx)
        (table,) = res.tables
        reductions = [
            row["d_sigma"].startswith("-") for row in table_rows(table)
        ]
        assert sum(reductions) >= 10  # paper: 12 of 13 negative


class TestFig2:
    def test_profiles_ordered_by_b(self, ctx):
        res = run_experiment("fig2", ctx=ctx, b_max=5)
        (bundle,) = res.figures
        assert [s.label for s in bundle.series] == [f"b={b}" for b in range(1, 6)]
        # larger b gives lower minimal E_J
        minima = [float(np.nanmin(s.y)) for s in bundle.series]
        assert all(a > b for a, b in zip(minima, minima[1:]))

    def test_b_validation(self, ctx):
        with pytest.raises(ValueError):
            run_experiment("fig2", ctx=ctx, b_max=0)


class TestTable2:
    def test_diminishing_returns_columns(self, ctx):
        res = run_experiment("table2", ctx=ctx, b_max=8)
        (table,) = res.tables
        assert len(table.rows) == 8
        marginal = [
            float(r["dE_J/(b-1)"].rstrip("%")) for r in table_rows(table)[1:]
        ]
        # improvements are negative and shrink in magnitude
        assert all(m < 0 for m in marginal)
        assert all(abs(a) > abs(b) for a, b in zip(marginal, marginal[1:]))


class TestFig3:
    def test_all_weeks_decreasing(self, ctx):
        res = run_experiment("fig3", ctx=ctx, b_max=5)
        ej_bundle, sj_bundle = res.figures
        assert len(ej_bundle) == 13
        for series in ej_bundle.series:
            assert (np.diff(series.y) <= 1e-9).all()
        for series in sj_bundle.series:
            assert series.y[-1] <= series.y[0]


class TestFig5:
    def test_minimum_beats_single(self, ctx):
        res = run_experiment("fig5", ctx=ctx, n_slices=4)
        (bundle,) = res.figures
        assert len(bundle) == 4
        single = ctx.single_optimum("2006-IX")
        best = min(float(np.nanmin(s.y)) for s in bundle.series)
        assert best < single.e_j


class TestTable3:
    def test_all_ratios_improve_on_single(self, ctx):
        res = run_experiment("table3", ctx=ctx)
        (table,) = res.tables
        assert len(table.rows) == 10
        for row in table_rows(table):
            assert row["delta vs single"].startswith("-")
            n_par = float(row["N_//"])
            assert 1.0 <= n_par <= 2.0


class TestFig6:
    def test_frontier_shapes(self, ctx):
        res = run_experiment("fig6", ctx=ctx, b_max=4)
        (bundle,) = res.figures
        delayed = series_named(bundle, "delayed submission strategy")
        multi = series_named(bundle, "multiple submissions strategy")
        # delayed occupies N < 2; multiple starts at b=1 == single E_J
        assert delayed.x.max() < 2.0
        assert multi.x.min() == 1.0
        single = ctx.single_optimum("2006-IX")
        assert multi.y[0] == pytest.approx(single.e_j, rel=1e-6)
        # multiple at b=2 beats every delayed point (paper Fig. 6)
        assert multi.y[1] < delayed.y.min()


class TestFig8:
    def test_cost_structure(self, ctx):
        res = run_experiment("fig8", ctx=ctx, b_max=4)
        (bundle,) = res.figures
        multi = series_named(bundle, "multiple submissions strategy")
        frontier = series_named(bundle, "delayed (cost frontier)")
        assert multi.y[0] == pytest.approx(1.0, rel=1e-6)  # b=1 == reference
        assert (np.diff(multi.y) > 0).all()  # cost increases with b
        assert frontier.y.min() < 1.0  # the win-win dip exists


class TestTable4:
    def test_blocks_and_headline(self, ctx):
        res = run_experiment("table4", ctx=ctx)
        delayed_table, multi_table = res.tables
        assert len(delayed_table.rows) == 10
        assert len(multi_table.rows) == 14
        costs = [float(r["delta_cost"]) for r in table_rows(multi_table)]
        assert all(a < b for a, b in zip(costs, costs[1:]))
        assert costs[-1] > 10  # b=100 is expensive (paper: 32)


class TestTable5:
    def test_structure_and_stability(self, ctx):
        res = run_experiment("table5", ctx=ctx, radius=2)
        (table,) = res.tables
        assert len(table.rows) == 12
        for row in table_rows(table):
            cost = float(row["opt cost"])
            assert cost <= 1.01
            if row["max cost (r=5)"]:
                assert float(row["max cost (r=5)"]) >= cost - 1e-9


class TestSharedDelayedOptima:
    """Per-week delayed optima shared by several artifacts run once per context."""

    @staticmethod
    def counted(monkeypatch, name):
        calls = []
        real = getattr(context_module, name)

        def wrapper(model, *args, **kwargs):
            calls.append(model)
            return real(model, *args, **kwargs)

        monkeypatch.setattr(context_module, name, wrapper)
        return calls

    @staticmethod
    def committed(eid):
        return (RESULTS_DIR / f"{eid}.txt").read_text(encoding="utf-8")

    def test_table5_then_table6_optimise_each_week_once(self, monkeypatch):
        calls = self.counted(monkeypatch, "optimize_delayed_cost")
        fresh = ReproContext(seed=2009, dt=2.0)
        table5 = run_experiment("table5", ctx=fresh, radius=5).render() + "\n"
        table6 = run_experiment("table6", ctx=fresh).render() + "\n"
        assert len(calls) == len(TABLE5_WEEKS)
        assert {id(m) for m in calls} == {id(fresh.model(w)) for w in TABLE5_WEEKS}
        assert table5 == self.committed("table5")
        assert table6 == self.committed("table6")

    def test_table4_and_fig8_share_the_ratio_curve(self, monkeypatch):
        calls = self.counted(monkeypatch, "cost_curve_delayed")
        fresh = ReproContext(seed=2009, dt=2.0)
        fig8 = run_experiment("fig8", ctx=fresh, b_max=5).render() + "\n"
        table4 = run_experiment("table4", ctx=fresh).render() + "\n"
        assert len(calls) == 1
        assert fig8 == self.committed("fig8")
        assert table4 == self.committed("table4")


class TestTable6:
    def test_transfer_quality(self, ctx):
        res = run_experiment("table6", ctx=ctx)
        matrix, summary = res.tables
        assert len(summary.rows) == 7
        # own parameters are optimal within each target's column
        by_target = {}
        for row in table_rows(matrix):
            by_target.setdefault(row["target week"], []).append(row)
        for target, rows in by_target.items():
            own = [r for r in rows if r["params from"] == target]
            assert own, target
            own_cost = float(own[0]["delta_cost"])
            best = min(float(r["delta_cost"]) for r in rows)
            assert own_cost == pytest.approx(best, abs=0.02)


class TestValidations:
    def test_val_mc_zscores_small(self, ctx):
        res = run_experiment("val-mc", ctx=ctx, n_tasks=5000)
        (table,) = res.tables
        zs = [float(r["z"]) for r in table_rows(table)]
        assert max(zs) < 4.5

    def test_val_des_ratios_near_one(self):
        res = run_experiment("val-des", n_tasks=60, probe_days=0.6)
        (table,) = res.tables
        ratios = [float(r["ratio"]) for r in table_rows(table)]
        assert all(0.5 < r < 2.0 for r in ratios)

    def test_eq5_discrepancy_grows_with_ratio(self, ctx):
        res = run_experiment("abl-eq5", ctx=ctx, t0_values=(300.0,),
                             ratios=(1.0, 1.5, 2.0))
        (table,) = res.tables
        errs = [abs(float(r["rel err"].rstrip("%"))) for r in table_rows(table)]
        assert errs[0] < 0.1          # exact at ratio 1
        assert errs[2] > errs[0]      # grows with overlap

    def test_adoption_erosion(self):
        res = run_experiment("abl-adopt", fleet_sizes=(20, 300))
        (table,) = res.tables
        rows = table_rows(table)
        burst_rows = [r for r in rows if "multiple" in r["strategy"]]
        j_small = float(burst_rows[0]["mean J"].rstrip("s"))
        j_large = float(burst_rows[-1]["mean J"].rstrip("s"))
        assert j_large > j_small  # load feedback erodes the gain

    def test_adoption_delayed_fleet_needs_context(self, ctx):
        # without a context there is no analytic model to calibrate from
        res = run_experiment("abl-adopt", fleet_sizes=(10, 20), window=3600.0)
        (table,) = res.tables
        assert not any("delayed" in r["strategy"] for r in table_rows(table))
        # with one, the surface-calibrated delayed fleet rides along
        res = run_experiment(
            "abl-adopt", ctx=ctx, fleet_sizes=(10, 20), window=3600.0
        )
        (table,) = res.tables
        delayed = [r for r in table_rows(table) if "delayed" in r["strategy"]]
        assert len(delayed) == 1
        assert float(delayed[0]["jobs/task"]) < 3.0  # lighter than the burst


class TestAblations:
    def test_rho_sensitivity_monotone(self, ctx):
        res = run_experiment("abl-rho", ctx=ctx, rho_values=(0.0, 0.1, 0.3))
        (table,) = res.tables
        singles = [float(r["single E_J"].rstrip("s")) for r in table_rows(table)]
        bursts = [float(r["burst3 E_J"].rstrip("s")) for r in table_rows(table)]
        assert singles == sorted(singles)
        assert bursts == sorted(bursts)

    def test_rho_zero_matches_faultless_body(self, ctx):
        res = run_experiment("abl-rho", ctx=ctx, rho_values=(0.0,))
        (table,) = res.tables
        e_j = float(table.rows[0][2].rstrip("s"))
        assert 200 < e_j < 1500  # sane, finite

    def test_family_sensitivity_ranks_tail_aware_families(self, ctx):
        res = run_experiment("abl-family", ctx=ctx)
        (table,) = res.tables
        gaps = {
            r["model"]: float(r["E_J vs ECDF"])
            for r in table_rows(table)
            if r["E_J vs ECDF"] != ""
        }
        assert gaps["loglogistic"] < gaps["gamma"]
        assert min(gaps.values()) < 0.1  # someone tracks the ECDF closely

    def test_resolution_convergence(self, ctx):
        res = run_experiment("abl-grid", ctx=ctx, dt_values=(8.0, 2.0, 1.0))
        (table,) = res.tables
        e_j = [float(r["single E_J"].rstrip("s")) for r in table_rows(table)]
        ref = e_j[-1]
        assert all(abs(e - ref) / ref < 0.02 for e in e_j)


class TestMultiVo:
    def test_small_sweep_structure_and_claims(self):
        res = run_experiment(
            "multi-vo", n_tasks=600, adoption_levels=(0.0, 0.5, 1.0)
        )
        sweep, shares = res.tables
        assert len(sweep.rows) == 3
        rows = table_rows(sweep)
        # no adopters at 0%, no baseline column at 100%
        assert rows[0]["mean J adopters"] == ""
        assert rows[-1]["mean J biomed rest"] == ""
        # burst width 3 doubles jobs/task once half the biomed VO adopts
        assert float(rows[-1]["jobs/task"]) > float(rows[0]["jobs/task"]) + 0.5
        # adopters beat their VO's single-submission baseline
        adopters = float(rows[1]["mean J adopters"].rstrip("s"))
        baseline = float(rows[1]["mean J biomed rest"].rstrip("s"))
        assert adopters < baseline
        # fair-share usage tracks the 50/30/20 allocation per site
        for row in table_rows(shares):
            assert float(row["biomed"].strip("+%")) == pytest.approx(50, abs=8)
        assert len(res.notes) == 4

    def test_validation(self):
        with pytest.raises(ValueError, match="n_tasks"):
            run_experiment("multi-vo", n_tasks=10)
        with pytest.raises(ValueError, match="adoption levels"):
            run_experiment("multi-vo", n_tasks=600, adoption_levels=(2.0,))
        with pytest.raises(ValueError, match="b must be"):
            run_experiment("multi-vo", n_tasks=600, b=1)


class TestGridWeather:
    def test_small_run_structure(self):
        res = run_experiment(
            "grid-weather", n_tasks=20, task_interval=60.0, warm=1800.0
        )
        frontier, telemetry = res.tables
        assert len(frontier.rows) == 6  # 3 regimes x healing on/off
        assert len(telemetry.rows) == 6
        rows = table_rows(frontier)
        regimes = {r["regime"] for r in rows}
        assert regimes == {"calm", "storms", "black hole"}
        for row in rows:
            assert row["best U"]  # every cell elects a winner
        tel = table_rows(telemetry)
        by_cell = {(r["regime"], r["self-healing"]): r for r in tel}
        # calm weather reports no structural damage
        assert by_cell[("calm", "off")]["outages"] == 0
        assert by_cell[("calm", "off")]["black-hole failures"] == 0
        # the hole regime records hole failures; healing resubmits
        assert int(by_cell[("black hole", "off")]["black-hole failures"]) > 0
        assert int(by_cell[("black hole", "on")]["agent resubmits"]) > 0
        assert len(res.notes) == 5
        assert any("U = E(J)" in n for n in res.notes)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_tasks"):
            run_experiment("grid-weather", n_tasks=5)
        with pytest.raises(ValueError, match="job_cost"):
            run_experiment("grid-weather", job_cost=-1.0)


class TestBrokerStorm:
    def test_small_run_structure(self):
        res = run_experiment(
            "broker-storm", n_tasks=20, task_interval=60.0, warm=1800.0
        )
        frontier, telemetry = res.tables
        assert len(frontier.rows) == 4  # 2 regimes x retry on/off
        assert len(telemetry.rows) == 4
        rows = table_rows(frontier)
        assert {r["regime"] for r in rows} == {"calm", "broker storm"}
        assert {r["resilience"] for r in rows} == {"off", "retry+failover"}
        for row in rows:
            assert row["best U"]  # every cell elects a winner
        tel = table_rows(telemetry)
        by_cell = {(r["regime"], r["resilience"]): r for r in tel}
        # calm weather downs no broker
        assert by_cell[("calm", "off")]["broker outages"] == 0
        assert len(res.notes) == 6
        assert any("U = E(J)" in n for n in res.notes)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_tasks"):
            run_experiment("broker-storm", n_tasks=5)
        with pytest.raises(ValueError, match="job_cost"):
            run_experiment("broker-storm", job_cost=-1.0)


class TestRender:
    def test_render_includes_tables_and_notes(self, ctx):
        res = run_experiment("table3", ctx=ctx)
        text = res.render()
        assert "table3" in text
        assert "notes:" in text
        assert "Table 3" in text
