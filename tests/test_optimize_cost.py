"""Tests for the optimisers and the Δcost criterion (§7)."""

import numpy as np
import pytest

from repro.core.cost import CostPoint, cost_curve_delayed, cost_curve_multiple, delta_cost
from repro.core.optimize import (
    optimize_delayed,
    optimize_delayed_cost,
    optimize_delayed_ratio,
    optimize_multiple,
    optimize_single,
)
from repro.core.strategies import (
    SingleResubmission,
    delayed_cost_bands,
    multiple_expectation_sweep,
)
from repro.experiments.context import get_context

from oracles import single_moments_reference


class TestOptimizeSingle:
    def test_finds_global_minimum_of_sweep(self, gridded):
        opt = optimize_single(gridded)
        sweep = multiple_expectation_sweep(gridded, 1)
        assert opt.e_j == pytest.approx(np.nanmin(sweep[np.isfinite(sweep)]))

    def test_respects_search_window(self, gridded):
        opt = optimize_single(gridded, t_min=1000.0, t_max=2000.0)
        assert 1000.0 <= opt.t_inf <= 2000.0

    def test_empty_window_raises(self, gridded):
        with pytest.raises(ValueError, match="empty"):
            optimize_single(gridded, t_min=2000.0, t_max=1000.0)

    def test_window_below_support_raises(self, gridded):
        with pytest.raises(ValueError, match="infinite"):
            optimize_single(gridded, t_min=2.0, t_max=50.0)

    def test_sigma_consistent(self, gridded):
        opt = optimize_single(gridded)
        assert opt.sigma_j == pytest.approx(
            SingleResubmission(opt.t_inf).moments(gridded).std
        )


class TestOneRoundLaw:
    @pytest.mark.parametrize("dt", [1.0, 2.0])
    def test_b1_burst_is_single_on_every_week(self, dt):
        # the b = 1 burst optimises to single resubmission's optimum bit
        # for bit, and that optimum is still Eqs. (1)-(2) from F̃, A, A1
        ctx = get_context(dt=dt)
        for week in ctx.weeks:
            model = ctx.model(week)
            single = optimize_single(model)
            burst = optimize_multiple(model, 1)
            assert (burst.t_inf, burst.e_j, burst.sigma_j) == (
                single.t_inf,
                single.e_j,
                single.sigma_j,
            ), week
            with np.errstate(divide="ignore", invalid="ignore"):
                eq1 = np.where(model.F > 0.0, model.A / model.F, np.inf)
            k = 1 + int(np.argmin(eq1[1:]))
            ref = single_moments_reference(model, model.grid.time_of(k))
            assert (single.t_inf, single.e_j, single.sigma_j) == (
                model.grid.time_of(k),
                ref.expectation,
                ref.std,
            ), week


class TestOptimizeMultiple:
    def test_e_j_decreases_with_b(self, gridded):
        values = [optimize_multiple(gridded, b).e_j for b in (1, 2, 3, 5, 8)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_b1_equals_single(self, gridded):
        s = optimize_single(gridded)
        m = optimize_multiple(gridded, 1)
        assert m.e_j == pytest.approx(s.e_j)
        assert m.t_inf == s.t_inf

    def test_sigma_decreases_with_b(self, gridded):
        values = [optimize_multiple(gridded, b).sigma_j for b in (1, 3, 8)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_diminishing_returns(self, gridded):
        # paper Table 2: ΔEJ/(b-1) shrinks as b grows
        e = [optimize_multiple(gridded, b).e_j for b in (1, 2, 3, 4, 5, 6)]
        gains = [(e[i] - e[i + 1]) / e[i] for i in range(len(e) - 1)]
        assert all(a > b for a, b in zip(gains, gains[1:]))


class TestOptimizeDelayed:
    def test_beats_single(self, gridded):
        s = optimize_single(gridded)
        d = optimize_delayed(gridded, t0_min=150.0, t0_max=1500.0)
        assert d.e_j < s.e_j

    def test_constraint_satisfied(self, gridded):
        d = optimize_delayed(gridded, t0_min=150.0, t0_max=1500.0)
        assert d.t0 <= d.t_inf <= 2.0 * d.t0 + 1e-9

    def test_coarse_refinement_improves_or_matches(self, gridded):
        coarse = optimize_delayed(gridded, t0_min=150.0, t0_max=1500.0, coarse=32)
        fine = optimize_delayed(gridded, t0_min=150.0, t0_max=1500.0, coarse=1)
        assert fine.e_j <= coarse.e_j + 1e-6

    def test_cost_reported_when_reference_given(self, gridded):
        s = optimize_single(gridded)
        d = optimize_delayed(
            gridded, t0_min=150.0, t0_max=1500.0, e_j_single=s.e_j
        )
        assert d.cost == pytest.approx(d.n_parallel * d.e_j / s.e_j)

    def test_cost_nan_without_reference(self, gridded):
        d = optimize_delayed(gridded, t0_min=150.0, t0_max=1500.0)
        assert np.isnan(d.cost)

    def test_n_parallel_in_paper_bounds(self, gridded):
        d = optimize_delayed(gridded, t0_min=150.0, t0_max=1500.0)
        assert 1.0 <= d.n_parallel <= 2.0


class TestCostReferenceValidation:
    """A non-finite or non-positive ``e_j_single`` is rejected by name."""

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 0.0, -3.0])
    def test_optimize_delayed_cost_rejects(self, gridded, bad):
        with pytest.raises(ValueError, match="e_j_single"):
            optimize_delayed_cost(gridded, bad, t0_min=150.0, t0_max=1500.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0])
    def test_cost_bands_reject(self, gridded, bad):
        with pytest.raises(ValueError, match="e_j_single"):
            delayed_cost_bands(gridded, np.arange(100, 120), bad)


class TestOptimizeDelayedRatio:
    def test_ratio_is_respected(self, gridded):
        for ratio in (1.2, 1.5, 1.9):
            d = optimize_delayed_ratio(gridded, ratio, t0_min=150.0, t0_max=1500.0)
            assert d.t_inf / d.t0 == pytest.approx(ratio, abs=0.05)

    def test_ratio_one_degenerates_to_single(self, gridded):
        s = optimize_single(gridded)
        d = optimize_delayed_ratio(gridded, 1.0, t0_min=150.0, t0_max=3000.0)
        # optimum over t0 with t_inf = t0 == optimal single resubmission
        assert d.e_j == pytest.approx(s.e_j, rel=1e-6)

    def test_constrained_no_better_than_global(self, gridded):
        free = optimize_delayed(gridded, t0_min=150.0, t0_max=1500.0)
        for ratio in (1.1, 1.4, 2.0):
            tied = optimize_delayed_ratio(gridded, ratio, t0_min=150.0, t0_max=1500.0)
            assert tied.e_j >= free.e_j - 1e-6

    def test_ratio_validation(self, gridded):
        with pytest.raises(ValueError, match="ratio"):
            optimize_delayed_ratio(gridded, 2.5)
        with pytest.raises(ValueError, match="ratio"):
            optimize_delayed_ratio(gridded, 0.9)


class TestDeltaCost:
    def test_single_reference_cost_is_one(self, gridded):
        s = optimize_single(gridded)
        assert delta_cost(1.0, s.e_j, s.e_j) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            delta_cost(1.0, 100.0, 0.0)
        with pytest.raises(ValueError):
            delta_cost(0.5, 100.0, 100.0)

    def test_cost_curve_multiple_increasing_for_large_b(self, gridded):
        s = optimize_single(gridded)
        points = cost_curve_multiple(gridded, [1, 2, 4, 8, 16], s.e_j)
        costs = [p.cost for p in points]
        assert costs[0] == pytest.approx(1.0)
        # paper Fig. 8: integer N_// costs increase beyond ~2 copies
        assert costs[-1] > costs[1]
        assert all(isinstance(p, CostPoint) for p in points)

    def test_cost_curve_multiple_params(self, gridded):
        s = optimize_single(gridded)
        (point,) = cost_curve_multiple(gridded, [3], s.e_j)
        assert point.params["b"] == 3
        assert point.n_parallel == 3.0

    def test_cost_curve_delayed_has_sub_unit_costs(self, gridded):
        # paper §7: some delayed configurations achieve Δcost < 1
        s = optimize_single(gridded)
        points = cost_curve_delayed(
            gridded, [1.1, 1.2, 1.3, 1.5], s.e_j
        )
        assert min(p.cost for p in points) < 1.02
        assert all(1.0 <= p.n_parallel <= 2.0 for p in points)

    def test_optimize_delayed_cost_beats_curve(self, gridded):
        s = optimize_single(gridded)
        best = optimize_delayed_cost(gridded, s.e_j, t0_min=150.0, t0_max=1500.0)
        points = cost_curve_delayed(gridded, [1.25, 1.5], s.e_j)
        assert best.cost <= min(p.cost for p in points) + 1e-9
        assert best.cost < 1.0  # the paper's headline result
        assert best.e_j < s.e_j  # and it still improves latency

    def test_optimize_delayed_cost_validation(self, gridded):
        with pytest.raises(ValueError):
            optimize_delayed_cost(gridded, 0.0)
