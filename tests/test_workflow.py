"""Tests for the high-level submission planner."""

import numpy as np
import pytest

from repro.core.strategies import MultipleSubmission, SingleResubmission
from repro.workflow import plan_submissions


class TestPlanSubmissions:
    def test_plan_from_gridded_model(self, gridded):
        plan = plan_submissions(gridded, max_parallel=5.0, t0_window=(100, 1500))
        assert plan.candidates
        names = [c.name for c in plan.candidates]
        assert "single" in names
        assert any(n.startswith("delayed") for n in names)

    def test_plan_from_trace(self, trace_2006):
        plan = plan_submissions(
            trace_2006, max_parallel=3.0, t0_window=(100, 1500)
        )
        assert plan.best.e_j > 0

    def test_objective_e_j_ranks_fastest_first(self, gridded):
        plan = plan_submissions(
            gridded, max_parallel=10.0, objective="e_j", t0_window=(100, 1500)
        )
        e_js = [c.e_j for c in plan.candidates]
        assert e_js == sorted(e_js)
        # with a generous budget, the largest burst wins on speed
        assert isinstance(plan.best.strategy, MultipleSubmission)
        assert plan.best.strategy.b == 5

    def test_objective_cost_prefers_win_win(self, gridded):
        plan = plan_submissions(
            gridded, max_parallel=10.0, objective="cost", t0_window=(100, 1500)
        )
        costs = [c.cost for c in plan.candidates]
        assert costs == sorted(costs)
        assert plan.best.cost < 1.0  # the delayed win-win configuration

    def test_objective_sigma(self, gridded):
        plan = plan_submissions(
            gridded, max_parallel=10.0, objective="sigma", t0_window=(100, 1500)
        )
        sigmas = [c.sigma_j for c in plan.candidates]
        assert sigmas == sorted(sigmas)

    def test_budget_rejects_bursts(self, gridded):
        plan = plan_submissions(
            gridded, max_parallel=1.6, b_values=(2, 3), t0_window=(100, 1500)
        )
        names = [c.name for c in plan.candidates]
        assert all(not n.startswith("multiple") for n in names)
        assert plan.rejected
        reasons = [r for _, r in plan.rejected]
        assert all("budget" in r for r in reasons)

    def test_cost_ceiling(self, gridded):
        plan = plan_submissions(
            gridded,
            max_parallel=10.0,
            max_cost=1.0,
            t0_window=(100, 1500),
        )
        assert all(c.cost <= 1.0 + 1e-9 for c in plan.candidates)
        assert any("ceiling" in r for _, r in plan.rejected)

    def test_single_always_feasible_within_default_budget(self, gridded):
        plan = plan_submissions(gridded, max_parallel=1.0, t0_window=(100, 1500))
        # N_// = 1 exactly: single always survives a budget of 1
        assert any(isinstance(c.strategy, SingleResubmission)
                   for c in plan.candidates)

    def test_deadline_quantile_reported(self, gridded):
        plan = plan_submissions(
            gridded,
            max_parallel=10.0,
            deadline_quantile=0.9,
            objective="deadline",
            t0_window=(100, 1500),
        )
        deadlines = [c.deadline for c in plan.candidates]
        assert all(np.isfinite(d) for d in deadlines)
        assert deadlines == sorted(deadlines)
        # the 90th percentile exceeds the mean for these heavy tails
        assert plan.best.deadline > 0

    def test_best_raises_when_nothing_feasible(self, gridded):
        plan = plan_submissions(
            gridded,
            max_parallel=1.0,
            max_cost=0.1,  # unattainable
            t0_window=(100, 1500),
        )
        with pytest.raises(ValueError, match="no strategy satisfies"):
            _ = plan.best

    def test_render_lists_feasible_and_rejected(self, gridded):
        plan = plan_submissions(
            gridded, max_parallel=1.6, b_values=(3,), t0_window=(100, 1500)
        )
        text = plan.render()
        assert "rejected" in text
        assert "delayed" in text

    def test_validation(self, gridded):
        with pytest.raises(ValueError, match="objective"):
            plan_submissions(gridded, objective="speed")
        with pytest.raises(ValueError, match="deadline_quantile"):
            plan_submissions(gridded, objective="deadline")
        with pytest.raises(ValueError, match="max_parallel"):
            plan_submissions(gridded, max_parallel=0.5)
        with pytest.raises(ValueError):
            plan_submissions(gridded, deadline_quantile=1.5)
