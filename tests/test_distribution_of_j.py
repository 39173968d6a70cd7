"""Tests for the full J-distribution machinery (survival + quantiles)."""

import numpy as np
import pytest

from repro.core.distribution_of_j import (
    multiple_survival,
    strategy_quantile,
    survival_to_quantile,
)
from repro.core.strategies import (
    DelayedResubmission,
    MultipleSubmission,
    SingleResubmission,
    delayed_survival,
    multiple_moments,
)
from repro.montecarlo import simulate_multiple, simulate_single

from oracles import integrate


class TestSingleSurvival:
    def test_starts_at_one_and_decays(self, gridded):
        s = multiple_survival(gridded, 1, 600.0)
        assert s[0] == pytest.approx(1.0)
        assert (np.diff(s) <= 1e-12).all()
        assert s[-1] < 1e-6

    def test_lattice_structure(self, gridded):
        # at t = m * t_inf the survival equals q^m
        t_inf = 600.0
        k = gridded.index_of(t_inf)
        q = float(gridded.S[k])
        s = multiple_survival(gridded, 1, t_inf)
        for m in (1, 2, 3):
            assert s[m * k] == pytest.approx(q**m, rel=1e-9)

    def test_integrates_to_eq1(self, gridded):
        t_inf = 600.0
        s = multiple_survival(gridded, 1, t_inf)
        e_direct = integrate(gridded.grid, s)
        e_closed = SingleResubmission(t_inf).moments(gridded).expectation
        # the grid truncates a tiny geometric tail
        assert e_direct == pytest.approx(e_closed, rel=1e-3)

    def test_matches_monte_carlo_cdf(self, lognormal_model, gridded):
        t_inf = 600.0
        s = multiple_survival(gridded, 1, t_inf)
        run = simulate_single(lognormal_model, t_inf, 20_000, rng=5)
        for t in (300.0, 900.0, 1800.0):
            empirical = (run.j > t).mean()
            analytic = s[gridded.index_of(t)]
            assert analytic == pytest.approx(empirical, abs=0.02)

    def test_validation(self, gridded):
        with pytest.raises(ValueError):
            multiple_survival(gridded, 1, 0.5)


class TestMultipleSurvival:
    def test_b1_equals_single(self, gridded):
        # single resubmission's lattice: P(J > m·t∞ + u) = S(t∞)^m · S(u)
        k = gridded.index_of(700.0)
        rounds, u = np.divmod(np.arange(gridded.grid.n), k)
        np.testing.assert_allclose(
            multiple_survival(gridded, 1, 700.0),
            float(gridded.S[k]) ** rounds * gridded.S[u],
            rtol=1e-12,
        )

    def test_larger_b_dominates(self, gridded):
        s2 = multiple_survival(gridded, 2, 700.0)
        s5 = multiple_survival(gridded, 5, 700.0)
        assert (s5 <= s2 + 1e-12).all()

    def test_integrates_to_eq3(self, gridded):
        s = multiple_survival(gridded, 3, 800.0)
        e_closed = multiple_moments(gridded, 3, 800.0).expectation
        assert integrate(gridded.grid, s) == pytest.approx(e_closed, rel=1e-3)

    def test_matches_monte_carlo(self, lognormal_model, gridded):
        s = multiple_survival(gridded, 3, 800.0)
        run = simulate_multiple(lognormal_model, 3, 800.0, 20_000, rng=6)
        t = 400.0
        assert s[gridded.index_of(t)] == pytest.approx(
            (run.j > t).mean(), abs=0.02
        )

    def test_validation(self, gridded):
        with pytest.raises(ValueError):
            multiple_survival(gridded, 0, 700.0)


class TestQuantiles:
    def test_median_brackets_expectation(self, gridded):
        # heavy tail: median < mean for every strategy here
        s = SingleResubmission(t_inf=600.0)
        median = strategy_quantile(gridded, s, 0.5)
        assert 0 < median < s.expectation(gridded)

    def test_quantiles_monotone_in_q(self, gridded):
        strat = MultipleSubmission(b=3, t_inf=800.0)
        qs = [strategy_quantile(gridded, strat, q) for q in (0.25, 0.5, 0.9, 0.99)]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_delayed_quantile_consistent_with_survival(self, gridded):
        strat = DelayedResubmission(t0=400.0, t_inf=600.0)
        q90 = strategy_quantile(gridded, strat, 0.9)
        surv = delayed_survival(gridded, 400.0, 600.0)
        k = gridded.index_of(q90)
        assert surv[k] == pytest.approx(0.1, abs=0.01)

    def test_better_strategy_has_lower_deadline(self, gridded):
        q_single = strategy_quantile(gridded, SingleResubmission(600.0), 0.95)
        q_multi = strategy_quantile(
            gridded, MultipleSubmission(b=5, t_inf=600.0), 0.95
        )
        assert q_multi < q_single

    def test_unreachable_quantile_raises(self, gridded):
        surv = np.full(gridded.grid.n, 0.5)  # never resolves past 0.5
        with pytest.raises(ValueError, match="not reached"):
            survival_to_quantile(gridded, surv, 0.9)

    def test_q_validation(self, gridded):
        s = multiple_survival(gridded, 1, 600.0)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                survival_to_quantile(gridded, s, bad)

    @pytest.mark.parametrize("t", [300.0, 600.0, 1200.0])
    def test_delayed_at_its_lower_boundary_is_single(self, gridded, t):
        # t0 == t∞: each copy is submitted as the last one is cancelled
        for q in (0.25, 0.5, 0.9, 0.99):
            assert strategy_quantile(
                gridded, DelayedResubmission(t0=t, t_inf=t), q
            ) == strategy_quantile(gridded, SingleResubmission(t), q)

    def test_unsupported_strategy_type(self, gridded):
        with pytest.raises(TypeError):
            strategy_quantile(gridded, object(), 0.5)

    def test_quantile_matches_monte_carlo(self, lognormal_model, gridded):
        # the cdf of J has plateaus (no mass inside [m·t_inf, m·t_inf+floor]),
        # so compare cdf values at the analytic quantile rather than
        # quantiles directly (which are noise-fragile on flat regions)
        strat = SingleResubmission(t_inf=700.0)
        q95 = strategy_quantile(gridded, strat, 0.95)
        run = simulate_single(lognormal_model, 700.0, 30_000, rng=8)
        assert (run.j <= q95).mean() == pytest.approx(0.95, abs=0.01)
