"""Monte-Carlo replay vs analytic moments — the end-to-end math check."""

import numpy as np
import pytest

from repro.core.strategies import (
    SingleResubmission,
    delayed_moments,
    multiple_moments,
)
from repro.core.strategies.delayed import mean_parallel_exact
from repro.montecarlo import (
    agreement_zscore,
    mc_summary,
    simulate_delayed,
    simulate_multiple,
    simulate_single,
)

N = 30_000  # tasks per replay; stderr ~ sigma/173


class TestSimulateSingle:
    def test_agrees_with_eq1(self, lognormal_model, gridded):
        run = simulate_single(lognormal_model, 600.0, N, rng=1)
        mom = SingleResubmission(600.0).moments(gridded)
        assert agreement_zscore(mom.expectation, run.j) < 4.0

    def test_agrees_with_eq2(self, lognormal_model, gridded):
        run = simulate_single(lognormal_model, 600.0, N, rng=2)
        mom = SingleResubmission(600.0).moments(gridded)
        assert run.std_j == pytest.approx(mom.std, rel=0.05)

    def test_job_count_is_geometric(self, lognormal_model, gridded):
        t_inf = 600.0
        run = simulate_single(lognormal_model, t_inf, N, rng=3)
        p = float(gridded.F[gridded.index_of(t_inf)])
        assert run.jobs_submitted.mean() == pytest.approx(1.0 / p, rel=0.05)

    def test_n_parallel_is_one(self, lognormal_model):
        run = simulate_single(lognormal_model, 600.0, 100, rng=4)
        assert (run.n_parallel == 1.0).all()

    def test_all_j_below_bound(self, lognormal_model):
        # every task ends with a success: J = (k-1)·t_inf + R, R < t_inf
        run = simulate_single(lognormal_model, 600.0, 1000, rng=5)
        assert (run.j % 600.0 < 600.0).all()
        assert (run.j >= 0).all()

    def test_validation(self, lognormal_model):
        with pytest.raises(ValueError):
            simulate_single(lognormal_model, -1.0, 10)
        with pytest.raises(ValueError):
            simulate_single(lognormal_model, 100.0, 0)

    def test_unreachable_timeout_raises(self, lognormal_model):
        # the model has a 100 s floor: t_inf below it never succeeds
        with pytest.raises(RuntimeError, match="did not converge"):
            simulate_single(lognormal_model, 50.0, 10, rng=0)


class TestSimulateMultiple:
    @pytest.mark.parametrize("b", (2, 5))
    def test_agrees_with_eq3(self, lognormal_model, gridded, b):
        run = simulate_multiple(lognormal_model, b, 800.0, N, rng=b)
        mom = multiple_moments(gridded, b, 800.0)
        assert agreement_zscore(mom.expectation, run.j) < 4.0

    def test_agrees_with_eq4(self, lognormal_model, gridded):
        run = simulate_multiple(lognormal_model, 3, 800.0, N, rng=7)
        mom = multiple_moments(gridded, 3, 800.0)
        assert run.std_j == pytest.approx(mom.std, rel=0.05)

    def test_jobs_counted_in_batches(self, lognormal_model):
        run = simulate_multiple(lognormal_model, 4, 800.0, 1000, rng=8)
        assert (run.jobs_submitted % 4 == 0).all()

    def test_b1_matches_single(self, lognormal_model):
        rs = simulate_single(lognormal_model, 700.0, N, rng=9)
        rm = simulate_multiple(lognormal_model, 1, 700.0, N, rng=9)
        # same seed, same draw pattern -> identical replay
        np.testing.assert_allclose(rs.j, rm.j)

    def test_validation(self, lognormal_model):
        with pytest.raises(ValueError):
            simulate_multiple(lognormal_model, 0, 100.0, 10)


class TestSimulateDelayed:
    def test_agrees_with_closed_form(self, lognormal_model, gridded):
        run = simulate_delayed(lognormal_model, 400.0, 600.0, N, rng=10)
        mom = delayed_moments(gridded, 400.0, 600.0)
        assert agreement_zscore(mom.expectation, run.j) < 4.0
        assert run.std_j == pytest.approx(mom.std, rel=0.05)

    def test_exact_n_parallel_agrees(self, lognormal_model, gridded):
        run = simulate_delayed(lognormal_model, 400.0, 600.0, N, rng=11)
        exact = mean_parallel_exact(gridded, 400.0, 600.0)
        assert run.mean_parallel == pytest.approx(exact, abs=0.01)

    def test_degenerate_ratio_one_matches_single(self, lognormal_model, gridded):
        run = simulate_delayed(lognormal_model, 500.0, 500.0, N, rng=12)
        mom = SingleResubmission(500.0).moments(gridded)
        assert agreement_zscore(mom.expectation, run.j) < 4.0

    def test_job_count_lower_than_single(self, lognormal_model):
        # delayed keeps fewer copies than resubmitting at t0 would
        run = simulate_delayed(lognormal_model, 400.0, 700.0, 5000, rng=13)
        assert run.jobs_submitted.mean() < 4.0
        assert (run.jobs_submitted >= 1).all()

    def test_validation(self, lognormal_model):
        with pytest.raises(ValueError, match="2"):
            simulate_delayed(lognormal_model, 400.0, 900.0, 10)
        with pytest.raises(ValueError):
            simulate_delayed(lognormal_model, 400.0, 600.0, 0)


class TestCompareHelpers:
    def test_mc_summary_fields(self, rng):
        s = mc_summary(rng.normal(10.0, 2.0, size=10_000))
        assert s.mean == pytest.approx(10.0, abs=0.1)
        assert s.std == pytest.approx(2.0, abs=0.1)
        assert s.n == 10_000

    def test_mc_summary_validation(self):
        with pytest.raises(ValueError):
            mc_summary(np.array([1.0]))
        with pytest.raises(ValueError):
            mc_summary(np.array([1.0, np.inf]))

    def test_agreement_zscore_zero_spread(self):
        assert agreement_zscore(5.0, np.full(100, 5.0)) == 0.0
        assert agreement_zscore(6.0, np.full(100, 5.0)) == np.inf
