"""Tests for MLE fitting, model selection and truncated moments."""

import numpy as np
import pytest
from scipy.integrate import quad

from repro.distributions import (
    Exponential,
    LogNormal,
    fit_distribution,
    select_model,
    truncated_mean_std,
)
from repro.distributions.fitting import SUPPORTED_FAMILIES


@pytest.fixture(scope="module")
def lognormal_samples():
    return LogNormal(mu=5.5, sigma=0.8).rvs(4000, rng=42)


class TestFitDistribution:
    def test_recovers_lognormal_parameters(self, lognormal_samples):
        res = fit_distribution(lognormal_samples, "lognormal")
        assert res.distribution.mu == pytest.approx(5.5, abs=0.05)
        assert res.distribution.sigma == pytest.approx(0.8, abs=0.05)

    def test_recovers_exponential_rate(self):
        samples = Exponential(rate=0.02).rvs(4000, rng=1)
        res = fit_distribution(samples, "exponential")
        assert res.distribution.rate == pytest.approx(0.02, rel=0.1)

    def test_all_supported_families_fit_something(self, lognormal_samples):
        for family in SUPPORTED_FAMILIES:
            res = fit_distribution(lognormal_samples, family)
            assert res.family == family
            assert np.isfinite(res.aic)
            assert 0 <= res.ks_statistic <= 1

    def test_unknown_family_rejected(self, lognormal_samples):
        with pytest.raises(ValueError, match="unknown family"):
            fit_distribution(lognormal_samples, "cauchy")

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least 8"):
            fit_distribution(np.ones(3), "lognormal")

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            fit_distribution(np.array([-1.0] * 20), "lognormal")

    def test_nonfinite_samples_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            fit_distribution(np.array([1.0] * 20 + [np.inf]), "lognormal")

    def test_summary_mentions_family_and_aic(self, lognormal_samples):
        res = fit_distribution(lognormal_samples, "weibull")
        assert "weibull" in res.summary()
        assert "AIC" in res.summary()

    def test_aic_bic_consistent_with_loglik(self, lognormal_samples):
        res = fit_distribution(lognormal_samples, "lognormal")
        n = res.n_samples
        assert res.aic == pytest.approx(2 * 2 - 2 * res.log_likelihood)
        assert res.bic == pytest.approx(2 * np.log(n) - 2 * res.log_likelihood)


class TestSelectModel:
    def test_true_family_wins(self, lognormal_samples):
        ranked = select_model(lognormal_samples, criterion="aic")
        assert ranked[0].family == "lognormal"

    def test_ranking_is_sorted(self, lognormal_samples):
        ranked = select_model(lognormal_samples, criterion="bic")
        bics = [r.bic for r in ranked]
        assert bics == sorted(bics)

    def test_ks_criterion(self, lognormal_samples):
        ranked = select_model(lognormal_samples, criterion="ks")
        stats = [r.ks_statistic for r in ranked]
        assert stats == sorted(stats)

    def test_invalid_criterion(self, lognormal_samples):
        with pytest.raises(ValueError, match="criterion"):
            select_model(lognormal_samples, criterion="nope")

    def test_unknown_family_raises(self, lognormal_samples):
        with pytest.raises(ValueError, match="unknown family"):
            select_model(lognormal_samples, families=["lognormal", "zeta"])

    def test_subset_of_families(self, lognormal_samples):
        ranked = select_model(lognormal_samples, families=["weibull", "gamma"])
        assert {r.family for r in ranked} <= {"weibull", "gamma"}


class TestTruncatedMoments:
    def test_exponential_truncated_mean_closed_form(self):
        lam, u = 0.01, 300.0
        d = Exponential(rate=lam)
        expected = 1 / lam - u * np.exp(-lam * u) / (1 - np.exp(-lam * u))
        mean, _ = truncated_mean_std(d, u)
        assert mean == pytest.approx(expected, rel=1e-5)

    def test_truncation_reduces_mean(self):
        d = LogNormal(mu=6.0, sigma=1.0)
        m_narrow, _ = truncated_mean_std(d, 500.0)
        m_wide, _ = truncated_mean_std(d, 50_000.0)
        assert m_narrow < m_wide <= np.exp(6.0 + 0.5) + 1.0

    def test_wide_truncation_approaches_full_moments(self):
        d = LogNormal(mu=5.0, sigma=0.5)
        mean, std = truncated_mean_std(d, 1e5, n_points=400_001)
        full_mean = np.exp(5.0 + 0.5**2 / 2)
        assert mean == pytest.approx(full_mean, rel=1e-3)
        assert std == pytest.approx(full_mean * np.sqrt(np.expm1(0.5**2)), rel=1e-2)

    def test_validation(self):
        d = Exponential(rate=1.0)
        with pytest.raises(ValueError, match="upper"):
            truncated_mean_std(d, -1.0)

    @pytest.mark.parametrize(
        "dist",
        [LogNormal(mu=6.0, sigma=1.0), Exponential(rate=0.004)],
        ids=lambda d: d.family,
    )
    @pytest.mark.parametrize("n_points", [8001, 20001])
    def test_mean_std_match_quadrature(self, dist, n_points):
        # E[R^k | R <= u] by adaptive quadrature, independent of the grid
        u = 10_000.0
        mass = float(dist.cdf(u))
        m1, m2 = (
            quad(lambda t: t**k * float(dist.pdf(t)), 0.0, u, limit=200)[0] / mass
            for k in (1, 2)
        )
        mean, std = truncated_mean_std(dist, u, n_points=n_points)
        assert mean == pytest.approx(m1, rel=1e-5)
        assert std == pytest.approx(np.sqrt(m2 - m1 * m1), rel=1e-4)

    @pytest.mark.parametrize("n_points", [1, 0, -3])
    def test_fewer_than_two_points_rejected(self, n_points):
        d = Exponential(rate=0.01)
        with pytest.raises(ValueError, match="n_points"):
            truncated_mean_std(d, 300.0, n_points=n_points)
