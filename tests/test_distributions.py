"""Tests for the parametric families and combinators."""

import numpy as np
import pytest
import scipy.stats as st

from repro.distributions import (
    EmpiricalDistribution,
    Exponential,
    Gamma,
    LogLogistic,
    LogNormal,
    Pareto,
    ShiftedDistribution,
    TruncatedDistribution,
    Weibull,
)

ALL_FAMILIES = [
    LogNormal(mu=5.0, sigma=1.2),
    Weibull(shape=0.8, scale=400.0),
    Gamma(shape=1.5, scale=300.0),
    Exponential(rate=1 / 500.0),
    Pareto(alpha=2.5, scale=600.0),
    LogLogistic(shape=2.0, scale=350.0),
]


#: the frozen scipy distribution each family of ALL_FAMILIES is defined as
FROZEN_REFERENCES = [
    st.lognorm(s=1.2, scale=np.exp(5.0)),
    st.weibull_min(c=0.8, scale=400.0),
    st.gamma(a=1.5, scale=300.0),
    st.expon(scale=500.0),
    st.lomax(c=2.5, scale=600.0),
    st.fisk(c=2.0, scale=350.0),
]


def _reported(x) -> float:
    """A scipy moment as the families report it (non-finite -> inf)."""
    return float(x) if np.isfinite(x) else float("inf")


@pytest.mark.parametrize(
    "dist, frozen",
    list(zip(ALL_FAMILIES, FROZEN_REFERENCES)),
    ids=[d.family for d in ALL_FAMILIES],
)
class TestMatchesFrozenScipy:
    """Forwarding to the shared generator equals ``rv_frozen`` bit for bit."""

    def test_functions_of_t(self, dist, frozen):
        t = np.r_[0.0, np.geomspace(1e-3, 1e5, 400)]
        with np.errstate(divide="ignore"):  # Weibull k < 1: pdf(0) = inf
            np.testing.assert_array_equal(dist.pdf(t), frozen.pdf(t))
        np.testing.assert_array_equal(dist.cdf(t), frozen.cdf(t))
        assert dist.cdf(437.5) == float(frozen.cdf(437.5))

    def test_ppf(self, dist, frozen):
        q = np.linspace(0.0, 1.0, 257)
        np.testing.assert_array_equal(dist.ppf(q), frozen.ppf(q))
        assert dist.ppf(0.3) == float(frozen.ppf(0.3))

    def test_rvs_is_the_inverse_transform_at_a_fixed_seed(self, dist, frozen):
        ref = frozen.ppf(np.random.default_rng(11).random(2000))
        np.testing.assert_array_equal(dist.rvs(2000, rng=11), ref)

    def test_rvs_mean_tracks_analytic_mean(self, dist, frozen):
        # the Monte-Carlo engines draw through rvs: its samples must carry
        # the family's first moment, not just its quantiles
        samples = dist.rvs(200_000, rng=11)
        assert samples.mean() == pytest.approx(float(frozen.mean()), rel=0.05)


@pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: d.family)
class TestCommonProtocol:
    def test_cdf_monotone_and_bounded(self, dist):
        t = np.linspace(0, 50_000, 500)
        c = np.asarray(dist.cdf(t))
        assert (np.diff(c) >= -1e-12).all()
        assert c[0] == pytest.approx(0.0, abs=1e-9)
        assert ((c >= 0) & (c <= 1)).all()

    def test_cdf_zero_below_support(self, dist):
        assert dist.cdf(-10.0) == 0.0
        assert dist.pdf(-10.0) == 0.0

    def test_pdf_integrates_to_survival_mass(self, dist):
        # start above 0: shape<1 Weibull/Gamma densities diverge at the origin
        eps = 1e-3
        t = np.linspace(eps, 200_000, 400_001)
        total = np.trapezoid(np.asarray(dist.pdf(t)), t)
        expected = float(dist.cdf(200_000.0)) - float(dist.cdf(eps))
        assert total == pytest.approx(expected, abs=2e-2)

    def test_ppf_inverts_cdf(self, dist):
        q = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(np.asarray(dist.cdf(dist.ppf(q))), q, atol=1e-9)

    def test_rvs_deterministic_and_positive(self, dist):
        a = dist.rvs(100, rng=5)
        b = dist.rvs(100, rng=5)
        np.testing.assert_array_equal(a, b)
        assert (a >= 0).all()

    def test_describe_mentions_family(self, dist):
        assert dist.family in dist.describe()

    def test_params_roundtrip_type(self, dist):
        params = dist.params()
        assert params
        assert all(isinstance(v, float) for v in params.values())


class TestLogNormal:
    def test_from_mean_std(self):
        d = LogNormal.from_mean_std(mean=570.0, std=886.0)
        mean = np.exp(d.mu + d.sigma**2 / 2)
        std = mean * np.sqrt(np.expm1(d.sigma**2))
        assert mean == pytest.approx(570.0, rel=1e-9)
        assert std == pytest.approx(886.0, rel=1e-9)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            LogNormal(mu=1.0, sigma=0.0)

    def test_known_median(self):
        d = LogNormal(mu=np.log(300.0), sigma=0.7)
        assert float(d.ppf(0.5)) == pytest.approx(300.0, rel=1e-9)


class TestParetoTail:

    def test_survival_power_law(self):
        d = Pareto(alpha=2.0, scale=100.0)
        assert 1.0 - float(d.cdf(100.0)) == pytest.approx(0.25)


class TestExponential:
    def test_memoryless_survival(self):
        # P(R > s + t | R > s) = P(R > t)
        d = Exponential(rate=0.01)
        s, t = 150.0, np.array([10.0, 100.0, 1000.0])
        conditional = (1.0 - np.asarray(d.cdf(s + t))) / (1.0 - float(d.cdf(s)))
        np.testing.assert_allclose(conditional, 1.0 - np.asarray(d.cdf(t)), rtol=1e-9)


class TestShifted:
    def base(self):
        return ShiftedDistribution(Exponential(rate=0.01), shift=50.0)

    def test_no_mass_below_shift(self):
        d = self.base()
        assert d.cdf(49.9) == 0.0
        assert d.pdf(10.0) == 0.0
        assert float(d.cdf(0.0)) == 0.0

    def test_ppf_and_rvs_respect_shift(self):
        d = self.base()
        assert float(d.ppf(0.0)) == pytest.approx(50.0)
        assert (d.rvs(1000, rng=1) >= 50.0).all()

    def test_median(self):
        d = self.base()
        assert float(d.ppf(0.5)) == pytest.approx(50.0 + 100.0 * np.log(2), rel=1e-9)

    def test_mean_shifts(self):
        samples = self.base().rvs(200_000, rng=7)
        assert samples.mean() == pytest.approx(150.0, rel=0.01)

    def test_var_unchanged(self):
        samples = self.base().rvs(200_000, rng=7)
        assert samples.var() == pytest.approx(100.0**2, rel=0.03)

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            ShiftedDistribution(Exponential(rate=1.0), shift=-1.0)

    def test_rejects_non_distribution(self):
        with pytest.raises(TypeError):
            ShiftedDistribution("nope", shift=1.0)


class TestTruncated:
    def base(self):
        return TruncatedDistribution(Exponential(rate=0.01), upper=200.0)

    def test_cdf_reaches_one_at_upper(self):
        d = self.base()
        assert float(d.cdf(200.0)) == pytest.approx(1.0)
        assert float(d.cdf(1e9)) == pytest.approx(1.0)

    def test_renormalised_cdf(self):
        d = self.base()
        t = np.linspace(0.0, 200.0, 41)
        base = Exponential(rate=0.01)
        expected = np.asarray(base.cdf(t)) / float(base.cdf(200.0))
        np.testing.assert_allclose(np.asarray(d.cdf(t)), expected, rtol=1e-12)

    def test_exact_truncated_exponential_mean(self):
        # E[X | X<=u] = 1/λ - u·e^{-λu}/(1-e^{-λu}), below the base mean 1/λ
        lam, u = 0.01, 200.0
        expected = 1 / lam - u * np.exp(-lam * u) / (1 - np.exp(-lam * u))
        samples = self.base().rvs(200_000, rng=5)
        assert samples.mean() == pytest.approx(expected, rel=0.01)
        assert samples.mean() < 1 / lam

    def test_samples_within_support(self):
        s = self.base().rvs(5000, rng=3)
        assert (s >= 0).all() and (s <= 200.0).all()

    def test_rejects_empty_mass(self):
        with pytest.raises(ValueError, match="no mass"):
            TruncatedDistribution(ShiftedDistribution(Exponential(1.0), 50.0), upper=10.0)


class TestEmpirical:
    def test_requires_samples(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(np.array([]))

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError, match="finite"):
            EmpiricalDistribution(np.array([1.0, np.inf]))
        with pytest.raises(ValueError, match="non-negative"):
            EmpiricalDistribution(np.array([1.0, -2.0]))

    def test_step_ecdf_values(self):
        d = EmpiricalDistribution(np.array([1.0, 2.0, 3.0, 4.0]), smooth=False)
        assert float(d.cdf(0.5)) == 0.0
        assert float(d.cdf(2.0)) == 0.5
        assert float(d.cdf(4.0)) == 1.0
        assert float(d.cdf(-1.0)) == 0.0

    def test_smooth_cdf_interpolates(self):
        d = EmpiricalDistribution(np.array([0.0, 10.0]), smooth=True)
        assert 0.0 < float(d.cdf(5.0)) < 1.0
        assert float(d.cdf(10.0)) == 1.0

    def test_smooth_cdf_monotone(self):
        rng = np.random.default_rng(0)
        d = EmpiricalDistribution(rng.lognormal(5, 1, size=500))
        t = np.linspace(0, 3000, 1000)
        assert (np.diff(np.asarray(d.cdf(t))) >= -1e-12).all()

    def test_moments_are_sample_moments(self):
        x = np.array([1.0, 2.0, 3.0, 10.0])
        d = EmpiricalDistribution(x)
        assert d.mean() == pytest.approx(x.mean())
        assert d.std() == pytest.approx(x.std())

    def test_ppf_levels_validated(self):
        d = EmpiricalDistribution(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            d.ppf(1.5)

    def test_step_rvs_draws_from_samples(self):
        x = np.array([5.0, 7.0, 11.0])
        d = EmpiricalDistribution(x, smooth=False)
        s = d.rvs(500, rng=2)
        assert set(np.unique(s)) <= set(x)

    def test_smooth_rvs_within_range(self):
        x = np.array([5.0, 7.0, 11.0])
        d = EmpiricalDistribution(x, smooth=True)
        s = d.rvs(500, rng=2)
        assert (s >= 0.0).all() and (s <= 11.0).all()

    def test_duplicate_samples_handled(self):
        d = EmpiricalDistribution(np.array([2.0, 2.0, 2.0, 5.0]), smooth=True)
        assert float(d.cdf(2.0)) == pytest.approx(0.75)

    def test_n_samples(self):
        assert EmpiricalDistribution(np.ones(7)).n_samples == 7
