"""Tests for LatencyModel / GriddedLatencyModel (§3 machinery)."""

import numpy as np
import pytest

from repro.core.model import GriddedLatencyModel, LatencyModel
from repro.core.strategies.multiple import _batch_arrays, _moment_integrals
from repro.distributions import Exponential
from repro.util.grids import TimeGrid


class TestLatencyModel:
    def test_f_tilde_scales_by_one_minus_rho(self):
        m = LatencyModel(Exponential(rate=0.01), rho=0.2)
        t = 100.0
        expected = 0.8 * (1 - np.exp(-1.0))
        assert float(m.F_tilde(t)) == pytest.approx(expected, rel=1e-9)

    def test_f_tilde_saturates_below_one(self):
        m = LatencyModel(Exponential(rate=0.01), rho=0.2)
        assert float(m.F_tilde(1e9)) == pytest.approx(0.8)

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            LatencyModel(Exponential(1.0), rho=-0.1)
        with pytest.raises(ValueError, match="< 1"):
            LatencyModel(Exponential(1.0), rho=1.0)

    def test_distribution_type_validation(self):
        with pytest.raises(TypeError):
            LatencyModel("not a distribution")

    def test_sample_latencies_outlier_fraction(self):
        m = LatencyModel(Exponential(rate=0.01), rho=0.25)
        s = m.sample_latencies(100_000, rng=0)
        assert np.isinf(s).mean() == pytest.approx(0.25, abs=0.01)

    def test_sample_latencies_zero_rho_all_finite(self):
        m = LatencyModel(Exponential(rate=0.01), rho=0.0)
        assert np.isfinite(m.sample_latencies(1000, rng=0)).all()

    def test_from_samples_estimates_rho(self):
        lat = np.array([10.0, 20.0, 30.0, np.inf])
        m = LatencyModel.from_samples(lat, n_outliers=2, name="w")
        # 1 inf in the array + 2 declared = 3 outliers out of 6 total
        assert m.rho == pytest.approx(0.5)
        assert m.name == "w"
        assert m.distribution.n_samples == 3

    def test_from_samples_requires_successes(self):
        with pytest.raises(ValueError, match="finite"):
            LatencyModel.from_samples(np.array([np.inf, np.inf]))

    def test_from_samples_rejects_negative_outliers(self):
        with pytest.raises(ValueError, match="n_outliers"):
            LatencyModel.from_samples(np.array([1.0]), n_outliers=-1)

    def test_describe(self):
        m = LatencyModel(Exponential(1.0), rho=0.1, name="2006-IX")
        assert "2006-IX" in m.describe()
        assert "0.1" in m.describe()


class TestGriddedLatencyModel:
    @pytest.fixture(scope="class")
    def gm(self):
        model = LatencyModel(Exponential(rate=0.01), rho=0.1, name="g")
        return model.on_grid(TimeGrid(t_max=2000.0, dt=1.0))

    def test_type_validation(self):
        model = LatencyModel(Exponential(1.0))
        with pytest.raises(TypeError):
            GriddedLatencyModel("x", TimeGrid())
        with pytest.raises(TypeError):
            GriddedLatencyModel(model, "y")

    def test_F_monotone_and_bounded(self, gm):
        assert (np.diff(gm.F) >= 0).all()
        assert gm.F[0] == pytest.approx(0.0, abs=1e-12)
        assert gm.F[-1] <= 1.0 - gm.rho + 1e-9

    def test_S_complements_F(self, gm):
        np.testing.assert_allclose(gm.F + gm.S, 1.0, atol=1e-12)

    def test_survival_keeps_the_outlier_mass(self, gm):
        # the ρ of outliers never succeed: S̃ starts at 1 and levels off at ρ
        assert gm.S[0] == 1.0
        assert gm.S[-1] == pytest.approx(0.1, abs=1e-6)

    def test_A_matches_quadrature(self, gm):
        # ∫0^t (1 - F̃) for the exponential+rho model has a closed form:
        # t·rho_term... check against direct numeric integration instead
        t = gm.times
        direct = np.trapezoid(gm.S[:501], t[:501])
        assert gm.A[500] == pytest.approx(direct, rel=1e-12)

    def test_density_integrates_to_F(self, gm):
        # cumulative integral of f̃ recovers F̃
        recon = gm.grid.cumint(gm.f)
        np.testing.assert_allclose(recon, gm.F, atol=5e-3)

    def test_M1_is_first_moment_integral(self, gm):
        # for exponential rate λ with mass (1-ρ):
        # ∫0^∞ u f̃ = (1-ρ)/λ, the b = 1 round's first moment integral
        _cdf, surv, a = _batch_arrays(gm, 1)
        m1, _m2 = _moment_integrals(gm, surv, a)
        assert m1[-1] == pytest.approx(0.9 * 100.0, rel=0.05)

    def test_index_helpers(self, gm):
        k = gm.index_of(500.0)
        assert gm.times[k] == 500.0

    def test_properties_delegate(self, gm):
        assert gm.rho == 0.1

    def test_cached_arrays_are_reused(self, gm):
        assert gm.F is gm.F  # cached_property identity
        assert gm.A is gm.A
