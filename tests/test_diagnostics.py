"""Tests for the hazard-rate diagnostic and the stationarity check."""

import numpy as np
import pytest

from repro.core.diagnostics import diagnose_timeout, hazard_rate
from repro.core.model import LatencyModel
from repro.core.optimize import optimize_single
from repro.distributions import Exponential
from repro.util.grids import TimeGrid


class TestHazardRate:
    def test_exponential_hazard_constant_without_outliers(self):
        lam = 0.01
        gm = LatencyModel(Exponential(rate=lam), rho=0.0).on_grid(
            TimeGrid(t_max=800.0, dt=0.5)
        )
        h = hazard_rate(gm)
        # interior points (edges suffer finite differences)
        np.testing.assert_allclose(h[20:-20], lam, rtol=0.02)

    def test_outliers_make_hazard_decay(self):
        gm = LatencyModel(Exponential(rate=0.01), rho=0.2).on_grid(
            TimeGrid(t_max=3000.0, dt=1.0)
        )
        h = hazard_rate(gm)
        # as the defective mass dominates, the hazard falls toward zero
        assert h[2500] < 0.5 * h[100]

    def test_heavy_tail_hazard_decreases(self, gridded):
        h = hazard_rate(gridded)
        k1 = gridded.index_of(400.0)
        k2 = gridded.index_of(4000.0)
        assert h[k2] < h[k1]

    def test_nonnegative(self, gridded):
        assert (hazard_rate(gridded) >= 0.0).all()


class TestSmoothedHazard:
    def test_window_validation(self, gridded):
        with pytest.raises(ValueError):
            hazard_rate(gridded, window=-1)

    def test_smoothing_preserves_scale(self, gridded):
        raw = hazard_rate(gridded)
        smooth = hazard_rate(gridded, window=25)
        k = gridded.index_of(500.0)
        assert smooth[k] == pytest.approx(raw[k], rel=0.3)

    def test_empirical_optimum_is_stationary(self, gridded_2006):
        # the jittery ECDF density needs the smoothing window for the
        # stationarity verdict to hold at the optimiser's argmin
        opt = optimize_single(gridded_2006)
        diag = diagnose_timeout(gridded_2006, opt.t_inf, window=25)
        assert "stationary" in diag.verdict


class TestStationarity:
    def test_diagnose_at_optimum_is_stationary(self, gridded):
        opt = optimize_single(gridded)
        diag = diagnose_timeout(gridded, opt.t_inf)
        assert "stationary" in diag.verdict
        assert abs(diag.gap) < 0.1 * diag.e_j

    def test_diagnose_too_small_timeout(self, gridded):
        # below the optimum E_J is still decreasing: raising the timeout pays
        opt = optimize_single(gridded)
        diag = diagnose_timeout(gridded, opt.t_inf * 0.5)
        assert "raising the timeout still pays" in diag.verdict
        assert diag.gap > 0

    def test_diagnose_too_large_timeout(self, gridded):
        opt = optimize_single(gridded)
        diag = diagnose_timeout(gridded, min(opt.t_inf * 4.0, 7800.0))
        assert diag.gap < 0 or not np.isfinite(diag.gap)
        if np.isfinite(diag.gap):
            assert "cancel sooner" in diag.verdict

    def test_exponential_never_wants_timeout(self):
        # memoryless latency without faults: 1/hazard = mean = E_J at the
        # stationary plateau, so the gap hovers near zero everywhere
        gm = LatencyModel(Exponential(rate=0.01), rho=0.0).on_grid(
            TimeGrid(t_max=4000.0, dt=1.0)
        )
        diag = diagnose_timeout(gm, 1000.0)
        assert abs(diag.gap) < 0.1 * diag.e_j
