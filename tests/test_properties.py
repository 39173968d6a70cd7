"""Property-based tests (hypothesis) for the core mathematical invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import eq1_expectation, eq2_std, integrate, single_moments_reference
from repro.core.model import LatencyModel
from repro.core.strategies import (
    delayed_moments,
    delayed_survival,
    multiple_moments,
    n_parallel_for_latency,
)
from repro.core.strategies.multiple import _batch_arrays, _moment_integrals
from repro.distributions import (
    EmpiricalDistribution,
    Exponential,
    LogNormal,
    ShiftedDistribution,
    Weibull,
    truncated_mean_std,
)
from repro.util.grids import TimeGrid

# -- strategies for strategies: model and parameter generators ------------

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

model_params = st.tuples(
    st.floats(min_value=4.5, max_value=6.5),   # lognormal mu
    st.floats(min_value=0.4, max_value=1.6),   # lognormal sigma
    st.floats(min_value=0.0, max_value=0.4),   # rho
    st.floats(min_value=0.0, max_value=300.0), # shift
)


def make_gridded(params, t_max=6000.0, dt=4.0):
    mu, sigma, rho, shift = params
    dist = ShiftedDistribution(LogNormal(mu=mu, sigma=sigma), shift=shift)
    return LatencyModel(dist, rho=rho).on_grid(TimeGrid(t_max=t_max, dt=dt))


class TestSubDistributionInvariants:
    @SETTINGS
    @given(params=model_params)
    def test_f_tilde_monotone_bounded(self, params):
        gm = make_gridded(params)
        assert (np.diff(gm.F) >= -1e-12).all()
        assert gm.F[0] <= 1e-9
        assert gm.F[-1] <= 1.0 - gm.rho + 1e-9

    @SETTINGS
    @given(params=model_params)
    def test_survival_complements(self, params):
        gm = make_gridded(params)
        np.testing.assert_allclose(gm.F + gm.S, 1.0, atol=1e-12)

    @SETTINGS
    @given(params=model_params)
    def test_moment_integrals_nonnegative_monotone(self, params):
        gm = make_gridded(params)
        _cdf, surv, a = _batch_arrays(gm, 1)
        m1, m2 = _moment_integrals(gm, surv, a)  # ∫u·f̃ and ∫u²·f̃
        for arr in (a, m1, m2):
            assert (np.diff(arr) >= -1e-6).all()
            assert arr[0] == pytest.approx(0.0, abs=1e-9)


class TestSingleInvariants:
    @SETTINGS
    @given(
        params=model_params,
        t_inf=st.floats(min_value=400.0, max_value=5000.0),
    )
    def test_eq1_eq2_identities(self, params, t_inf):
        # printed Eqs. (1)-(2) == geometric-sum implementation everywhere
        gm = make_gridded(params)
        t_inf = gm.grid.time_of(gm.index_of(t_inf))
        mom = multiple_moments(gm, 1, t_inf)
        if not np.isfinite(mom.expectation):
            return
        assert eq1_expectation(gm, t_inf) == pytest.approx(
            mom.expectation, rel=1e-9
        )
        assert eq2_std(gm, t_inf) == pytest.approx(mom.std, rel=1e-6, abs=1e-6)

    @SETTINGS
    @given(
        params=model_params,
        t_inf=st.floats(min_value=400.0, max_value=5000.0),
    )
    def test_expectation_exceeds_truncated_mean(self, params, t_inf):
        # E_J >= E[R | R < t_inf]: resubmission cannot beat a free oracle
        gm = make_gridded(params)
        t_inf = gm.grid.time_of(gm.index_of(t_inf))
        k = gm.index_of(t_inf)
        p = float(gm.F[k])
        if p < 1e-6:
            return
        m1, _m2 = _moment_integrals(gm, *_batch_arrays(gm, 1)[1:])
        cond_mean = float(m1[k]) / p
        assert multiple_moments(gm, 1, t_inf).expectation >= cond_mean - 1e-6


class TestMultipleInvariants:
    @SETTINGS
    @given(
        params=model_params,
        t_inf=st.floats(min_value=500.0, max_value=4000.0),
        b=st.integers(min_value=1, max_value=12),
    )
    def test_monotone_in_b(self, params, t_inf, b):
        gm = make_gridded(params)
        t_inf = gm.grid.time_of(gm.index_of(t_inf))
        e_b = multiple_moments(gm, b, t_inf).expectation
        e_b1 = multiple_moments(gm, b + 1, t_inf).expectation
        if np.isfinite(e_b):
            assert e_b1 <= e_b + 1e-9

    @SETTINGS
    @given(
        params=model_params,
        t_inf=st.floats(min_value=500.0, max_value=4000.0),
    )
    def test_b1_is_single(self, params, t_inf):
        gm = make_gridded(params)
        t_inf = gm.grid.time_of(gm.index_of(t_inf))
        # bit for bit: the b = 1 round cdf is F̃ itself
        ms = single_moments_reference(gm, t_inf)
        mm = multiple_moments(gm, 1, t_inf)
        assert mm == ms


class TestDelayedInvariants:
    delayed_params = st.tuples(
        st.floats(min_value=200.0, max_value=1200.0),  # t0
        st.floats(min_value=1.0, max_value=2.0),       # ratio
    )

    @SETTINGS
    @given(params=model_params, dp=delayed_params)
    def test_survival_integrates_to_expectation(self, params, dp):
        gm = make_gridded(params)
        t0_raw, ratio = dp
        k0 = gm.index_of(t0_raw)
        ki = min(int(round(k0 * ratio)), 2 * k0, gm.grid.n - 1)
        t0 = gm.grid.time_of(k0)
        t_inf = gm.grid.time_of(ki)
        mom = delayed_moments(gm, t0, t_inf)
        s = delayed_survival(gm, t0, t_inf)
        if s[-1] > 1e-9:
            return  # tail escapes the grid; identity not checkable
        assert mom.expectation == pytest.approx(
            integrate(gm.grid, s), rel=1e-6
        )

    @SETTINGS
    @given(params=model_params, dp=delayed_params)
    def test_beats_or_matches_single_at_t0(self, params, dp):
        # delayed with (t0, t_inf) dominates single resubmission at t0:
        # the extra copies can only help (pathwise dominance)
        gm = make_gridded(params)
        t0_raw, ratio = dp
        k0 = gm.index_of(t0_raw)
        ki = min(int(round(k0 * ratio)), 2 * k0, gm.grid.n - 1)
        t0 = gm.grid.time_of(k0)
        t_inf = gm.grid.time_of(ki)
        e_single = multiple_moments(gm, 1, t0).expectation
        e_delayed = delayed_moments(gm, t0, t_inf).expectation
        if np.isfinite(e_single):
            assert e_delayed <= e_single + 1e-6

    @SETTINGS
    @given(params=model_params, t0=st.floats(min_value=200.0, max_value=1000.0))
    def test_monotone_in_t_inf(self, params, t0):
        # raising t_inf at fixed t0 only gives copies more time: E_J
        # is non-increasing (the exact form; the printed Eq. 5 violates
        # this — see the abl-eq5 experiment)
        gm = make_gridded(params)
        k0 = gm.index_of(t0)
        t0g = gm.grid.time_of(k0)
        kis = [k0, int(1.5 * k0), min(2 * k0, gm.grid.n - 1)]
        values = [
            delayed_moments(gm, t0g, gm.grid.time_of(k)).expectation
            for k in kis
        ]
        finite = [v for v in values if np.isfinite(v)]
        assert all(a >= b - 1e-6 for a, b in zip(finite, finite[1:]))

    @SETTINGS
    @given(
        l=st.floats(min_value=0.0, max_value=50_000.0),
        t0=st.floats(min_value=10.0, max_value=2000.0),
        ratio=st.floats(min_value=1.0, max_value=2.0),
    )
    def test_n_parallel_bounds(self, l, t0, ratio):
        # paper §6.1: N_// in [1, 2 - 1/(n+1)] and -> t_inf/t0
        t_inf = t0 * ratio
        val = float(n_parallel_for_latency(l, t0, t_inf))
        n = int(l // t0)
        assert 1.0 - 1e-9 <= val <= 2.0 - 1.0 / (n + 1) + 1e-9
        assert val <= t_inf / t0 + 1.0 / max(l / t0, 1.0)


class TestDistributionRoundtrips:
    @SETTINGS
    @given(
        mu=st.floats(min_value=3.0, max_value=7.0),
        sigma=st.floats(min_value=0.2, max_value=2.0),
        q=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_lognormal_ppf_cdf_roundtrip(self, mu, sigma, q):
        d = LogNormal(mu=mu, sigma=sigma)
        assert float(d.cdf(d.ppf(q))) == pytest.approx(q, abs=1e-9)

    @SETTINGS
    @given(
        rate=st.floats(min_value=1e-4, max_value=1.0),
        upper=st.floats(min_value=10.0, max_value=10_000.0),
    )
    def test_truncated_mean_below_upper(self, rate, upper):
        mean, _ = truncated_mean_std(Exponential(rate=rate), upper)
        assert 0.0 < mean < upper

    @SETTINGS
    @given(
        shape=st.floats(min_value=0.4, max_value=3.0),
        scale=st.floats(min_value=10.0, max_value=2000.0),
    )
    def test_weibull_median_formula(self, shape, scale):
        d = Weibull(shape=shape, scale=scale)
        expected = scale * np.log(2.0) ** (1.0 / shape)
        assert float(d.ppf(0.5)) == pytest.approx(expected, rel=1e-9)

    @SETTINGS
    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=1e4),
            min_size=2,
            max_size=60,
        )
    )
    def test_empirical_cdf_hits_all_quantile_knots(self, samples):
        d = EmpiricalDistribution(np.array(samples), smooth=False)
        xs = np.sort(np.array(samples))
        c = np.asarray(d.cdf(xs))
        assert c[-1] == pytest.approx(1.0)
        assert (np.diff(c) >= -1e-12).all()


class TestMcAgreementProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        params=model_params,
        t_inf=st.floats(min_value=600.0, max_value=3000.0),
    )
    def test_single_mc_tracks_analytic(self, params, t_inf):
        from repro.montecarlo import agreement_zscore, simulate_single

        gm = make_gridded(params)
        t_inf = gm.grid.time_of(gm.index_of(t_inf))
        mom = multiple_moments(gm, 1, t_inf)
        if not np.isfinite(mom.expectation) or gm.F[gm.index_of(t_inf)] < 0.05:
            return
        run = simulate_single(gm.model, t_inf, 4000, rng=17)
        # grid discretisation adds a small bias on top of MC noise
        assert (
            agreement_zscore(mom.expectation, run.j) < 6.0
            or abs(mom.expectation - run.mean_j) / run.mean_j < 0.05
        )
