"""Tests for the three strategy models (Eqs. 1–5, §6.1)."""

import numpy as np
import pytest

from repro.core.strategies import (
    DelayedResubmission,
    MultipleSubmission,
    SingleResubmission,
    delayed_moments,
    delayed_survival,
    multiple_expectation_sweep,
    multiple_moments,
    n_parallel_for_latency,
    round_shape,
)
from repro.core.strategies.delayed import mean_parallel_exact

from oracles import delayed_expectation_for_t0, integrate, single_moments_reference


class TestSingleResubmission:
    def test_expectation_without_timeout_pressure(self, gridded_faultless):
        # with a huge timeout and no faults, E_J -> E[R]
        mom = SingleResubmission(8000.0).moments(gridded_faultless)
        # the model is 100 s + LogNormal(5.5, 1.0)
        true_mean = 100.0 + np.exp(5.5 + 0.5)
        assert mom.expectation == pytest.approx(true_mean, rel=0.02)

    def test_expectation_sweep_matches_pointwise(self, gridded):
        sweep = multiple_expectation_sweep(gridded, 1)
        for t in (300.0, 600.0, 1200.0):
            k = gridded.index_of(t)
            assert sweep[k] == pytest.approx(
                SingleResubmission(t).moments(gridded).expectation, rel=1e-9
            )

    def test_infinite_below_support(self, gridded):
        # the model has a 100 s floor: timeouts below it never succeed
        sweep = multiple_expectation_sweep(gridded, 1)
        assert np.isinf(sweep[gridded.index_of(50.0)])
        assert np.isinf(sweep[0])

    def test_small_timeout_is_penalised(self, gridded):
        sweep = multiple_expectation_sweep(gridded, 1)
        e_at_110 = sweep[gridded.index_of(110.0)]
        e_at_600 = sweep[gridded.index_of(600.0)]
        assert e_at_110 > e_at_600

    def test_outliers_make_infinite_patience_costly(self, gridded):
        # with rho > 0, E_J at the largest timeout exceeds the minimum:
        # waiting forever on a faulted job is never optimal
        sweep = multiple_expectation_sweep(gridded, 1)
        finite = sweep[np.isfinite(sweep)]
        assert sweep[-1] > finite.min()

    def test_strategy_object_delegates(self, gridded):
        s = SingleResubmission(t_inf=600.0)
        assert s.expectation(gridded) == pytest.approx(
            multiple_moments(gridded, 1, 600.0).expectation
        )
        assert s.mean_parallel_jobs(gridded) == 1.0
        assert "600" in s.describe()

    def test_is_the_one_copy_burst(self):
        s = SingleResubmission(600.0)
        assert isinstance(s, MultipleSubmission)
        assert (s.b, s.t_inf, s.name) == (1, 600.0, "single")
        assert s.describe() == "single resubmission (t_inf=600s)"
        # a burst of one is the same law, not the same strategy object
        assert s != MultipleSubmission(b=1, t_inf=600.0)
        with pytest.raises(TypeError):
            SingleResubmission(b=2, t_inf=600.0)

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            SingleResubmission(t_inf=0.0)

    def test_moments_at_zero_mass_timeout(self, gridded):
        mom = SingleResubmission(50.0).moments(gridded)
        assert np.isinf(mom.expectation)
        assert np.isinf(mom.std)


class TestMultipleSubmission:
    def test_b1_equals_single(self, gridded):
        # b = 1 is Eq. (1)-(2) bit for bit: its round cdf is F̃, not 1 - S
        e1 = multiple_expectation_sweep(gridded, 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            es = np.where(gridded.F > 0.0, gridded.A / gridded.F, np.inf)
        np.testing.assert_array_equal(e1[1:], es[1:])
        for t in (50.0, 300.0, 600.0, 1200.0):
            assert multiple_moments(gridded, 1, t) == single_moments_reference(
                gridded, t
            )

    def test_expectation_decreases_with_b(self, gridded):
        t = 800.0
        values = [multiple_moments(gridded, b, t).expectation for b in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_std_decreases_with_b(self, gridded):
        t = 800.0
        values = [multiple_moments(gridded, b, t).std for b in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_sweep_matches_pointwise(self, gridded):
        for b in (2, 5):
            sweep = multiple_expectation_sweep(gridded, b)
            k = gridded.index_of(700.0)
            assert sweep[k] == pytest.approx(
                multiple_moments(gridded, b, 700.0).expectation, rel=1e-9
            )

    def test_invalid_b(self, gridded):
        with pytest.raises(ValueError):
            multiple_expectation_sweep(gridded, 0)
        with pytest.raises(ValueError):
            MultipleSubmission(b=0, t_inf=100.0)
        with pytest.raises(ValueError):
            MultipleSubmission(b=1.5, t_inf=100.0)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), True, "3"])
    def test_non_integer_b_is_rejected_by_name(self, bad):
        with pytest.raises(ValueError, match="b must be a positive integer, got"):
            MultipleSubmission(b=bad, t_inf=600.0)

    def test_n_parallel_is_b(self, gridded):
        assert MultipleSubmission(b=7, t_inf=500.0).mean_parallel_jobs(gridded) == 7.0

    def test_batch_beats_single_at_same_timeout(self, gridded):
        t = 600.0
        assert (
            multiple_moments(gridded, 3, t).expectation
            < SingleResubmission(t).moments(gridded).expectation
        )

    def test_describe(self):
        assert "b=4" in MultipleSubmission(b=4, t_inf=880.0).describe()


class TestDelayedResubmission:
    def test_degenerates_to_single_at_ratio_one(self, gridded):
        # t_inf = t0: the copy is submitted exactly when the original is
        # cancelled -> single resubmission with timeout t0
        t0 = 500.0
        mom_d = delayed_moments(gridded, t0, t0)
        mom_s = SingleResubmission(t0).moments(gridded)
        assert mom_d.expectation == pytest.approx(mom_s.expectation, rel=1e-9)
        assert mom_d.std == pytest.approx(mom_s.std, rel=1e-6)

    def test_longer_t_inf_helps(self, gridded):
        # for fixed t0, raising t_inf within (t0, 2 t0] reduces E_J:
        # the first job gets more chance while the copy is already queued
        t0 = 400.0
        e1 = delayed_moments(gridded, t0, 500.0).expectation
        e2 = delayed_moments(gridded, t0, 700.0).expectation
        assert e2 < e1

    def test_sweep_matches_pointwise(self, gridded):
        k0 = gridded.index_of(400.0)
        sweep = delayed_expectation_for_t0(gridded, k0)
        for t_inf in (500.0, 600.0, 800.0):
            k = gridded.index_of(t_inf)
            assert sweep[k] == pytest.approx(
                delayed_moments(gridded, 400.0, t_inf).expectation, rel=1e-9
            )

    def test_sweep_infeasible_region_is_inf(self, gridded):
        k0 = gridded.index_of(400.0)
        sweep = delayed_expectation_for_t0(gridded, k0)
        assert np.isinf(sweep[k0 - 1])  # t_inf < t0
        assert np.isinf(sweep[2 * k0 + 1])  # t_inf > 2 t0

    def test_constraint_validation(self, gridded):
        with pytest.raises(ValueError, match="2"):
            delayed_moments(gridded, 400.0, 900.0)
        with pytest.raises(ValueError, match="2"):
            delayed_moments(gridded, 400.0, 300.0)
        with pytest.raises(ValueError):
            DelayedResubmission(t0=400.0, t_inf=900.0)
        with pytest.raises(ValueError):
            DelayedResubmission(t0=-1.0, t_inf=1.0)

    def test_survival_starts_at_one_decreases(self, gridded):
        s = delayed_survival(gridded, 400.0, 600.0)
        assert s[0] == pytest.approx(1.0)
        assert (np.diff(s) <= 1e-12).all()
        assert s[-1] < 1e-6

    def test_survival_integrates_to_expectation(self, gridded):
        # E[J] = ∫ P(J>t) dt — ties the closed form to the piecewise survival
        t0, t_inf = 400.0, 600.0
        s = delayed_survival(gridded, t0, t_inf)
        e_direct = integrate(gridded.grid, s)
        e_closed = delayed_moments(gridded, t0, t_inf).expectation
        assert e_closed == pytest.approx(e_direct, rel=1e-6)

    def test_second_moment_from_survival(self, gridded):
        # E[J^2] = ∫ 2 t P(J>t) dt
        t0, t_inf = 400.0, 600.0
        s = delayed_survival(gridded, t0, t_inf)
        e_j2_direct = integrate(gridded.grid, 2.0 * gridded.times * s)
        mom = delayed_moments(gridded, t0, t_inf)
        e_j2_closed = mom.std**2 + mom.expectation**2
        assert e_j2_closed == pytest.approx(e_j2_direct, rel=1e-6)

    def test_expectation_between_single_and_multiple(self, gridded):
        # §6: delayed beats single resubmission but not a 2-burst
        from repro.core.optimize import (
            optimize_delayed,
            optimize_multiple,
            optimize_single,
        )

        s = optimize_single(gridded)
        d = optimize_delayed(gridded, t0_min=150.0, t0_max=1500.0)
        m2 = optimize_multiple(gridded, 2)
        assert d.e_j < s.e_j
        assert m2.e_j < d.e_j

    def test_describe_timeline(self):
        d = DelayedResubmission(t0=300.0, t_inf=450.0)
        text = d.describe_timeline()
        assert "job 1" in text and "job 3" in text
        assert "300" in text

    def test_strategy_object_moments(self, gridded):
        d = DelayedResubmission(t0=400.0, t_inf=600.0)
        assert d.moments(gridded).expectation == pytest.approx(
            delayed_moments(gridded, 400.0, 600.0).expectation
        )


class TestNParallel:
    def test_below_t0_is_one(self):
        assert n_parallel_for_latency(100.0, 300.0, 450.0) == 1.0
        assert n_parallel_for_latency(0.0, 300.0, 450.0) == 1.0

    def test_paper_table3_values(self):
        # §6.2 / Table 3 entries recomputed exactly:
        # ratio 1.3: t0=406, EJ=438 -> N = 2 - 406/438
        assert n_parallel_for_latency(438.0, 406.0, 528.0) == pytest.approx(
            2 - 406 / 438, abs=5e-3
        )
        # ratio 1.4: t0=354, EJ=432
        assert n_parallel_for_latency(432.0, 354.0, 496.0) == pytest.approx(
            2 - 354 / 432, abs=5e-3
        )
        # ratio 1.6: t0=272, t_inf=435, EJ=444 (l >= t_inf branch)
        expected = (272 + 2 * (435 - 272) + (444 - 435)) / 444
        assert n_parallel_for_latency(444.0, 272.0, 435.0) == pytest.approx(
            expected, abs=5e-3
        )

    def test_n1_branch_below_t_inf(self):
        # l in [t0, t_inf): N = 2 - t0/l
        assert n_parallel_for_latency(350.0, 300.0, 450.0) == pytest.approx(
            2 - 300 / 350
        )

    def test_asymptote_is_ratio(self):
        # lim N_// = t_inf / t0 (paper §6.1)
        val = n_parallel_for_latency(1e7, 300.0, 450.0)
        assert val == pytest.approx(450.0 / 300.0, rel=1e-3)

    def test_bound_paper(self):
        # N_// in [1, 2 - 1/(n+1)] (paper §6.1)
        t0, t_inf = 300.0, 560.0
        for l in np.linspace(1.0, 5000.0, 200):
            n = int(l // t0)
            val = n_parallel_for_latency(float(l), t0, t_inf)
            assert 1.0 - 1e-9 <= val <= 2.0 - 1.0 / (n + 1) + 1e-9

    def test_vectorised_over_l_and_t_inf(self):
        l = np.array([100.0, 350.0, 900.0])
        t_inf = np.array([450.0, 450.0, 500.0])
        out = n_parallel_for_latency(l, 300.0, t_inf)
        assert out.shape == (3,)
        assert out[0] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            n_parallel_for_latency(100.0, 300.0, 700.0)  # ratio > 2
        with pytest.raises(ValueError):
            n_parallel_for_latency(-1.0, 300.0, 450.0)

    def test_exact_mean_parallel_close_to_plugin(self, gridded):
        # the paper's plug-in N_//(E_J) approximates E[N_//(J)]
        t0, t_inf = 400.0, 600.0
        exact = mean_parallel_exact(gridded, t0, t_inf)
        e_j = delayed_moments(gridded, t0, t_inf).expectation
        plugin = n_parallel_for_latency(e_j, t0, t_inf)
        assert exact == pytest.approx(plugin, abs=0.12)
        assert 1.0 <= exact <= 2.0


class TestRoundShape:
    def test_each_strategy_maps_to_its_round(self):
        assert round_shape(SingleResubmission(t_inf=300)) == (1, 300.0, 300.0)
        assert round_shape(MultipleSubmission(b=3, t_inf=300.0)) == (3, 300.0, 300.0)
        assert round_shape(DelayedResubmission(t0=200.0, t_inf=300.0)) == (
            1,
            200.0,
            300.0,
        )

    def test_subclasses_keep_their_parent_shape(self):
        class Tuned(SingleResubmission):
            pass

        assert round_shape(Tuned(t_inf=50.0)) == (1, 50.0, 50.0)

    def test_anything_else_is_rejected(self):
        with pytest.raises(TypeError, match="strategy: unsupported strategy type object"):
            round_shape(object())
