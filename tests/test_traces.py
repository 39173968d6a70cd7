"""Tests for trace sets, calibration and synthesis."""

import hashlib

import numpy as np
import pytest

from repro.distributions.moments import truncated_mean_std
from repro.distributions.parametric import LogNormal
from repro.distributions.shifted import ShiftedDistribution
from repro.traces import (
    PAPER_TABLE1,
    TraceSet,
    WEEKLY_SETS,
    WEEKS,
    calibrate_lognormal,
    synthesize_all,
    synthesize_week,
)
from repro.traces import calibration, paper
from repro.traces.dataset import PROBE_TIMEOUT
from repro.traces.paper import AGGREGATE, LOGNORMAL_BODY


class TestTraceSet:
    def make(self) -> TraceSet:
        return TraceSet(
            name="t",
            submit_times=np.array([0.0, 10.0, 20.0, 30.0]),
            latencies=np.array([100.0, 200.0, np.inf, 400.0]),
            status_codes=np.array([0, 0, 1, 0]),
        )

    def test_basic_stats(self):
        t = self.make()
        assert len(t) == 4
        assert t.n_outliers == 1
        assert t.outlier_ratio == 0.25
        assert t.mean_latency() == pytest.approx(700 / 3)
        np.testing.assert_array_equal(t.successful_latencies, [100.0, 200.0, 400.0])

    def test_bounded_mean_counts_outliers_at_timeout(self):
        t = self.make()
        expected = (100 + 200 + PROBE_TIMEOUT + 400) / 4
        assert t.bounded_mean_latency() == pytest.approx(expected)

    def test_validation_mismatched_columns(self):
        with pytest.raises(ValueError, match="lengths"):
            TraceSet("t", np.zeros(2), np.zeros(3), np.zeros(3, dtype=np.int8))

    def test_validation_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            TraceSet("t", np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int8))

    def test_validation_outlier_must_be_inf(self):
        with pytest.raises(ValueError, match="inf"):
            TraceSet("t", np.zeros(1), np.array([5.0]), np.array([1], dtype=np.int8))

    def test_validation_completed_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            TraceSet("t", np.zeros(1), np.array([np.inf]), np.array([0], dtype=np.int8))

    def test_validation_latency_above_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            TraceSet("t", np.zeros(1), np.array([20_000.0]),
                     np.array([0], dtype=np.int8))

    def test_merge(self):
        t = self.make()
        merged = TraceSet.merge("m", [t, t])
        assert len(merged) == 8
        assert merged.outlier_ratio == 0.25

    def test_merge_rejects_mixed_timeouts(self):
        t = self.make()
        other = TraceSet("o", np.zeros(1), np.array([5.0]),
                         np.array([0], dtype=np.int8), timeout=500.0)
        with pytest.raises(ValueError, match="timeout"):
            TraceSet.merge("m", [t, other])

    def test_merge_requires_parts(self):
        with pytest.raises(ValueError):
            TraceSet.merge("m", [])

    def test_to_latency_model(self):
        m = self.make().to_latency_model()
        assert m.rho == pytest.approx(0.25)
        assert m.name == "t"
        assert m.distribution.n_samples == 3

    def test_describe(self):
        assert "t:" in self.make().describe()

    def test_describe_reports_count_rho_mean_and_std(self):
        t = self.make()
        std = np.std([100.0, 200.0, 400.0])
        assert t.describe() == (
            f"t: 4 probes, rho=0.250, mean=233s, std={std:.0f}s"
        )

    def test_validation_rejects_nan_latency(self):
        with pytest.raises(ValueError, match="NaN"):
            TraceSet("t", np.zeros(1), np.array([np.nan]),
                     np.array([0], dtype=np.int8))

    def test_faults_and_timeouts_both_count_as_outliers(self):
        t = TraceSet("t", np.zeros(3), np.array([5.0, np.inf, np.inf]),
                     np.array([0, 1, 2], dtype=np.int8))
        assert t.n_outliers == 2
        assert t.outlier_ratio == pytest.approx(2 / 3)

    def test_merge_keeps_part_order(self):
        t = self.make()
        other = TraceSet("o", np.array([99.0]), np.array([7.0]),
                         np.array([0], dtype=np.int8))
        merged = TraceSet.merge("m", [t, other])
        assert merged.name == "m"
        np.testing.assert_array_equal(merged.submit_times, [0.0, 10.0, 20.0, 30.0, 99.0])
        assert merged.latencies[-1] == 7.0


class TestCalibration:
    def test_matches_targets(self):
        res = calibrate_lognormal(570.0, 886.0, shift=150.0)
        assert res.achieved_mean == pytest.approx(570.0, rel=1e-3)
        assert res.achieved_std == pytest.approx(886.0, rel=1e-3)
        assert res.relative_error < 1e-3

    def test_no_shift(self):
        res = calibrate_lognormal(400.0, 300.0)
        assert res.achieved_mean == pytest.approx(400.0, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError, match="exceed the shift"):
            calibrate_lognormal(100.0, 50.0, shift=150.0)
        with pytest.raises(ValueError, match="below the timeout"):
            calibrate_lognormal(20_000.0, 100.0)
        with pytest.raises(ValueError):
            calibrate_lognormal(-5.0, 100.0)

    def test_every_paper_week_is_calibratable(self):
        # the solver handles every synthesizable Table-1 row (CV 0.7 to
        # 2.2), and its output is the committed body synthesis reads
        assert set(LOGNORMAL_BODY) == set(WEEKS)
        for name in WEEKS:
            stats = PAPER_TABLE1[name]
            res = calibrate_lognormal(stats.mean_less, stats.sigma_r, shift=150.0)
            assert res.relative_error < 1e-3, name
            mu, sigma = LOGNORMAL_BODY[name]
            assert res.mu == pytest.approx(mu, rel=1e-9), name
            assert res.sigma == pytest.approx(sigma, rel=1e-9), name
            body = ShiftedDistribution(LogNormal(mu, sigma), 150.0)
            mean, std = truncated_mean_std(body, PROBE_TIMEOUT, n_points=8001)
            assert mean == pytest.approx(stats.mean_less, rel=1e-3), name
            assert std == pytest.approx(stats.sigma_r, rel=1e-3), name


class TestPaperSynthesis:
    def test_rho_reconstruction_is_round(self):
        # the recovered outlier ratios are the paper's round numbers
        assert PAPER_TABLE1["2006-IX"].rho == pytest.approx(0.05, abs=0.001)
        assert PAPER_TABLE1["2007-36"].rho == pytest.approx(0.24, abs=0.001)
        assert PAPER_TABLE1["2007-37"].rho == pytest.approx(0.33, abs=0.001)
        assert PAPER_TABLE1["2008-03"].rho == pytest.approx(0.10, abs=0.001)

    def test_week_statistics_match_table1(self):
        t = synthesize_week("2006-IX", seed=3)
        stats = PAPER_TABLE1["2006-IX"]
        assert t.mean_latency() == pytest.approx(stats.mean_less, rel=0.02)
        assert t.std_latency() == pytest.approx(stats.sigma_r, rel=0.05)
        assert t.outlier_ratio == pytest.approx(stats.rho, abs=0.01)

    def test_bounded_mean_matches_table1(self):
        t = synthesize_week("2007-36", seed=3)
        stats = PAPER_TABLE1["2007-36"]
        assert t.bounded_mean_latency() == pytest.approx(stats.mean_with, rel=0.05)

    def test_deterministic_given_seed(self):
        a = synthesize_week("2007-51", seed=9)
        b = synthesize_week("2007-51", seed=9)
        np.testing.assert_array_equal(a.latencies, b.latencies)

    def test_seeds_differ(self):
        a = synthesize_week("2007-51", seed=1)
        b = synthesize_week("2007-51", seed=2)
        assert not np.array_equal(a.latencies, b.latencies)

    def test_n_jobs_override(self):
        t = synthesize_week("2007-51", seed=1, n_jobs=100)
        assert len(t) == 100

    def test_unknown_week(self):
        with pytest.raises(ValueError, match="unknown trace set"):
            synthesize_week("2012-01", seed=0)

    def test_aggregate_must_use_synthesize_all(self):
        with pytest.raises(ValueError, match="union"):
            synthesize_week(AGGREGATE, seed=0)

    def test_synthesis_runs_no_solver_and_keeps_its_bytes(self, monkeypatch):
        # sha256 of synthesize_all(seed=2009) as the solver-backed
        # synthesis produced it, before the bodies were committed
        def solver(*args, **kwargs):
            raise AssertionError("synthesis called calibrate_lognormal")

        monkeypatch.setattr(calibration, "calibrate_lognormal", solver)
        monkeypatch.setattr(paper, "calibrate_lognormal", solver, raising=False)
        h = hashlib.sha256()
        for name, t in synthesize_all(seed=2009).items():
            h.update(name.encode())
            for col in (t.submit_times, t.latencies, t.status_codes):
                h.update(col.tobytes())
        assert h.hexdigest() == (
            "f3c18565a988fe25ce5350eaaac4a5f7112b5d58889f1d44bd8f3ef31d72796e"
        )

    def test_synthesize_all_structure(self):
        traces = synthesize_all(seed=5)
        assert set(traces) == set(PAPER_TABLE1)
        assert len(traces[AGGREGATE]) == sum(
            len(traces[w]) for w in WEEKLY_SETS
        )
        total = sum(len(traces[w]) for w in WEEKS)
        assert total == 10_893  # the paper's probe count

    def test_aggregate_statistics_consistent_with_table1(self):
        # the 2007/08 row should emerge from the union of the weekly sets
        traces = synthesize_all(seed=5)
        agg = traces[AGGREGATE]
        stats = PAPER_TABLE1[AGGREGATE]
        assert agg.mean_latency() == pytest.approx(stats.mean_less, rel=0.05)
        assert agg.outlier_ratio == pytest.approx(stats.rho, abs=0.03)

    def test_iid_sampling_close_but_noisier(self):
        t = synthesize_week("2006-IX", seed=3, stratified=False)
        stats = PAPER_TABLE1["2006-IX"]
        assert t.mean_latency() == pytest.approx(stats.mean_less, rel=0.15)

    def test_submit_times_sorted_within_campaign(self):
        t = synthesize_week("2006-IX", seed=3)
        assert (np.diff(t.submit_times) >= 0).all()
        assert t.submit_times[-1] <= 7 * 24 * 3600.0
