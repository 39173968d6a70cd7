"""Tests for the nonstationary probe-stream generator."""

import numpy as np
import pytest

from repro.core.model import LatencyModel
from repro.distributions import Exponential, ShiftedDistribution
from repro.traces.generator import DiurnalProfile, generate_probe_trace


@pytest.fixture(scope="module")
def model():
    return LatencyModel(
        ShiftedDistribution(Exponential(rate=1 / 300.0), shift=60.0), rho=0.1
    )


class TestDiurnalProfile:
    def test_factor_oscillates_around_one(self):
        p = DiurnalProfile(amplitude=0.5)
        t = np.linspace(0, 86_400, 1000)
        f = np.asarray(p.factor(t))
        assert f.min() == pytest.approx(0.5, abs=1e-3)
        assert f.max() == pytest.approx(1.5, abs=1e-3)
        assert f.mean() == pytest.approx(1.0, abs=0.01)

    def test_zero_amplitude_is_identity(self):
        p = DiurnalProfile(amplitude=0.0)
        assert p.factor(12_345.0) == 1.0

    def test_phase_shifts_peak(self):
        a = DiurnalProfile(amplitude=0.5, phase=0.0)
        b = DiurnalProfile(amplitude=0.5, phase=21_600.0)
        assert float(a.factor(21_600.0)) == pytest.approx(1.5, abs=1e-6)
        assert float(b.factor(43_200.0)) == pytest.approx(1.5, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalProfile(amplitude=1.0)
        with pytest.raises(ValueError):
            DiurnalProfile(amplitude=0.1, period=0.0)

    @pytest.mark.parametrize("phase", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_phase_is_rejected(self, phase):
        # a NaN phase would make every launch instant drawn from the
        # profile NaN, and the kernel would then fail on `time`
        with pytest.raises(ValueError, match="phase must be finite"):
            DiurnalProfile(amplitude=0.4, phase=phase)


class TestGenerateProbeTrace:
    def test_constant_probe_protocol_renews(self, model):
        t = generate_probe_trace(
            model, duration=50_000.0, n_slots=10, rng=1, name="g"
        )
        # each slot submits a new probe when the previous finishes:
        # with mean dwell ~(0.9*360 + 0.1*10000) ≈ 1324 s, expect ≈ 10*50000/1324
        assert len(t) == pytest.approx(10 * 50_000 / 1324, rel=0.25)
        assert t.name == "g"

    def test_submission_times_sorted_and_bounded(self, model):
        t = generate_probe_trace(model, duration=20_000.0, n_slots=5, rng=2)
        assert (np.diff(t.submit_times) >= 0).all()
        assert t.submit_times.max() < 20_000.0
        assert t.submit_times.min() == 0.0

    def test_outlier_ratio_tracks_model(self, model):
        t = generate_probe_trace(model, duration=300_000.0, n_slots=20, rng=3)
        assert t.outlier_ratio == pytest.approx(0.1, abs=0.02)

    def test_latencies_capped_by_timeout(self, model):
        t = generate_probe_trace(
            model, duration=50_000.0, n_slots=5, rng=4, timeout=1000.0
        )
        assert (t.successful_latencies < 1000.0).all()

    def test_diurnal_modulation_visible(self, model):
        profile = DiurnalProfile(amplitude=0.8)
        t = generate_probe_trace(
            model, duration=86_400.0 * 3, n_slots=50, rng=5, diurnal=profile
        )
        # latencies of probes submitted near the peak should exceed those
        # near the trough
        phase = (t.submit_times % 86_400.0)
        ok = np.isfinite(t.latencies)
        peak = ok & (phase > 10_000) & (phase < 33_000)  # around sin max
        trough = ok & (phase > 53_000) & (phase < 76_000)
        assert t.latencies[peak].mean() > 1.3 * t.latencies[trough].mean()

    def test_deterministic(self, model):
        a = generate_probe_trace(model, duration=10_000.0, n_slots=3, rng=7)
        b = generate_probe_trace(model, duration=10_000.0, n_slots=3, rng=7)
        np.testing.assert_array_equal(a.latencies, b.latencies)

    def test_validation(self, model):
        with pytest.raises(ValueError):
            generate_probe_trace(model, duration=0.0, n_slots=1)
        with pytest.raises(ValueError):
            generate_probe_trace(model, duration=100.0, n_slots=0)
        with pytest.raises(ValueError):
            generate_probe_trace(model, duration=100.0, n_slots=1, timeout=-1.0)

    def test_model_roundtrip_through_trace(self, model):
        # fit an empirical model to the generated trace: the mean should
        # track the generating model's (truncated) mean
        t = generate_probe_trace(model, duration=200_000.0, n_slots=20, rng=8)
        m = t.to_latency_model()
        assert m.rho == pytest.approx(0.1, abs=0.03)
        assert m.distribution.mean() == pytest.approx(360.0, rel=0.1)
