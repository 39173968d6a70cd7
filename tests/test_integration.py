"""End-to-end integration tests across the whole stack."""

import io

import numpy as np
import pytest

import repro
from repro.gridsim import (
    GridSimulator,
    ProbeExperiment,
    default_grid_config,
)
from repro.traces.gwf import read_gwf, write_gwf
from repro.util.grids import TimeGrid

from oracles import OutageProcess


class TestArchiveToPlan:
    """GWF file -> model -> planner recommendation, the user's full path."""

    def test_gwf_to_recommendation(self):
        trace = repro.synthesize_week("2007-52", seed=3)
        buf = io.StringIO()
        write_gwf(trace, buf)
        buf.seek(0)
        restored = read_gwf(buf, name="from-archive")
        plan = repro.plan_submissions(
            restored, max_parallel=2.5, t0_window=(100.0, 1500.0)
        )
        assert plan.best.e_j > 0
        assert plan.best.n_parallel <= 2.5

    def test_top_level_api_surface(self):
        # everything advertised in __all__ resolves
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestTraceStatisticsConsistency:
    """The three statistical layers must agree: trace, model, strategies."""

    def test_table1_statistics_flow_through(self):
        trace = repro.synthesize_week("2006-IX", seed=21)
        model = trace.to_latency_model()
        # model rho equals trace ratio
        assert model.rho == pytest.approx(trace.outlier_ratio)
        # trace mean equals model distribution mean
        assert model.distribution.mean() == pytest.approx(
            trace.mean_latency(), rel=1e-9
        )
        gm = model.on_grid(TimeGrid(t_max=10_000.0, dt=2.0))
        # F saturates at 1 - rho on the grid
        assert gm.F[-1] == pytest.approx(1.0 - model.rho, abs=0.01)

    def test_plan_favours_bursts_on_heavy_tail(self):
        trace = repro.synthesize_week("2006-IX", seed=21)
        gm = trace.to_latency_model().on_grid(TimeGrid(t_max=10_000.0, dt=2.0))
        # heavy tail => resubmission can cut E_J well below infinite patience
        plan = repro.plan_submissions(
            gm, max_parallel=5.0, t0_window=(100.0, 1500.0)
        )
        bursts = [c for c in plan.candidates if "multiple" in c.name]
        singles = [c for c in plan.candidates if c.name == "single"]
        assert bursts and singles
        assert min(b.e_j for b in bursts) < singles[0].e_j


class TestSimulatedGridPipeline:
    """DES grid -> probes -> model -> plan."""

    def test_probe_campaign_with_outages(self):
        grid = GridSimulator(default_grid_config(n_sites=4, seed=5), seed=41)
        rng = np.random.default_rng(6)
        for site in grid.sites:
            OutageProcess(
                site, grid.sim, rng,
                mean_uptime=40_000.0, mean_downtime=8_000.0,
            ).start()
        grid.warm_up(3600.0)
        trace = ProbeExperiment(grid, n_slots=8, timeout=5000.0).run(86_400.0)
        assert len(trace) > 20
        # the trace still feeds the analytic pipeline
        gm = trace.to_latency_model().on_grid(TimeGrid(t_max=5000.0, dt=2.0))
        plan = repro.plan_submissions(
            gm, max_parallel=3.0, t0_window=(60.0, 1500.0)
        )
        assert plan.candidates


class TestCrossValidationTriangle:
    """Closed forms, Monte-Carlo replay and DES must tell one story."""

    def test_three_way_agreement_on_ordering(self):
        # on any model: E_J(single) > E_J(delayed) > E_J(burst b=3)
        trace = repro.synthesize_week("2007-53", seed=8)
        gm = trace.to_latency_model().on_grid(TimeGrid(t_max=10_000.0, dt=2.0))
        from repro.core.optimize import (
            optimize_delayed,
            optimize_multiple,
            optimize_single,
        )
        from repro.montecarlo import (
            simulate_delayed,
            simulate_multiple,
            simulate_single,
        )

        s = optimize_single(gm)
        d = optimize_delayed(gm, t0_min=100.0, t0_max=1500.0)
        m = optimize_multiple(gm, 3)
        assert m.e_j < d.e_j < s.e_j

        lm = gm.model
        mc_s = simulate_single(lm, s.t_inf, 8000, rng=1).mean_j
        mc_d = simulate_delayed(lm, d.t0, d.t_inf, 8000, rng=2).mean_j
        mc_m = simulate_multiple(lm, 3, m.t_inf, 8000, rng=3).mean_j
        assert mc_m < mc_d < mc_s
