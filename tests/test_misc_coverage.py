"""Final coverage batch: edge cases across smaller surfaces."""

import numpy as np
import pytest

from repro.core.strategies import DelayedResubmission
from repro.experiments.base import ExperimentResult
from repro.montecarlo import simulate_single
from repro.traces.paper import PAPER_TABLE1, PROBE_TIMEOUT, synthesize_week
from repro.util.series import Series, SeriesBundle
from repro.util.tables import Table


class TestMcRunAccessors:
    def test_all_summary_properties(self, lognormal_model):
        run = simulate_single(lognormal_model, 800.0, 2000, rng=3)
        assert run.mean_j == pytest.approx(float(run.j.mean()))
        assert run.std_j == pytest.approx(float(run.j.std()))
        assert run.mean_parallel == 1.0


class TestPaperTable1Identity:
    def test_mean_with_reconstruction(self):
        # the rho definition must reproduce the 'mean with 10^5' column:
        # mean_with = (1-rho)·mean_less + rho·10^4
        for week, stats in PAPER_TABLE1.items():
            reconstructed = (
                (1 - stats.rho) * stats.mean_less + stats.rho * PROBE_TIMEOUT
            )
            assert reconstructed == pytest.approx(stats.mean_with, abs=0.5), week

    def test_job_counts_sum_to_paper_total(self):
        total = sum(
            s.n_jobs for w, s in PAPER_TABLE1.items() if w != "2007/08"
        )
        assert total == 10_893

    def test_synthesize_respects_small_n(self):
        t = synthesize_week("2008-02", seed=1, n_jobs=50)
        assert len(t) == 50
        assert t.n_outliers == round(PAPER_TABLE1["2008-02"].rho * 50)

    def test_synthesize_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            synthesize_week("2008-02", seed=1, n_jobs=1)


class TestDelayedTimeline:
    def test_timeline_scales_with_parameters(self):
        short = DelayedResubmission(t0=100.0, t_inf=150.0).describe_timeline()
        long = DelayedResubmission(t0=100.0, t_inf=200.0).describe_timeline()
        assert short != long
        assert "t_inf=150" in short

    def test_timeline_has_three_jobs(self):
        text = DelayedResubmission(t0=300.0, t_inf=450.0).describe_timeline(
            width=40
        )
        assert text.count("job") == 3


class TestExperimentResultRendering:
    def test_render_with_figures_only(self):
        bundle = SeriesBundle(title="f", x_label="x", y_label="y")
        bundle.add(Series("a", np.arange(3.0), np.arange(3.0)))
        res = ExperimentResult(
            experiment_id="x", title="demo", figures=[bundle]
        )
        text = res.render()
        assert "demo" in text and "a:" in text

    def test_render_empty_notes_omitted(self):
        res = ExperimentResult(experiment_id="x", title="demo")
        assert "notes" not in res.render()

    def test_render_with_table_and_notes(self):
        t = Table(title="t", columns=["a"])
        t.add_row(1)
        res = ExperimentResult(
            experiment_id="x", title="demo", tables=[t], notes=["hello"]
        )
        text = res.render()
        assert "hello" in text and "t" in text


class TestGridsimCounters:
    def test_wms_dispatch_counter(self):
        from repro.gridsim import GridSimulator, SiteConfig, GridConfig, FaultModel
        from repro.gridsim.jobs import Job

        cfg = GridConfig(
            sites=(SiteConfig("a", 4, utilization=0.5),),
            faults=FaultModel(),
        )
        grid = GridSimulator(cfg, seed=1)
        for _ in range(5):
            grid.submit(Job(runtime=1.0))
        grid.run_until(10_000.0)
        assert grid.wms.dispatch_count >= 5  # probes + background
        assert grid.jobs_submitted == 5

    def test_site_counters_consistent(self):
        from repro.gridsim.events import Simulator
        from repro.gridsim.jobs import Job
        from repro.gridsim.site import ComputingElement

        sim = Simulator()
        ce = ComputingElement("ce", n_cores=2, sim=sim)
        jobs = [Job(runtime=5.0) for _ in range(6)]
        for j in jobs:
            ce.enqueue(j)
        sim.run_until(100.0)
        assert ce.jobs_started == 6
        assert ce.jobs_completed == 6
        assert ce.free_cores == 2
        assert not ce.running_jobs
