"""Parallel experiment runner: output equivalence and CLI wiring."""

from __future__ import annotations

import io

import pytest

from repro.cli import main
from repro.experiments.runner import iter_many, render_experiment

#: cheap experiments covering both the context-free and context paths
FAST_IDS = ["fig1", "table1"]
DT = 4.0


class TestRunMany:
    def test_parallel_output_equals_sequential(self):
        # val-des and abl-adopt fork one warmed snapshot per strategy run;
        # the cross-experiment pool is their only multi-core path
        ids = FAST_IDS + ["val-des", "abl-adopt"]
        seq = list(iter_many(ids, seed=2009, dt=DT, jobs=1))
        par = list(iter_many(ids, seed=2009, dt=DT, jobs=2))
        assert seq == par  # byte-identical, not merely similar

    def test_result_order_follows_request_order(self):
        out = iter_many(list(reversed(FAST_IDS)), seed=2009, dt=DT, jobs=2)
        assert [i for i, _ in out] == list(reversed(FAST_IDS))

    def test_single_id_runs_in_process(self):
        out = dict(iter_many(["fig1"], seed=2009, dt=DT, jobs=8))
        assert out["fig1"] == render_experiment("fig1", seed=2009, dt=DT)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            list(iter_many(["fig1", "nope"], jobs=2))

    def test_jobs_validated(self):
        with pytest.raises(ValueError, match="jobs"):
            list(iter_many(FAST_IDS, jobs=0))

    def test_seed_threads_through(self):
        a = dict(iter_many(["fig1"], seed=1, dt=DT))["fig1"]
        b = dict(iter_many(["fig1"], seed=2, dt=DT))["fig1"]
        assert a != b

    def test_iter_many_streams_in_request_order(self):
        # incremental yield lets the CLI persist each finished
        # experiment before later ones complete (or fail)
        it = iter_many(FAST_IDS, seed=2009, dt=DT, jobs=2)
        first_id, first_text = next(it)
        assert first_id == FAST_IDS[0]
        assert first_text.startswith(f"=== {FAST_IDS[0]}")
        rest = list(it)
        assert [i for i, _ in rest] == FAST_IDS[1:]


class TestCliJobs:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_jobs_flag_writes_identical_files(self, tmp_path):
        seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
        for d, jobs in ((seq_dir, "1"), (par_dir, "2")):
            code, _ = self.run_cli(
                "run", "fig1", "--dt", str(DT), "--out", str(d), "--jobs", jobs
            )
            assert code == 0
        assert (
            (seq_dir / "fig1.txt").read_bytes()
            == (par_dir / "fig1.txt").read_bytes()
        )

    def test_invalid_jobs_rejected(self):
        code, text = self.run_cli("run", "fig1", "--jobs", "0")
        assert code == 2
        assert "--jobs" in text
