"""Tests for the command-line interface."""

import io
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import list_experiments
from repro.traces import synthesize_week


GOLDEN_TRACE = Path(__file__).parent / "data" / "storm-broker-site-20.jsonl"


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestList:
    def test_lists_all_experiments(self):
        code, text = run_cli("list")
        assert code == 0
        for exp_id in list_experiments():
            assert exp_id in text


class TestRun:
    def test_run_single_experiment(self):
        code, text = run_cli("run", "fig1", "--dt", "4.0")
        assert code == 0
        assert "Figure 1" in text
        assert "rho" in text

    def test_run_writes_files(self, tmp_path):
        code, text = run_cli(
            "run", "table1", "--dt", "4.0", "--out", str(tmp_path)
        )
        assert code == 0
        written = tmp_path / "table1.txt"
        assert written.exists()
        assert "Table 1" in written.read_text()
        assert str(written) in text

    def test_unknown_experiment_fails(self):
        code, text = run_cli("run", "fig99")
        assert code == 2
        assert "unknown experiment" in text
        assert "fig1" in text  # lists the available ids

    @pytest.mark.parametrize("dt", ["0", "-1", "nan", "inf"])
    def test_bad_arguments(self, dt, tmp_path):
        # rejected before any experiment runs or any file is written
        out = tmp_path / "out"
        code, text = run_cli("run", "fig1", "--dt", dt, "--out", str(out))
        assert code == 2
        assert text.startswith("error: --dt must be")
        assert not out.exists()

    def test_out_onto_an_existing_file_is_a_usage_error(self, tmp_path):
        # refused before any experiment runs, and the file is left alone
        target = tmp_path / "taken"
        target.write_text("keep\n", encoding="utf-8")
        code, text = run_cli("run", "fig1", "--dt", "4.0", "--out", str(target))
        assert code == 2
        assert text == f"error: --out: {target} exists and is not a directory\n"
        assert target.read_text(encoding="utf-8") == "keep\n"

    def test_non_numeric_dt_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "fig1", "--dt", "fast")
        assert exc.value.code == 2
        assert "--dt" in capsys.readouterr().err

    def test_seed_changes_output(self):
        _, a = run_cli("run", "fig1", "--dt", "4.0", "--seed", "1")
        _, b = run_cli("run", "fig1", "--dt", "4.0", "--seed", "2")
        assert a != b


class TestDescribe:
    def test_describe_week(self):
        code, text = run_cli("describe", "2006-IX")
        assert code == 0
        assert "570" in text  # the paper's mean
        assert "synthesized" in text

    def test_describe_prints_the_trace_set_summary(self):
        _, a = run_cli("describe", "2007-36")
        _, b = run_cli("describe", "2007-36", "--seed", "5")
        for text, seed in ((a, 2009), (b, 5)):
            summary = synthesize_week("2007-36", seed=seed).describe()
            assert text.splitlines()[1] == f"synthesized: {summary}"
        assert a.splitlines()[0] == b.splitlines()[0]  # paper row is fixed

    def test_describe_aggregate(self):
        code, text = run_cli("describe", "2007/08")
        assert code == 0
        assert "union" in text

    def test_describe_unknown(self):
        code, text = run_cli("describe", "2020-01")
        assert code == 2
        assert "unknown trace set" in text


class TestPopulation:
    def test_population_prints_wall_by_phase(self):
        args = ("population", "--scale", "300", "--sites", "2", "--cores", "32")
        outs = [run_cli(*args) for _ in range(2)]
        assert [code for code, _ in outs] == [0, 0]
        assert "wall by phase: warm " in outs[0][1]
        (wall,) = [
            line for line in outs[0][1].splitlines() if " wall (" in line
        ]
        assert " MB)" in wall and "bytes/task" not in wall
        # timings sit only on lines the `grep -v wall` determinism diff drops
        a, b = (
            [line for line in text.splitlines() if "wall" not in line]
            for _, text in outs
        )
        assert a == b

    def test_small_day_prints_no_bytes_per_task(self):
        # below 10^5 tasks page-granular RSS noise would dominate the figure
        code, text = run_cli("population", "--scale", "3000", "--sites", "2")
        assert code == 0
        (wall,) = [line for line in text.splitlines() if " wall (" in line]
        assert "peak RSS " in wall and "bytes/task" not in wall

    def test_fleet_table_is_run_population_on_a_warmed_grid(self):
        from repro.gridsim.grid import warmed_grid
        from repro.population import run_population
        from repro.population.presets import (
            fleet_grid_config,
            fleet_population_spec,
        )
        from repro.util.tables import format_float, format_seconds

        code, text = run_cli(
            "population", "--scale", "300", "--sites", "2", "--cores", "32"
        )
        assert code == 0
        # the CLI defaults: --seed 41, --grid-seed 41, a 6 h warm-up
        direct = run_population(
            warmed_grid(fleet_grid_config(2, 32), 41),
            fleet_population_spec(300),
            seed=41,
        )
        rows = {
            cells[0]: cells[1:]
            for cells in (
                [c.strip() for c in line.split("|")]
                for line in text.splitlines()
            )
            if len(cells) == 6
        }
        assert set(rows) == {"fleet", *(f.spec.label for f in direct.fleets)}
        for f in direct.fleets:
            assert rows[f.spec.label] == [
                str(f.spec.n_tasks),
                format_seconds(f.mean_j),
                format_seconds(f.median_j),
                format_float(f.mean_jobs, 2),
                str(f.gave_up),
            ]
        assert f"virtual span {direct.duration:.0f}s" in text
        assert "broker dispatches: " + ", ".join(
            str(d) for d in direct.broker_dispatches
        ) in text

    def test_shards_flag_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["population", "--shards", "2"])
        assert exc.value.code == 2


class TestFederation:
    def test_runs_small_population(self):
        code, text = run_cli(
            "federation",
            "--sites", "4",
            "--brokers", "2",
            "--tasks", "120",
            "--window", "7200",
        )
        assert code == 0
        assert "biomed/adopters" in text
        assert "broker dispatches" in text
        assert "end-state fair-share usage" in text

    def test_single_vo_single_broker(self):
        code, text = run_cli(
            "federation",
            "--sites", "3",
            "--brokers", "1",
            "--vos", "solo:1.0",
            "--tasks", "60",
            "--adoption", "0",
            "--window", "3600",
        )
        assert code == 0
        assert "solo/SingleResubmission" in text
        # 1 VO -> plain FIFO sites, no fair-share table
        assert "end-state fair-share usage" not in text

    def test_bad_arguments(self):
        code, text = run_cli("federation", "--vos", "oops")
        assert code == 2 and "error" in text
        code, text = run_cli("federation", "--adoption", "1.5")
        assert code == 2 and "adoption" in text
        code, text = run_cli("federation", "--sites", "2", "--brokers", "5")
        assert code == 2 and "n_brokers" in text
        # downstream grid-parameter errors also exit 2, no traceback
        code, text = run_cli("federation", "--utilization", "2.0")
        assert code == 2 and "error" in text and "utilization" in text


class TestWeather:
    def test_storm_run_reports_weather_and_health(self):
        code, text = run_cli(
            "weather", "--regime", "storms", "--strategy", "delayed",
            "--tasks", "30",
        )
        assert code == 0
        assert "30 delayed tasks under storms weather" in text
        assert "self-healing off" in text
        assert "weather:" in text and "outages" in text
        assert "site health:" in text

    def test_self_healing_flag_reports_agent_counters(self):
        code, text = run_cli(
            "weather", "--regime", "black-hole", "--tasks", "30",
            "--self-healing",
        )
        assert code == 0
        assert "self-healing on" in text
        assert "failures detected" in text and "resubmissions" in text

    def test_bad_arguments(self):
        code, text = run_cli("weather", "--tasks", "0")
        assert code == 2 and "n_tasks" in text
        code, text = run_cli("weather", "--t-inf", "-5")
        assert code == 2 and "t_inf" in text
        code, text = run_cli("weather", "--runtime", "-5", "--tasks", "2")
        assert code == 2
        assert text == "error: runtime must be > 0, got -5.0\n"


class TestChaos:
    def test_standard_schedules_pass_the_audit(self):
        code, text = run_cli("chaos", "--tasks", "10", "--horizon", "21600")
        assert code == 0
        assert "task-conservation audit" in text
        for schedule in ("outage-mid-bucket", "dup-on-retry", "storm-broker-site"):
            assert schedule in text
        assert "VIOLATED" not in text
        assert "every task accounted for exactly once" in text

    def test_generated_schedules_ride_along(self):
        code, text = run_cli(
            "chaos", "--tasks", "8", "--horizon", "21600", "--schedules", "2"
        )
        assert code == 0
        assert "generated#1" in text and "generated#2" in text

    def test_violations_name_their_campaign(self, monkeypatch):
        """Both modes print one row and the violation lines per campaign;
        the matrix names its corner in each violation."""
        from repro.gridsim import chaos

        def violated(config, **kw):
            report = chaos.ConservationReport(
                tasks=3, done_tasks=2, jobs=5, duplicates=1,
                violations=("task 0: two winners",),
            )
            return chaos.ChaosResult(
                finished=2, gave_up=1, mean_latency=1.0, report=report,
                weather={},
            )

        monkeypatch.setattr(chaos, "run_chaos", violated)
        code, text = run_cli("chaos", "--schedule", "dup-on-retry")
        assert code == 1
        assert text.startswith(
            "violation [dup-on-retry]: task 0: two winners\n"
        )
        assert (
            "batched | dup-on-retry |        2 |       1 |      5 |"
            "             1 (0) | VIOLATED" in text
        )
        assert text.endswith("\n1 campaign(s) violated task conservation\n")
        code, text = run_cli("chaos", "--matrix", "--schedule", "dup-on-retry")
        assert code == 1
        assert text.startswith(
            "violation [batched/dup-on-retry]: task 0: two winners\n"
            "violation [event/dup-on-retry]: task 0: two winners\n"
        )
        assert text.endswith("\n2 campaign(s) violated task conservation\n")

    def test_bad_arguments(self):
        code, text = run_cli("chaos", "--tasks", "0")
        assert code == 2 and "n_tasks" in text
        code, text = run_cli("chaos", "--matrix", "--schedules", "-1")
        assert code == 2
        assert text == "error: --schedules must be >= 0, got -1\n"
        code, text = run_cli(
            "chaos", "--schedule", "storm-broker-site", "--schedules", "2"
        )
        assert code == 2
        assert text == "error: --schedules is incompatible with --schedule\n"

    def test_non_integer_schedules_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("chaos", "--matrix", "--schedules", "1.5")
        assert exc.value.code == 2
        assert "--schedules" in capsys.readouterr().err


class TestTraceReport:
    def test_trace_then_report_round_trip(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code, text = run_cli(
            "chaos",
            "--schedule",
            "storm-broker-site",
            "--trace",
            str(trace),
            "--tasks",
            "10",
            "--horizon",
            "21600",
        )
        assert code == 0
        assert trace.exists()
        assert f"wrote {trace}" in text
        # only the named schedule ran
        assert "storm-broker-site" in text
        assert "dup-on-retry" not in text

        report_out = tmp_path / "report.txt"
        gwf = tmp_path / "trace.gwf"
        code, text = run_cli(
            "report", str(trace), "--out", str(report_out), "--gwf", str(gwf)
        )
        assert code == 0
        assert "Latency decomposition by strategy" in text
        assert "Latency decomposition by VO" in text
        assert "Latency decomposition by strategy" in report_out.read_text()
        assert gwf.exists() and "GWF rows" in text

    def test_trace_matches_the_committed_golden_trace(self, tmp_path):
        # every event of the recorded storm campaign — kind, virtual
        # time, ids, broker hop labels and staleness — byte for byte,
        # in this process, whatever ran in it before
        trace = tmp_path / "trace.jsonl"
        code, text = run_cli(
            "chaos", "--schedule", "storm-broker-site",
            "--trace", str(trace), "--tasks", "20",
        )
        assert code == 0, text
        assert trace.read_bytes() == GOLDEN_TRACE.read_bytes()

    def test_recording_twice_in_one_process_gives_identical_bytes(self, tmp_path):
        # job ids are numbered by the recorder, not by a process-wide
        # counter, so a second recording repeats the first exactly
        traces = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for trace in traces:
            code, text = run_cli(
                "chaos", "--schedule", "storm-broker-site",
                "--trace", str(trace), "--tasks", "20",
            )
            assert code == 0, text
        assert traces[0].read_bytes() == traces[1].read_bytes()

    def test_trace_requires_schedule(self, tmp_path):
        code, text = run_cli("chaos", "--trace", str(tmp_path / "t.jsonl"))
        assert code == 2 and "--trace requires --schedule" in text

    def test_trace_rejects_matrix(self, tmp_path):
        code, text = run_cli(
            "chaos",
            "--matrix",
            "--schedule",
            "dup-on-retry",
            "--trace",
            str(tmp_path / "t.jsonl"),
        )
        assert code == 2 and "incompatible with --matrix" in text

    def test_unknown_schedule_lists_available(self):
        code, text = run_cli("chaos", "--schedule", "nope")
        assert code == 2
        assert "unknown schedule" in text and "storm-broker-site" in text

    def test_report_unreadable_trace(self, tmp_path):
        code, text = run_cli("report", str(tmp_path / "missing.jsonl"))
        assert code == 2 and "cannot read trace" in text

    def test_report_on_a_truncated_trace_names_the_missing_task(self, tmp_path):
        # the last 100 events of the golden trace: task 8 completes inside
        # the window, its 'task' event lies before it
        golden = Path(__file__).resolve().parent / "data" / "storm-broker-site-20.jsonl"
        lines = golden.read_text(encoding="utf-8").splitlines(keepends=True)
        trace = tmp_path / "tail.jsonl"
        trace.write_text("".join(lines[-100:]), encoding="utf-8")
        code, text = run_cli("report", str(trace))
        assert code == 2
        assert text == (
            "error: trace is incomplete: task 8 completes but its "
            "'task' event is missing\n"
        )

    def test_trace_into_a_missing_directory_is_a_usage_error(self, tmp_path):
        target = tmp_path / "missing" / "t.jsonl"
        code, text = run_cli(
            "chaos", "--schedule", "storm-broker-site", "--trace", str(target)
        )
        assert code == 2
        assert text == (
            f"error: --trace: directory {target.parent} does not exist\n"
        )

    def test_report_out_onto_a_directory_is_a_usage_error(self, tmp_path):
        code, text = run_cli("report", str(GOLDEN_TRACE), "--out", str(tmp_path))
        assert code == 2
        assert text == f"error: --out: {tmp_path} is a directory\n"

    def test_report_gwf_into_a_missing_directory_is_a_usage_error(self, tmp_path):
        target = tmp_path / "missing" / "x.gwf"
        code, text = run_cli("report", str(GOLDEN_TRACE), "--gwf", str(target))
        assert code == 2
        assert text == f"error: --gwf: directory {target.parent} does not exist\n"
        assert not target.parent.exists()

    def test_report_on_empty_trace_still_succeeds(self, tmp_path):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("# no events\n", encoding="utf-8")
        code, text = run_cli("report", str(trace))
        assert code == 0
        assert "0 completed tasks" in text


class TestBench:
    def test_bench_harness_refuses_profile_out_without_profile(self):
        import importlib.util
        from pathlib import Path

        script = (
            Path(__file__).resolve().parents[1] / "benchmarks" / "run_benchmarks.py"
        )
        spec = importlib.util.spec_from_file_location("run_benchmarks", script)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        with pytest.raises(SystemExit, match="--profile-out"):
            mod.main(["--profile-out", "p.txt"])

    def test_bench_harness_refuses_profile_with_update(self):
        import importlib.util
        from pathlib import Path

        script = (
            Path(__file__).resolve().parents[1] / "benchmarks" / "run_benchmarks.py"
        )
        spec = importlib.util.spec_from_file_location("run_benchmarks", script)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        with pytest.raises(SystemExit, match="--update with --profile"):
            mod.main(["--update", "--profile"])

    def test_bench_harness_profile_disables_benchmarking(
        self, tmp_path, monkeypatch
    ):
        """Profile mode must not nest pytest-benchmark's instrumentation
        under the outer cProfile (its pause/resume breaks there) — the
        benches run once, disabled, and no JSON report is requested."""
        import importlib.util
        from pathlib import Path

        script = (
            Path(__file__).resolve().parents[1] / "benchmarks" / "run_benchmarks.py"
        )
        spec = importlib.util.spec_from_file_location("run_benchmarks", script)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        calls = []

        class _Proc:
            returncode = 0

        monkeypatch.setattr(
            mod.subprocess, "run", lambda cmd, **kw: calls.append(cmd) or _Proc()
        )
        out = mod.run_pytest_benchmarks(
            [Path("x.py")], profile_path=tmp_path / "x.prof"
        )
        assert out == {}
        (cmd,) = calls
        assert "cProfile" in cmd and "--benchmark-disable" in cmd
        assert not any(str(a).startswith("--benchmark-json") for a in cmd)

    def test_bench_harness_renders_profile_dump(self, tmp_path):
        import cProfile
        import importlib.util
        from pathlib import Path

        script = (
            Path(__file__).resolve().parents[1] / "benchmarks" / "run_benchmarks.py"
        )
        spec = importlib.util.spec_from_file_location("run_benchmarks", script)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        dump = tmp_path / "x.prof"
        cProfile.run("sum(range(1000))", str(dump))
        table = mod.render_profile(dump, 5)
        assert "cumulative" in table and "tottime" in table

    @pytest.fixture(scope="class")
    def bench_mod(self):
        """``benchmarks/run_benchmarks.py``, loaded as a module."""
        import importlib.util

        script = (
            Path(__file__).resolve().parents[1] / "benchmarks" / "run_benchmarks.py"
        )
        spec = importlib.util.spec_from_file_location("run_benchmarks", script)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    def test_bench_gate_compares_speed_scaled_means(self, bench_mod):
        """A host uniformly slower than the recording one moves the probe
        with the benches and trips nothing; a slower bench on the same
        host still trips the gate."""
        baseline = {"benchmarks": {"b": {"mean": 1.0, "host_speed": 1.0}}}
        ok, _ = bench_mod.compare(
            {"b": {"mean": 1.6, "host_speed": 0.625}}, baseline, 1.25
        )
        assert ok
        ok, table = bench_mod.compare(
            {"b": {"mean": 1.3, "host_speed": 1.0}}, baseline, 1.25
        )
        assert not ok and "REGRESSION" in table
        # a side without a probe compares raw means
        ok, _ = bench_mod.compare({"b": {"mean": 1.6}}, baseline, 1.25)
        assert not ok

    def test_bench_gate_speed_comes_from_the_probes_around_each_bench(
        self, bench_mod
    ):
        stats = {"min": 1.0, "mean": 1.0, "stddev": 0.0, "rounds": 1}
        report = {
            "benchmarks": [{"name": "a", "stats": stats}, {"name": "b", "stats": stats}],
            "host_probes": {"a": [0.1, 0.1], "b": [0.2, 0.3]},
        }
        out = bench_mod.distill(report)
        ref = bench_mod._speed([1.0])
        assert out["a"]["host_speed"] == round(ref / 0.1, 4)
        assert out["b"]["host_speed"] == round(ref / 0.25, 4)
        assert bench_mod.host_speed(report) == pytest.approx(ref / 0.15)
        assert bench_mod.host_speed({"benchmarks": []}) is None

    def test_bench_baseline_keeps_each_benchs_median_scaled_run(self, bench_mod):
        """Per bench, the baseline keeps the whole entry of the run whose
        speed-scaled mean is the median, so a run on a slow phase of the
        host is dropped even where its raw mean is the median one."""
        runs = [
            {"a": {"mean": 1.0, "host_speed": 1.0}, "b": {"mean": 3.0}},
            {"a": {"mean": 3.0, "host_speed": 0.2}, "b": {"mean": 1.0}},
            {"a": {"mean": 2.0, "host_speed": 0.9}, "b": {"mean": 2.0}},
        ]
        out = bench_mod.median_run(runs)
        # scaled means of a: 1.0, 0.6, 1.8 -> the first run's entry
        assert out["a"] is runs[0]["a"]
        assert out["b"] is runs[2]["b"]
        # with an even count the lower middle run is kept
        assert bench_mod.median_run(runs[:2])["a"] is runs[1]["a"]
        # a bench missing from a later run keeps the runs that have it
        assert bench_mod.median_run([runs[0], {"a": runs[1]["a"]}])["b"] is (
            runs[0]["b"]
        )

    @pytest.mark.parametrize(
        "reruns, code", [((1.1, 1.4), 1), ((1.1, 1.2), 0), ((1.5, 1.3), 1)]
    )
    def test_bench_gate_reruns_a_bench_over_the_threshold_and_takes_the_median(
        self, bench_mod, tmp_path, monkeypatch, reruns, code
    ):
        """A bench over the threshold runs twice more on its own, and the
        median of its three ratios decides; a bench under it runs once."""
        baseline = tmp_path / "base.json"
        baseline.write_text(
            json.dumps({"benchmarks": {"a": {"mean": 1.0}, "b": {"mean": 1.0}}}),
            encoding="utf-8",
        )
        means = iter([{"a": 1.5, "b": 1.0}, *({"a": m} for m in reruns)])
        keywords = []

        def fake_run(suites, large=False, mem=False, keyword=None, **kw):
            keywords.append(keyword)
            return {
                "benchmarks": [
                    {"name": n, "stats": {"min": m, "mean": m, "stddev": 0.0, "rounds": 3}}
                    for n, m in next(means).items()
                ]
            }

        monkeypatch.setattr(bench_mod, "run_pytest_benchmarks", fake_run)
        report = tmp_path / "report.txt"
        argv = ["--baseline", str(baseline), "--threshold", "1.25"]
        assert bench_mod.main(argv + ["--report", str(report)]) == code
        assert keywords == [None, "a", "a"]
        text = report.read_text(encoding="utf-8")
        assert f"{sorted((1.5, *reruns))[1]:8.2f}" in text
        assert "re-measured, median of 3 readings: a" in text


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_is_not_a_command(self, capsys):
        # the benchmark harness is run as a script, not through the CLI
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "fig1", "--seed", "-1"),
            ("federation", "--seed", "-1"),
            ("population", "--seed", "-1"),
            ("population", "--grid-seed", "-1"),
            ("weather", "--seed", "-1"),
            ("chaos", "--seed", "-1"),
            ("describe", "2007-36", "--seed", "-1"),
        ],
    )
    def test_negative_seed_is_a_usage_error_naming_the_flag(
        self, argv, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        flag = argv[-2]
        assert f"error: {flag} must be >= 0, got -1" in capsys.readouterr().err

    def test_zero_seed_is_accepted(self):
        args = build_parser().parse_args(
            ["population", "--seed", "0", "--grid-seed", "0"]
        )
        assert (args.seed, args.grid_seed) == (0, 0)

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "table1" in proc.stdout
