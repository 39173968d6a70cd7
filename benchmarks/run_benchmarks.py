#!/usr/bin/env python
"""Run the core micro-benchmarks and maintain the ``BENCH_core.json`` baseline.

The perf trajectory of this repo is tracked through one committed file,
``benchmarks/BENCH_core.json``: the distilled pytest-benchmark statistics
(min / mean / stddev / rounds, in seconds) of every test in the
``CORE_SUITES`` files (the numerical kernels, the DES substrate, the
population layer and the two frontier-crossing experiments), the host
speed they ran at, and enough environment metadata to interpret them.
Typical usage::

    python benchmarks/run_benchmarks.py            # run + compare vs baseline
    python benchmarks/run_benchmarks.py --update   # run + rewrite the baseline
    python benchmarks/run_benchmarks.py --suite benchmarks  # every bench file
    python benchmarks/run_benchmarks.py --filter probe_day  # single bench
    python benchmarks/run_benchmarks.py --filter population_20k --profile

A comparison fails (exit 1) when any benchmark's speed-scaled mean
regresses by more than ``--threshold`` (default 1.5×) against the
committed baseline, so CI or a pre-merge run makes perf regressions
visible.  The bench process times perfbench's fixed reference task
(:class:`perfbench.hostspeed.Probe`) before the first bench, between
benches and after the last (``benchmarks/conftest.py``); each bench's
host speed comes from the probes on either side of it and is stored
beside its mean, and every mean is compared at reference speed
(``mean × host speed``): a slower runner moves the probe with the
benches, a slower program moves only the benches.  ``--update`` records
each bench from the median of ``BASELINE_RUNS`` suite runs, so one slow
phase of a shared host does not become the baseline.  A bench over the
threshold runs ``CONFIRM_RUNS`` more times on its own and gates on the
median ratio of its readings: a regression in the code repeats, a slow
phase of the host rarely does twice.  See PERFORMANCE.md for what each
benchmark covers and the current headline numbers.

``--profile`` runs each selected bench body once under :mod:`cProfile`
(pytest-benchmark itself disabled — its pause/resume instrumentation
cannot nest under an outer profiler) and prints the top
cumulative/tottime rows instead of comparing against the baseline, so
a profiled run never counts as a regression and ``--update`` is
refused.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
DEFAULT_BASELINE = BENCH_DIR / "BENCH_core.json"
#: the tracked baseline covers the numerical core, the DES substrate,
#: the multi-VO federation/population layer and the two extension
#: experiments that cross the strategy frontier
CORE_SUITES = [
    BENCH_DIR / "test_bench_core.py",
    BENCH_DIR / "test_bench_gridsim.py",
    BENCH_DIR / "test_bench_population.py",
    BENCH_DIR / "test_bench_weather.py",
]
#: suite runs ``--update`` records the baseline from (per bench, the run
#: with the median speed-scaled mean)
BASELINE_RUNS = 3
#: extra runs of a bench over the threshold; the median ratio of its
#: first reading and these counts
CONFIRM_RUNS = 2


def run_pytest_benchmarks(
    suites: list[Path],
    *,
    large: bool = False,
    mem: bool = False,
    keyword: str | None = None,
    profile_path: Path | None = None,
) -> dict:
    """Run pytest-benchmark on ``suites`` and return the raw JSON report.

    The report gains ``host_probes``: per bench, the host-speed probe
    times before and after it (``benchmarks/conftest.py``; empty for a
    suite outside ``benchmarks/``).  With ``profile_path`` the whole
    pytest process runs under
    :mod:`cProfile` and dumps its stats there; benchmarking itself is
    disabled (each bench body runs exactly once) and ``{}`` is
    returned — profiled timings would be meaningless anyway.
    """
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        report_path = Path(tmp.name)
    probes_path = report_path.with_suffix(".probes.json")
    env = dict(os.environ)
    if large:
        env["REPRO_BENCH_LARGE"] = "1"
    if mem:
        env["REPRO_BENCH_MEM"] = "1"
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [sys.executable]
    if profile_path is not None:
        cmd += ["-m", "cProfile", "-o", str(profile_path)]
    cmd += ["-m", "pytest", *(str(s) for s in suites), "-q"]
    if profile_path is not None:
        # pytest-benchmark's run instrumentation fights an outer
        # cProfile (its pause/resume tries to reinstall the active
        # profiler as a plain profile function); disabled, each bench
        # body runs exactly once — also the cleanest trace to read
        cmd += ["--benchmark-disable"]
    else:
        cmd += [f"--benchmark-json={report_path}"]
        env["REPRO_BENCH_PROBES"] = str(probes_path)
    if keyword:
        cmd += ["-k", keyword]
    try:
        proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark run failed (pytest exit {proc.returncode})")
        if profile_path is not None:
            return {}
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report["host_probes"] = (
            json.loads(probes_path.read_text(encoding="utf-8"))
            if probes_path.exists()
            else {}
        )
        return report
    finally:
        report_path.unlink(missing_ok=True)
        probes_path.unlink(missing_ok=True)


def render_profile(profile_path: Path, rows: int) -> str:
    """The top-``rows`` cumulative-time table of a profile dump."""
    import io
    import pstats

    buf = io.StringIO()
    stats = pstats.Stats(str(profile_path), stream=buf)
    stats.strip_dirs().sort_stats("cumulative").print_stats(rows)
    buf.write("\n")
    stats.sort_stats("tottime").print_stats(rows)
    return buf.getvalue()


def _speed(probe_times) -> float:
    """Host speed from probe times (1.0 = perfbench's reference host)."""
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    from perfbench.hostspeed import speed

    return speed(probe_times)


def host_speed(report: dict) -> float | None:
    """The host speed over the whole run, from every probe it took."""
    times = [t for pair in report.get("host_probes", {}).values() for t in pair]
    return _speed(times) if times else None


def distill(report: dict) -> dict:
    """Reduce a pytest-benchmark report to {test name: summary stats}.

    ``host_speed`` is the speed of the host while that bench ran, from
    the probes just before and just after it.
    """
    probes = report.get("host_probes", {})
    out = {}
    for bench in report.get("benchmarks", []):
        stats = bench["stats"]
        entry = {
            "min": stats["min"],
            "mean": stats["mean"],
            "stddev": stats["stddev"],
            "rounds": stats["rounds"],
        }
        if bench["name"] in probes:
            entry["host_speed"] = round(_speed(probes[bench["name"]]), 4)
        peak = (bench.get("extra_info") or {}).get("mem_peak_bytes")
        if peak is not None:
            entry["mem_peak_bytes"] = int(peak)
        out[bench["name"]] = entry
    return dict(sorted(out.items()))


def baseline_payload(results: dict, speed: float | None) -> dict:
    import numpy

    return {
        "suite": "core",
        "updated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "units": "seconds",
        "host_speed": None if speed is None else round(speed, 4),
        "benchmarks": results,
    }


def scaled_mean(stats: dict) -> float:
    """``mean × host speed``: the mean at reference host speed (the raw
    mean when the bench was not probed)."""
    return stats["mean"] * stats.get("host_speed", 1.0)


def ratio(stats: dict, ref: dict) -> float:
    """Speed-scaled mean over the baseline's; raw means where either side
    was not probed."""
    if not (stats.get("host_speed") and ref.get("host_speed")):
        stats, ref = {"mean": stats["mean"]}, {"mean": ref["mean"]}
    return scaled_mean(stats) / scaled_mean(ref) if ref["mean"] > 0 else float("inf")


def median_reading(entries: list[dict], key=scaled_mean) -> dict:
    """The entry with the median ``key`` (the lower middle one of an even
    count)."""
    ordered = sorted(entries, key=key)
    return ordered[(len(ordered) - 1) // 2]


def median_run(runs: list[dict]) -> dict:
    """Per bench, the entry of the run with the median speed-scaled mean."""
    return {
        name: median_reading([r[name] for r in runs if name in r])
        for name in runs[0]
    }


def compare(
    results: dict,
    baseline: dict,
    threshold: float,
    speed: float | None = None,
) -> tuple[bool, str]:
    """Build the comparison table; (ok, text) — ok is False on regression.

    ``ratio`` is ``mean × host speed / (baseline mean × its host speed)``
    (:func:`ratio`), both means taken to the reference host with each
    bench's own ``host_speed``.  ``speed`` (the run's overall host speed)
    is only reported.
    """
    base = baseline.get("benchmarks", {})
    base_speed = baseline.get("host_speed")
    ok = True
    track_mem = any("mem_peak_bytes" in s for s in results.values())
    width = max((len(n) for n in results), default=10) + 2
    header = f"{'benchmark'.ljust(width)}{'mean':>12}{'baseline':>12}{'ratio':>8}"
    if track_mem:
        header += f"{'mem peak':>12}"
    def fmt(value) -> str:
        return "unprobed" if value is None else f"{value:.3f}"

    lines = [
        f"host speed {fmt(speed)} (baseline {fmt(base_speed)}); ratio = "
        "mean x host speed / (baseline mean x its host speed), per bench "
        "(raw means where either side is unprobed)",
        header,
    ]

    def mem_col(stats: dict) -> str:
        if not track_mem:
            return ""
        peak = stats.get("mem_peak_bytes")
        if peak is None:
            return f"{'-':>12}"
        return f"{peak / 1e6:>10.1f}MB"

    for name, stats in results.items():
        ref = base.get(name)
        if ref is None:
            lines.append(
                f"{name.ljust(width)}{stats['mean']:12.6f}{'new':>12}{'':>8}"
                + mem_col(stats)
            )
            continue
        r = ratio(stats, ref)
        flag = ""
        if r > threshold:
            flag = "  REGRESSION"
            ok = False
        elif r < 1.0 / threshold:
            flag = "  improved"
        lines.append(
            f"{name.ljust(width)}{stats['mean']:12.6f}{ref['mean']:12.6f}"
            f"{r:8.2f}{mem_col(stats)}{flag}"
        )
    missing = sorted(set(base) - set(results))
    for name in missing:
        lines.append(f"{name.ljust(width)}{'absent from this run':>24}")
    return ok, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        nargs="+",
        default=[str(s) for s in CORE_SUITES],
        help=(
            "pytest target(s) to benchmark (default: the core + gridsim "
            "suites tracked in the baseline)"
        ),
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="baseline JSON to compare against / update",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline with this run instead of comparing",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        help=(
            "speed-scaled mean-time ratio above which a benchmark counts "
            "as regressed"
        ),
    )
    parser.add_argument(
        "--report",
        type=Path,
        default=None,
        help=(
            "also write the comparison-vs-baseline table to this file "
            "(uploaded as a workflow artifact by the CI bench smoke)"
        ),
    )
    parser.add_argument(
        "--large",
        action="store_true",
        help=(
            "also run the opt-in large-scale benches (sets "
            "REPRO_BENCH_LARGE=1: the 10^4-task multi-VO adoption sweep "
            "and the 10^5-task population day)"
        ),
    )
    parser.add_argument(
        "--mem",
        action="store_true",
        help=(
            "also measure each bench body's tracemalloc allocation peak "
            "(one extra untimed pass per bench, sets REPRO_BENCH_MEM=1); "
            "adds a 'mem peak' column to the comparison table"
        ),
    )
    parser.add_argument(
        "--filter",
        metavar="EXPR",
        default=None,
        help=(
            "only run benchmarks matching this pytest -k expression "
            "(e.g. 'probe_day'); the comparison covers just the selected "
            "benches, and --update is refused so a partial run can never "
            "clobber the committed baseline"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "run the selected benches under cProfile and print the top "
            "cumulative/tottime rows instead of comparing against the "
            "baseline (incompatible with --update)"
        ),
    )
    parser.add_argument(
        "--profile-rows",
        type=int,
        default=25,
        metavar="N",
        help="rows to print per profile table (default: 25)",
    )
    parser.add_argument(
        "--profile-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the profile tables to this file (requires --profile)",
    )
    args = parser.parse_args(argv)

    if args.update and args.filter:
        raise SystemExit(
            "--update with --filter would rewrite the baseline from a "
            "partial run; drop one of the two"
        )
    if args.update and args.profile:
        raise SystemExit(
            "--update with --profile would bake profiler overhead into "
            "the baseline; drop one of the two"
        )
    if args.profile_out is not None and not args.profile:
        raise SystemExit("--profile-out only makes sense with --profile")

    if args.profile:
        with tempfile.NamedTemporaryFile(suffix=".prof", delete=False) as tmp:
            profile_path = Path(tmp.name)
        try:
            run_pytest_benchmarks(
                [Path(s) for s in args.suite],
                large=args.large,
                keyword=args.filter,
                profile_path=profile_path,
            )
            table = render_profile(profile_path, args.profile_rows)
        finally:
            profile_path.unlink(missing_ok=True)
        print(table)
        if args.profile_out is not None:
            args.profile_out.write_text(table, encoding="utf-8")
        if args.report is not None:
            args.report.write_text(table, encoding="utf-8")
        return 0

    def measure(keyword: str | None) -> tuple[dict, float | None]:
        report = run_pytest_benchmarks(
            [Path(s) for s in args.suite],
            large=args.large,
            mem=args.mem,
            keyword=keyword,
        )
        return distill(report), host_speed(report)

    writing = args.update or not args.baseline.exists()
    if writing and args.filter:
        raise SystemExit(
            f"no baseline at {args.baseline} and this is a --filter run "
            "— a partial run cannot seed the baseline; run once without "
            "--filter first"
        )
    runs = [measure(args.filter) for _ in range(BASELINE_RUNS if writing else 1)]
    results = median_run([r for r, _ in runs])
    speeds = [s for _, s in runs if s is not None]
    speed = statistics.median(speeds) if speeds else None
    if not results:
        raise SystemExit("no benchmarks collected — is pytest-benchmark installed?")

    if writing:
        if not args.update:
            print(f"no baseline at {args.baseline} — writing one")
        args.baseline.write_text(
            json.dumps(baseline_payload(results, speed), indent=2) + "\n",
            encoding="utf-8",
        )
        message = f"baseline written: {args.baseline} ({len(results)} benchmarks)"
        print(message)
        if args.report is not None:
            args.report.write_text(message + "\n", encoding="utf-8")
        return 0

    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    base = baseline.get("benchmarks", {})
    over = [
        n for n, st in results.items()
        if n in base and ratio(st, base[n]) > args.threshold
    ]
    if over:
        again = [measure(" or ".join(over))[0] for _ in range(CONFIRM_RUNS)]
        for name in over:
            readings = [results[name]] + [a[name] for a in again if name in a]
            results[name] = median_reading(
                readings, key=lambda st, ref=base[name]: ratio(st, ref)
            )
    ok, table = compare(results, baseline, args.threshold, speed)
    if over:
        table += (
            f"\nre-measured, median of {1 + CONFIRM_RUNS} readings: "
            + ", ".join(over)
        )
    verdict = (
        "no regressions"
        if ok
        else f"regressions above {args.threshold:.2f}x — see table"
    )
    print(table)
    print(f"\n{verdict}")
    if args.report is not None:
        args.report.write_text(table + "\n\n" + verdict + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
