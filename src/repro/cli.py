"""Command-line interface: list and run reproduction experiments.

Usage::

    python -m repro list
    python -m repro run table2 --seed 2009 --dt 1.0
    python -m repro run all --out results/ --jobs 4
    python -m repro population --scale 100000
    python -m repro describe 2006-IX
    python -m repro chaos --schedule storm-broker-site --trace trace.jsonl
    python -m repro report trace.jsonl --gwf trace.gwf
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro._version import __version__
from repro.experiments import list_experiments
from repro.experiments.runner import iter_many
from repro.traces.paper import PAPER_TABLE1, synthesize_week
from repro.util.validation import check_int_at_least, check_positive

__all__ = ["main", "build_parser"]


class _Seed(argparse.Action):
    """A ``--seed``-style flag: an int, refused below 0 with the flag named.

    numpy's seeding rejects negative seeds deep inside a run; checking
    at parse time names the flag and exits with the usage status 2.
    """

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, type=int, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        if values < 0:
            parser.error(f"{option_string} must be >= 0, got {values}")
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Modeling user submission strategies on "
            "production grids' (HPDC 2009)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.add_argument("experiment", help="experiment id from 'list', or 'all'")
    run_p.add_argument(
        "--seed", action=_Seed, default=2009, help="trace-synthesis seed"
    )
    run_p.add_argument(
        "--dt",
        type=float,
        default=1.0,
        help="time-grid resolution in seconds (coarser = faster)",
    )
    run_p.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to write rendered results into (one .txt per id)",
    )
    run_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for running several experiments in "
            "parallel (output is byte-identical to --jobs 1)"
        ),
    )

    fed_p = sub.add_parser(
        "federation",
        help="run a user population on a multi-VO federated grid",
    )
    fed_p.add_argument("--sites", type=int, default=8, help="number of sites")
    fed_p.add_argument(
        "--brokers", type=int, default=2, help="number of federated WMS brokers"
    )
    fed_p.add_argument(
        "--vos",
        default="biomed:0.5,atlas:0.3,cms:0.2",
        help="comma-separated VO:share pairs (shares are normalised)",
    )
    fed_p.add_argument(
        "--tasks", type=int, default=2000, help="total tasks across all VOs"
    )
    fed_p.add_argument(
        "--adoption",
        type=float,
        default=0.5,
        help="fraction of the first VO's tasks adopting burst submission",
    )
    fed_p.add_argument(
        "-b", type=int, default=3, help="burst width of the adopted strategy"
    )
    fed_p.add_argument(
        "--runtime", type=float, default=600.0, help="task payload runtime (s)"
    )
    fed_p.add_argument(
        "--window",
        type=float,
        default=86_400.0,
        help="submission window (virtual s)",
    )
    fed_p.add_argument(
        "--utilization", type=float, default=0.85, help="background utilisation"
    )
    fed_p.add_argument(
        "--info-lag",
        type=float,
        default=900.0,
        help="federated staleness towards non-owned sites (s)",
    )
    fed_p.add_argument("--seed", action=_Seed, default=29)

    pop_p = sub.add_parser(
        "population",
        help="run the fleet-scale population day",
    )
    pop_p.add_argument(
        "--scale",
        type=int,
        default=20_000,
        help="total tasks across the four preset fleets",
    )
    pop_p.add_argument(
        "--sites",
        type=int,
        default=None,
        help="number of fair-share sites (default: scaled with --scale)",
    )
    pop_p.add_argument(
        "--cores", type=int, default=256, help="cores per site"
    )
    pop_p.add_argument(
        "--seed", action=_Seed, default=41, help="launch-schedule seed"
    )
    pop_p.add_argument(
        "--grid-seed", action=_Seed, default=41, help="grid warm-up seed"
    )

    weather_p = sub.add_parser(
        "weather",
        help="run one strategy campaign under a grid-weather regime",
    )
    weather_p.add_argument(
        "--regime",
        choices=("calm", "storms", "black-hole"),
        default="black-hole",
        help="weather thrown at the grid",
    )
    weather_p.add_argument(
        "--strategy",
        choices=("single", "multiple", "delayed"),
        default="single",
        help="user-side submission strategy",
    )
    weather_p.add_argument(
        "--self-healing",
        action="store_true",
        help="enable the service-side resubmission agent",
    )
    weather_p.add_argument(
        "--tasks", type=int, default=400, help="tasks in the campaign"
    )
    weather_p.add_argument(
        "--interval", type=float, default=20.0, help="gap between launches (s)"
    )
    weather_p.add_argument(
        "--runtime", type=float, default=600.0, help="task payload runtime (s)"
    )
    weather_p.add_argument(
        "-b", type=int, default=3, help="burst width of the multiple strategy"
    )
    weather_p.add_argument(
        "--t-inf", type=float, default=4000.0, help="resubmission timeout (s)"
    )
    weather_p.add_argument("--seed", action=_Seed, default=43)

    chaos_p = sub.add_parser(
        "chaos",
        help="seeded middleware-fault campaigns + task-conservation audit",
    )
    chaos_p.add_argument(
        "--matrix",
        action="store_true",
        help=(
            "sweep the standard schedules over both WMS engines "
            "(the CI smoke job)"
        ),
    )
    chaos_p.add_argument(
        "--schedules",
        type=int,
        default=0,
        metavar="N",
        help=(
            "also audit N extra generator-drawn fault schedules "
            "(seeds seed+1..seed+N)"
        ),
    )
    chaos_p.add_argument(
        "--tasks", type=int, default=30, help="tasks per campaign"
    )
    chaos_p.add_argument(
        "--horizon",
        type=float,
        default=8 * 3600.0,
        help="campaign horizon after warm-up (s)",
    )
    chaos_p.add_argument("--seed", action=_Seed, default=11)
    chaos_p.add_argument(
        "--schedule",
        metavar="NAME",
        default=None,
        help=(
            "run only the named standard schedule (e.g. "
            "'storm-broker-site') instead of the full set"
        ),
    )
    chaos_p.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "record an end-to-end task trace of the campaign to this "
            "JSONL file (requires --schedule, incompatible with "
            "--matrix); read it back with 'repro report'"
        ),
    )

    report_p = sub.add_parser(
        "report",
        help="latency-decomposition report from a recorded task trace",
    )
    report_p.add_argument(
        "trace", type=Path, help="JSONL trace written by 'repro chaos --trace'"
    )
    report_p.add_argument(
        "--gwf",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "also export the completed tasks as a Grid Workloads Format "
            "trace (parseable by repro.traces.gwf)"
        ),
    )
    report_p.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the report to this file as well as stdout",
    )

    desc_p = sub.add_parser("describe", help="describe a paper trace set")
    desc_p.add_argument("week", help="trace-set name, e.g. 2006-IX")
    desc_p.add_argument("--seed", action=_Seed, default=2009)

    return parser


def _output_error(flag: str, path: Path, *, directory: bool = False) -> str | None:
    """Why ``path`` cannot take a command's output, or ``None`` if it can.

    A file output needs an existing parent directory and must not be a
    directory itself; a directory output (created with its parents) must
    not run into an existing non-directory.  Commands check every output
    path this way before any work runs.
    """
    if directory:
        existing = next(p for p in (path, *path.parents) if p.exists())
        if not existing.is_dir():
            return f"{flag}: {existing} exists and is not a directory"
        return None
    if path.is_dir():
        return f"{flag}: {path} is a directory"
    if not path.parent.is_dir():
        return f"{flag}: directory {path.parent} does not exist"
    return None


def _cmd_list(out) -> int:
    for exp_id in list_experiments():
        out.write(exp_id + "\n")
    return 0


def _cmd_run(args, out) -> int:
    targets = list_experiments() if args.experiment == "all" else [args.experiment]
    unknown = [t for t in targets if t not in list_experiments()]
    if unknown:
        out.write(
            f"error: unknown experiment(s): {', '.join(unknown)}\n"
            f"available: {', '.join(list_experiments())}\n"
        )
        return 2
    if args.jobs < 1:
        out.write(f"error: --jobs must be >= 1, got {args.jobs}\n")
        return 2
    try:
        check_positive("--dt", args.dt)
    except ValueError as exc:
        out.write(f"error: {exc}\n")
        return 2
    if args.out is not None:
        problem = _output_error("--out", args.out, directory=True)
        if problem is not None:
            out.write(f"error: {problem}\n")
            return 2
        args.out.mkdir(parents=True, exist_ok=True)
    # consume lazily: each experiment is written/printed the moment it
    # finishes, so an interrupt or failure keeps the completed ones
    for exp_id, text in iter_many(
        targets, seed=args.seed, dt=args.dt, jobs=args.jobs
    ):
        if args.out is not None:
            (args.out / f"{exp_id}.txt").write_text(text + "\n", encoding="utf-8")
            out.write(f"wrote {args.out / (exp_id + '.txt')}\n")
        else:
            out.write(text + "\n\n")
    return 0


def _parse_vo_shares(raw: str) -> tuple[tuple[str, float], ...]:
    """Parse ``"biomed:0.5,atlas:0.3"`` into share pairs."""
    pairs = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, share = part.partition(":")
        if not name or not share:
            raise ValueError(f"malformed VO share {part!r}; expected name:share")
        pairs.append((name, float(share)))
    if not pairs:
        raise ValueError(f"no VO shares in {raw!r}")
    return tuple(pairs)


def _write_fleets(out, result, title: str) -> None:
    """Write a population run's per-fleet latency table."""
    from repro.util.tables import Table, format_float, format_seconds

    table = Table(
        title=title,
        columns=["fleet", "tasks", "mean J", "median J", "jobs/task", "gave up"],
    )
    for f in result.fleets:
        table.add_row(
            f.spec.label,
            f.spec.n_tasks,
            format_seconds(f.mean_j),
            format_seconds(f.median_j),
            format_float(f.mean_jobs, 2),
            f.gave_up,
        )
    out.write(table.render() + "\n")


def _cmd_federation(args, out) -> int:
    """Build a federated multi-VO grid and run one adoption population."""
    from repro.core.strategies import MultipleSubmission, SingleResubmission
    from repro.gridsim import federated_grid_config, warmed_snapshot
    from repro.population import adoption_population, run_population
    from repro.traces.generator import DiurnalProfile
    from repro.util.tables import Table, format_percent

    try:
        vo_shares = _parse_vo_shares(args.vos)
        config = federated_grid_config(
            n_sites=args.sites,
            n_brokers=args.brokers,
            vo_shares=vo_shares,
            seed=args.seed,
            utilization=args.utilization,
            info_lag=args.info_lag,
        )
    except ValueError as exc:
        out.write(f"error: {exc}\n")
        return 2
    if args.tasks < len(vo_shares):
        out.write(f"error: --tasks must be >= {len(vo_shares)}\n")
        return 2
    if not 0.0 <= args.adoption <= 1.0:
        out.write(f"error: --adoption must be in [0, 1], got {args.adoption}\n")
        return 2
    total = sum(s for _, s in vo_shares)
    vo_tasks = {
        vo: max(1, int(round(args.tasks * s / total))) for vo, s in vo_shares
    }
    try:
        spec = adoption_population(
            vo_tasks=vo_tasks,
            strategies={vo: SingleResubmission(t_inf=4000.0) for vo in vo_tasks},
            adopter_vo=vo_shares[0][0],
            adopted=MultipleSubmission(b=args.b, t_inf=4000.0),
            adoption=args.adoption,
            window=args.window,
            runtime=args.runtime,
            diurnal=DiurnalProfile(amplitude=0.4),
        )
        # building the grid validates the remaining knobs (per-site
        # utilisation draws land above args.utilization, so e.g. 1.45
        # can still be rejected here)
        grid = warmed_snapshot(
            config, seed=args.seed, duration=6 * 3600.0
        ).restore()
        result = run_population(grid, spec, seed=args.seed)
    except ValueError as exc:
        out.write(f"error: {exc}\n")
        return 2

    _write_fleets(
        out,
        result,
        f"population of {spec.total_tasks} tasks on {args.sites} sites / "
        f"{args.brokers} brokers ({format_percent(args.adoption, 0)} of "
        f"{vo_shares[0][0]} bursting b={args.b})",
    )
    out.write(
        f"\nbroker dispatches: "
        + ", ".join(
            f"{bc.name}: {d}"
            for bc, d in zip(config.brokers, result.broker_dispatches)
        )
        + f"\nmiddleware faults: {result.jobs_lost} lost, "
        f"{result.jobs_stuck} stuck\n"
    )
    if result.site_usage_shares:
        vo_names = [vo for vo, _ in vo_shares]
        usage = Table(
            title="end-state fair-share usage per site",
            columns=["site", *vo_names],
        )
        for site, shares in result.site_usage_shares.items():
            usage.add_row(
                site, *(format_percent(shares[vo], 1) for vo in vo_names)
            )
        out.write("\n" + usage.render() + "\n")
    return 0


def _cmd_population(args, out) -> int:
    """Run the preset population day on one warmed grid."""
    import time

    from repro.gridsim.grid import warmed_grid
    from repro.population import run_population
    from repro.population.presets import (
        fleet_grid_config,
        fleet_population_spec,
        fleet_sites_for,
    )
    from repro.util.memory import memory_summary, rss_bytes

    if args.scale < 0:
        out.write(f"error: --scale must be >= 0, got {args.scale}\n")
        return 2
    n_sites = args.sites if args.sites is not None else fleet_sites_for(args.scale)
    try:
        config = fleet_grid_config(n_sites, args.cores)
        spec = fleet_population_spec(args.scale)
        t0 = time.perf_counter()
        grid = warmed_grid(config, args.grid_seed)
        warm = time.perf_counter() - t0
        rss_before = rss_bytes()
        result = run_population(grid, spec, seed=args.seed)
        wall = time.perf_counter() - t0
    except ValueError as exc:
        out.write(f"error: {exc}\n")
        return 2

    _write_fleets(
        out,
        result,
        f"population day: {spec.total_tasks} tasks on {n_sites} "
        f"sites x {args.cores} cores",
    )
    rate = spec.total_tasks / wall if wall > 0 else 0.0
    # every timing stays on a line that says "wall": determinism checks
    # diff the output with those lines filtered out
    phases = ", ".join(
        f"{k} {v:.2f}s" for k, v in {"warm": warm, **result.phases}.items()
    )
    memory = memory_summary(rss_before, spec.total_tasks)
    out.write(
        f"\nfinished {result.total_finished}/{spec.total_tasks} tasks in "
        f"{wall:.1f}s wall ({rate:.0f} tasks/s, {memory}), "
        f"virtual span {result.duration:.0f}s\n"
        f"wall by phase: {phases}\n"
        f"broker dispatches: "
        + ", ".join(str(d) for d in result.broker_dispatches)
        + "\n"
    )
    return 0


def _cmd_weather(args, out) -> int:
    """Run one strategy campaign on a weathered grid and report telemetry."""
    from dataclasses import replace

    from repro.core.strategies import (
        DelayedResubmission,
        MultipleSubmission,
        SingleResubmission,
    )
    from repro.experiments.grid_weather import weather_grid_config, weather_regimes
    from repro.gridsim import ResubmitConfig, run_strategy_on_grid, warmed_snapshot
    from repro.util.tables import Table, format_float, format_seconds

    warm = 6 * 3600.0
    try:
        strategy = {
            "single": lambda: SingleResubmission(t_inf=args.t_inf),
            "multiple": lambda: MultipleSubmission(b=args.b, t_inf=args.t_inf),
            "delayed": lambda: DelayedResubmission(
                t0=args.t_inf / 2.0, t_inf=args.t_inf
            ),
        }[args.strategy]()
        weather = dict(
            (name.replace(" ", "-"), w) for name, w in weather_regimes(warm)
        )[args.regime]
        config = replace(
            weather_grid_config(),
            weather=weather,
            resubmit=ResubmitConfig() if args.self_healing else None,
        )
        grid = warmed_snapshot(config, seed=args.seed, duration=warm).restore()
        outcome = run_strategy_on_grid(
            grid,
            strategy,
            args.tasks,
            task_interval=args.interval,
            runtime=args.runtime,
        )
    except ValueError as exc:
        out.write(f"error: {exc}\n")
        return 2

    table = Table(
        title=(
            f"{args.tasks} {args.strategy} tasks under {args.regime} weather "
            f"(self-healing {'on' if args.self_healing else 'off'})"
        ),
        columns=["finished", "mean J", "median J", "jobs/task", "gave up"],
    )
    import numpy as np

    table.add_row(
        outcome.j.size,
        format_seconds(outcome.mean_j if outcome.j.size else float("nan")),
        format_seconds(
            float(np.median(outcome.j)) if outcome.j.size else float("nan")
        ),
        format_float(outcome.mean_jobs, 2),
        outcome.gave_up,
    )
    out.write(table.render() + "\n")
    report = grid.weather_report()
    out.write(
        f"\nweather: {report['outages_started']} outages, "
        f"{sum(report['jobs_killed'].values())} jobs killed, "
        f"{sum(report['black_hole_failures'].values())} black-hole failures\n"
    )
    health = report.get("health")
    if health is not None:
        states = ", ".join(
            f"{site}: {state}" for site, state in health["states"].items()
        )
        out.write(f"site health: {states}\n")
        if health["transitions"]:
            out.write(
                "transitions: "
                + ", ".join(
                    f"{k}: {n}" for k, n in sorted(health["transitions"].items())
                )
                + "\n"
            )
    resub = report.get("resubmit")
    if resub is not None:
        out.write(
            f"self-healing: {resub['detected']} failures detected, "
            f"{resub['resubmissions']} resubmissions\n"
        )
    return 0


def _cmd_chaos(args, out) -> int:
    """Audit task conservation under seeded middleware-fault schedules."""
    import dataclasses

    from repro.gridsim.chaos import (
        chaos_grid_config,
        chaos_matrix,
        fault_schedule,
        run_chaos,
        standard_schedules,
    )
    from repro.gridsim.tracing import write_trace
    from repro.util.tables import Table

    if args.trace is not None and args.schedule is None:
        out.write("error: --trace requires --schedule\n")
        return 2
    if args.trace is not None and args.matrix:
        out.write("error: --trace is incompatible with --matrix\n")
        return 2
    if args.schedule is not None and args.schedules > 0:
        out.write("error: --schedules is incompatible with --schedule\n")
        return 2
    if args.trace is not None:
        problem = _output_error("--trace", args.trace)
        if problem is not None:
            out.write(f"error: {problem}\n")
            return 2
    try:
        check_int_at_least("--schedules", args.schedules, 0)
        base = chaos_grid_config(seed=args.seed)
        schedules = standard_schedules(base)
        if args.schedule is not None:
            names = [name for name, _ in schedules]
            if args.schedule not in names:
                out.write(
                    f"error: unknown schedule {args.schedule!r}; "
                    f"available: {', '.join(names)}\n"
                )
                return 2
            schedules = [
                (name, cfg) for name, cfg in schedules if name == args.schedule
            ]
        schedules += [
            (f"generated#{k}", fault_schedule(base, args.seed + k))
            for k in range(1, args.schedules + 1)
        ]
        if args.trace is not None:
            schedules = [
                (name, dataclasses.replace(cfg, tracing=True))
                for name, cfg in schedules
            ]
        table = Table(
            title="chaos campaigns: task-conservation audit",
            columns=[
                "corner",
                "schedule",
                "finished",
                "gave up",
                "copies",
                "dups (reconciled)",
                "audit",
            ],
        )
        if args.matrix:
            campaigns = chaos_matrix(
                base,
                schedules,
                seed=args.seed,
                n_tasks=args.tasks,
                horizon=args.horizon,
            )
        else:
            campaigns = [
                (
                    cfg.wms_engine,
                    name,
                    run_chaos(
                        cfg,
                        seed=args.seed,
                        n_tasks=args.tasks,
                        horizon=args.horizon,
                    ),
                )
                for name, cfg in schedules
            ]
        failures = 0
        for corner, name, res in campaigns:
            table.add_row(
                corner,
                name,
                res.finished,
                res.gave_up,
                res.report.jobs,
                f"{res.report.duplicates} ({res.report.duplicates_reconciled})",
                "ok" if res.ok else "VIOLATED",
            )
            if not res.ok:
                failures += 1
                where = f"{corner}/{name}" if args.matrix else name
                for v in res.report.violations:
                    out.write(f"violation [{where}]: {v}\n")
        if args.trace is not None:
            # --trace takes one --schedule and no --matrix: one campaign
            ((_, _, res),) = campaigns
            write_trace(res.events, args.trace)
            out.write(f"wrote {args.trace} ({len(res.events)} events)\n")
    except ValueError as exc:
        out.write(f"error: {exc}\n")
        return 2
    out.write(table.render() + "\n")
    if failures:
        out.write(f"\n{failures} campaign(s) violated task conservation\n")
        return 1
    out.write("\nevery task accounted for exactly once\n")
    return 0


def _cmd_report(args, out) -> int:
    """Render a latency-decomposition report from a recorded trace."""
    from repro.gridsim.tracing import (
        breakdown_tables,
        decompose,
        export_gwf,
        read_trace,
    )

    for flag, path in (("--out", args.out), ("--gwf", args.gwf)):
        problem = None if path is None else _output_error(flag, path)
        if problem is not None:
            out.write(f"error: {problem}\n")
            return 2
    try:
        events = read_trace(args.trace)
    except (OSError, ValueError, KeyError) as exc:
        out.write(f"error: cannot read trace {args.trace}: {exc}\n")
        return 2
    try:
        records = decompose(events)
    except ValueError as exc:
        out.write(f"error: {exc}\n")
        return 2
    by_strategy, by_vo = breakdown_tables(records)
    text = (
        f"trace: {args.trace} — {len(events)} events, "
        f"{len(records)} completed tasks\n\n"
        + by_strategy.render()
        + "\n\n"
        + by_vo.render()
        + "\n"
    )
    out.write(text)
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
        out.write(f"wrote {args.out}\n")
    if args.gwf is not None:
        n = export_gwf(events, args.gwf)
        out.write(f"wrote {args.gwf} ({n} GWF rows)\n")
    return 0


def _cmd_describe(args, out) -> int:
    if args.week not in PAPER_TABLE1:
        out.write(
            f"error: unknown trace set {args.week!r}; available: "
            f"{', '.join(PAPER_TABLE1)}\n"
        )
        return 2
    stats = PAPER_TABLE1[args.week]
    out.write(
        f"{args.week}: paper statistics — mean<1e4 {stats.mean_less:.0f}s, "
        f"bounded mean {stats.mean_with:.0f}s, sigma_R {stats.sigma_r:.0f}s, "
        f"rho {stats.rho:.3f}\n"
    )
    if args.week != "2007/08":
        trace = synthesize_week(args.week, seed=args.seed)
        out.write(f"synthesized: {trace.describe()}\n")
    else:
        out.write("(the 2007/08 aggregate is the union of the weekly sets)\n")
    return 0


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(out)
    if args.command == "run":
        return _cmd_run(args, out)
    if args.command == "federation":
        return _cmd_federation(args, out)
    if args.command == "population":
        return _cmd_population(args, out)
    if args.command == "weather":
        return _cmd_weather(args, out)
    if args.command == "chaos":
        return _cmd_chaos(args, out)
    if args.command == "report":
        return _cmd_report(args, out)
    if args.command == "describe":
        return _cmd_describe(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
