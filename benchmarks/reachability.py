"""Which functions under ``src/`` no product entry point reaches: a gate.

Reads and hashes every file under ``src/`` first, then runs every
product entry point in its own subprocess under :mod:`cProfile`: each
``repro`` CLI command (``run all`` included), the examples and the four
perfbench workloads.  It then matches the profiled ``(file, first
line)`` pairs against every ``def`` of that first read, found by AST.  A ``def`` no profile saw is unreached; a
``def`` nested inside an unreached one is not counted again.  Code that
runs only in forked worker processes is invisible to the parent's
profile, so it counts as unreached.

Every unreached ``def`` must be on :data:`ALLOWED`, the allow-list of
code kept on purpose.  An entry is ``(file under src/repro, qualname,
reason)``; a qualname ending in ``.`` is a prefix that covers a whole
class, all of whose ``def``s must be unreached.  The reason starts with
one of :data:`KINDS`:

* ``item 1`` — the sharded runtime's worker side (ROADMAP item 1);
* ``item 3`` — the event-driven site engines and the scalar fair-share
  commit they use (ROADMAP item 3);
* ``derivation`` — the derivation of a committed constant (the Table 1
  log-normal bodies in ``traces/paper.LOGNORMAL_BODY``);
* ``stub`` — an abstract method or the protocol default its
  implementations override;
* ``repr`` — a ``__repr__``/``__str__`` debugging aid;
* ``path`` — a product path that only a setting no entry point uses
  reaches; the reason names a test that reaches it.

Prints the unreached functions per file (``!`` marks one not on the
list), then the totals::

    unreached: 230 of 767 functions, 2057 of 13086 function lines

A function's lines run from its first decorator to its last line.  The
totals count every ``def``, nested ones included.

Usage (from anywhere; measures the checkout this file sits in)::

    python benchmarks/reachability.py

It takes about 100 s on a 2-vCPU box, most of it in ``repro run all``
and the four perfbench workloads.  Profiles and outputs go to a
temporary directory, so nothing is written into the tree.  It exits 1
when an unreached ``def`` is not on the allow-list, when an entry names
a ``def`` that is now reached or gone, when an entry point fails (the
figures would then undercount what is reached), or when a file under
``src/`` was added, removed or edited while the entry points ran (their
line numbers may then not be those of the first read); it names every
such file.
"""

from __future__ import annotations

import ast
import hashlib
import os
import pstats
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

EXAMPLES = (
    "archive_traces",
    "fit_distributions",
    "grid_simulation",
    "multi_vo_grid",
    "plan_strategy",
    "quickstart",
    "trace_a_day",
    "weekly_planning",
)
WORKLOADS = ("pop-calm", "pop-chaos-traced", "pop-sharded", "paper-artifacts")

#: the kinds of reason an allow-list entry may give (see the module doc)
KINDS = ("item 1", "item 3", "derivation", "stub", "repr", "path")

#: unreached code kept on purpose: ``(file under src/repro, qualname or
#: class prefix ending in ".", reason)``
ALLOWED = (
    ("cli.py", "_Seed.__call__",
     "path: runs only when a --seed flag is given; reached by "
     "tests/test_cli.py::TestParser::test_negative_seed_is_a_usage_error_naming_the_flag"),
    ("core/strategies/base.py", "Strategy.describe", "stub: abstract method"),
    ("core/strategies/base.py", "Strategy.__repr__", "repr: debugging aid"),
    ("distributions/base.py", "LatencyDistribution.cdf", "stub: abstract method"),
    ("distributions/base.py", "LatencyDistribution.ppf", "stub: abstract method"),
    ("distributions/base.py", "LatencyDistribution.params",
     "stub: the default the parametric families override"),
    ("distributions/base.py", "LatencyDistribution.__repr__", "repr: debugging aid"),
    ("distributions/moments.py", "truncated_mean_std",
     "derivation: the truncated moments calibrate_lognormal inverts"),
    ("distributions/moments.py", "_truncated_moments",
     "derivation: the truncated moments calibrate_lognormal inverts"),
    ("distributions/parametric.py", "LogNormal.from_mean_std",
     "derivation: calibrate_lognormal's starting point"),
    ("distributions/shifted.py", "ShiftedDistribution.pdf",
     "derivation: the shifted body's density the calibration integrates"),
    ("distributions/truncated.py", "TruncatedDistribution.cdf",
     "stub: the protocol's abstract cdf; synthesis samples the truncated "
     "body through ppf only"),
    ("experiments/base.py", "ExperimentResult.__str__", "repr: convenience"),
    ("experiments/runner.py", "_render_task",
     "path: runs in the process-pool workers of repro run --jobs N, which "
     "the parent's profile cannot see; reached by "
     "tests/test_runner.py::TestRunMany::test_parallel_output_equals_sequential"),
    ("gridsim/client.py", "TaskCore.finished", "stub: abstract method"),
    ("gridsim/events.py", "Event.__repr__", "repr: debugging aid"),
    ("gridsim/events.py", "Simulator.schedule_many",
     "item 3: the event-driven site's background intake is its one caller"),
    ("gridsim/events.py", "Simulator._compact",
     "path: runs once cancelled husks fill half a large heap; reached by "
     "tests/test_gridsim_kernel.py::TestCompaction::test_husks_compacted_past_threshold"),
    ("gridsim/fairshare.py", "FairShareState._decay_to",
     "item 3: the per-start scalar commit the event-driven engine uses"),
    ("gridsim/fairshare.py", "FairShareState.select",
     "item 3: the per-start scalar commit the event-driven engine uses"),
    ("gridsim/fairshare.py", "FairShareState.charge",
     "item 3: the per-start scalar commit the event-driven engine uses"),
    ("gridsim/fairshare.py", "FairShareComputingElement.",
     "item 3: the event-driven site engine, which only the tests build"),
    ("gridsim/fairshare.py", "FairShareVectorComputingElement.__repr__",
     "repr: debugging aid"),
    ("gridsim/health.py", "HealthService._probe_started",
     "path: a banned site's readmission probe starting; reached by "
     "tests/test_weather_health.py::TestHealthMachine::test_probe_readmission_on_healthy_site"),
    ("gridsim/jobs.py", "Job.__repr__", "repr: debugging aid"),
    ("gridsim/registry.py", "Counter.__repr__", "repr: debugging aid"),
    ("gridsim/registry.py", "Histogram.__repr__", "repr: debugging aid"),
    ("gridsim/registry.py", "MetricsRegistry.__repr__", "repr: debugging aid"),
    ("gridsim/site.py", "ComputingElement.",
     "item 3: the event-driven site engine, which only the tests build"),
    ("gridsim/site.py", "VectorComputingElement.feed_background",
     "stub: the intake contract the vector engine implements"),
    ("gridsim/site.py", "VectorComputingElement.end_black_hole",
     "path: the end of a weather black-hole window; reached by "
     "tests/test_fairshare_block.py::TestBlockVsScalarScripts::test_black_hole_burst"),
    ("gridsim/tracing.py", "TraceRecorder.expire",
     "path: a traced task that gives up; reached by "
     "tests/test_tracing.py::TestTaskEndEvents::test_expired_task_records_an_expire_event"),
    ("gridsim/tracing.py", "TraceRecorder.rescue",
     "path: a traced run with the resubmission agent; reached by "
     "tests/test_tracing.py::TestTaskEndEvents::test_agent_rescue_records_a_rescue_event"),
    ("gridsim/wms.py", "WorkloadManager.__repr__", "repr: debugging aid"),
    ("gridsim/wms.py", "WorkloadManager.submit_many",
     "path: sibling copies on the per-job dispatch engine "
     "(wms_engine='event'); reached by "
     "tests/test_gridsim_system.py::TestEventDrivenStrategyRuns::test_submit_many_matches_submit_loop_on_oracle"),
    ("population/shard.py", "_RemoteSite.",
     "item 1: the shard worker side runs in forked children"),
    ("population/shard.py", "_ShardRuntime.",
     "item 1: the shard worker side runs in forked children"),
    ("population/shard.py", "_shard_worker",
     "item 1: the shard worker side runs in forked children"),
    ("population/soa.py", "TaskPool._expire_one",
     "path: a fleet timeout firing on the pool; reached by "
     "tests/test_population_soa.py::TestLaunchWalkerOracle::test_claiming_walker_matches_rechaining"),
    ("traces/calibration.py", "CalibrationResult.relative_error",
     "derivation: calibrate_lognormal's acceptance check"),
    ("traces/calibration.py", "calibrate_lognormal",
     "derivation: the solver behind traces/paper.LOGNORMAL_BODY"),
    ("util/memory.py", "_rusage_peak_bytes",
     "path: the RSS readings where /proc is absent; reached by "
     "tests/test_util_misc.py::TestMemory::test_without_proc_the_rusage_peak_stands_in"),
    ("util/memory.py", "bytes_per_task",
     "path: only a population day of 10^5 tasks or more prints it; reached by "
     "tests/test_util_misc.py::TestMemory::test_bytes_per_task_measures_growth_past_the_baseline"),
)


def entry_points(tmp: Path) -> list[tuple[str, list[str]]]:
    """``(label, argv after the interpreter)`` for every entry point.

    ``report`` reads the trace ``chaos --trace`` writes, so it follows it.
    """
    trace = str(tmp / "trace.jsonl")
    repro = ["-m", "repro"]
    points = [
        ("list", [*repro, "list"]),
        ("run all", [*repro, "run", "all", "--out", str(tmp / "all")]),
        ("federation", [*repro, "federation"]),
        (
            "population",
            [*repro, "population", "--scale", "2000", "--sites", "6",
             "--cores", "64"],
        ),
        ("weather", [*repro, "weather"]),
        (
            "chaos --matrix",
            [*repro, "chaos", "--matrix", "--schedules", "2", "--tasks", "20"],
        ),
        (
            "chaos --trace",
            [*repro, "chaos", "--schedule", "storm-broker-site", "--trace",
             trace, "--tasks", "20"],
        ),
        ("report", [*repro, "report", trace, "--gwf", str(tmp / "trace.gwf")]),
        ("describe", [*repro, "describe", "2006-IX"]),
    ]
    points += [
        (f"examples/{e}.py", [str(ROOT / "examples" / f"{e}.py")])
        for e in EXAMPLES
    ]
    points.append(
        (
            "examples/population_1m.py",
            [str(ROOT / "examples" / "population_1m.py"), "--scale", "20000"],
        )
    )
    points += [
        (
            f"perfbench {w}",
            [str(ROOT / "perfbench" / "run.py"), "--workload", w, "--seed",
             "7", "--seconds", "0"],
        )
        for w in WORKLOADS
    ]
    return points


def profile_all(tmp: Path) -> tuple[set[tuple[str, int]], list[str]]:
    """Run every entry point under cProfile; the reached pairs and failures."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    reached: set[tuple[str, int]] = set()
    failed = []
    for k, (label, argv) in enumerate(entry_points(tmp)):
        prof = tmp / f"{k}.prof"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "cProfile", "-o", str(prof), *argv],
            cwd=tmp,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0 or not prof.exists():
            failed.append(label)
            print(f"FAILED {label} (exit {proc.returncode}):", file=sys.stderr)
            print(proc.stderr[-2000:], file=sys.stderr)
            continue
        print(f"ran {label} in {wall:.1f}s", file=sys.stderr)
        for filename, line, _ in pstats.Stats(str(prof)).stats:
            reached.add((os.path.realpath(filename), line))
    return reached, failed


def read_tree(src: Path = SRC) -> dict[Path, tuple[str, str]]:
    """``path -> (sha256, text)`` for every ``.py`` file under ``src``."""
    tree = {}
    for path in sorted(src.rglob("*.py")):
        data = path.read_bytes()
        tree[path] = (hashlib.sha256(data).hexdigest(), data.decode("utf-8"))
    return tree


def changed_since(tree: dict[Path, tuple[str, str]], src: Path = SRC) -> list[Path]:
    """Files under ``src`` added, removed or edited since ``tree`` was read."""
    now = {path: digest for path, (digest, _) in read_tree(src).items()}
    then = {path: digest for path, (digest, _) in tree.items()}
    return sorted(p for p in now.keys() | then.keys() if now.get(p) != then.get(p))


def defs_in(text: str):
    """``(qualname, first line, last line, nesting parent)`` per ``def``.

    The first line is the first decorator's, as in the code object's
    ``co_firstlineno`` that cProfile reports.
    """
    out = []

    def walk(node, prefix: str, parent) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                rec = (f"{prefix}{child.name}", first, child.end_lineno, parent)
                out.append(rec)
                walk(child, f"{prefix}{child.name}.", rec)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", parent)
            else:
                walk(child, prefix, parent)

    walk(ast.parse(text), "", None)
    return out


def covers(entry: str, name: str) -> bool:
    """Whether an allow-list qualname (or ``Class.`` prefix) covers ``name``."""
    if entry.endswith("."):
        return name.startswith(entry)
    return name == entry


def listed(file: str, name: str) -> bool:
    """Whether an :data:`ALLOWED` entry covers ``name`` in ``file``."""
    return any(ef == file and covers(entry, name) for ef, entry, _ in ALLOWED)


def check_allowed(
    unreached: dict[str, list[str]], reached: dict[str, list[str]]
) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """The unreached ``def``s not on :data:`ALLOWED`, and its stale entries.

    Both maps go from a file under ``src/repro`` to qualnames: the
    unreached ``def``s (those nested in an unreached ``def`` left out) and
    the reached ones.  An entry is stale when it covers no unreached
    ``def``, or, for a class prefix, when it covers a reached one.
    """
    missing = [
        (f, n) for f, names in unreached.items() for n in names if not listed(f, n)
    ]
    stale = [
        (ef, entry)
        for ef, entry, _ in ALLOWED
        if not any(covers(entry, n) for n in unreached.get(ef, ()))
        or any(covers(entry, n) for n in reached.get(ef, ()))
    ]
    return missing, stale


def main() -> int:
    # parse before profiling: the profiles' line numbers are those of
    # the files as the entry points imported them
    tree = read_tree()
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        reached, failed = profile_all(Path(tmp))
    changed = changed_since(tree)

    n_defs = n_lines = n_unreached = n_unreached_lines = 0
    unreached_names: dict[str, list[str]] = {}
    reached_names: dict[str, list[str]] = {}
    for path, (_, text) in tree.items():
        real = os.path.realpath(path)
        rel = path.relative_to(SRC / "repro").as_posix()
        defs = defs_in(text)
        missed = set()
        rows = []
        for rec in defs:
            name, first, last, parent = rec
            n_defs += 1
            n_lines += last - first + 1
            if (real, first) in reached:
                reached_names.setdefault(rel, []).append(name)
                continue
            missed.add(rec)
            if parent not in missed:
                rows.append((first, name, last - first + 1))
        if rows:
            unreached_names[rel] = [name for _, name, _ in rows]
            lines = sum(r[2] for r in rows)
            print(
                f"{path.relative_to(ROOT)}: {len(rows)} of {len(defs)} "
                f"functions, {lines} lines unreached"
            )
            for line, name, n in rows:
                mark = " " if listed(rel, name) else "!"
                print(f"  {mark} {line:5d}  {name}  ({n} lines)")
            n_unreached += len(rows)
            n_unreached_lines += lines

    print(
        f"\nunreached: {n_unreached} of {n_defs} functions, "
        f"{n_unreached_lines} of {n_lines} function lines"
    )
    missing, stale = check_allowed(unreached_names, reached_names)
    for f, name in missing:
        print(f"not on the allow-list: src/repro/{f}: {name}")
    for f, entry in stale:
        print(f"stale allow-list entry (reached or gone): src/repro/{f}: {entry}")
    if failed:
        print(
            f"{len(failed)} entry point(s) failed, so these figures "
            f"undercount what is reached: {', '.join(failed)}"
        )
    for path in changed:
        print(
            f"changed during the run: {path.relative_to(ROOT)} "
            "(its profiled lines may not match the parse)"
        )
    return 1 if failed or missing or stale or changed else 0


if __name__ == "__main__":
    sys.exit(main())
