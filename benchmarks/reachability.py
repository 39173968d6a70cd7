"""Which functions under ``src/`` no product entry point reaches.

Runs every product entry point in its own subprocess under
:mod:`cProfile`: each ``repro`` CLI command (``run all`` included), the
examples and the four perfbench workloads.  It then matches the
profiled ``(file, first line)`` pairs against every ``def`` under
``src/``, found by AST.  A ``def`` no profile saw is unreached; a
``def`` nested inside an unreached one is not counted again.  Code that
runs only in forked worker processes is invisible to the parent's
profile, so it counts as unreached.

Prints the unreached functions per file, then the totals::

    unreached: 230 of 767 functions, 2057 of 13086 function lines

A function's lines run from its first decorator to its last line.  The
totals count every ``def``, nested ones included.

Usage (from anywhere; measures the checkout this file sits in)::

    python benchmarks/reachability.py

It takes about 100 s on a 2-vCPU box, most of it in ``repro run all``
and the four perfbench workloads.  Profiles and outputs go to a
temporary directory, so nothing is written into the tree.  It is a measurement, not a gate: it
exits 1 only when an entry point fails, since the figures would then
undercount what is reached.
"""

from __future__ import annotations

import ast
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


def defs_in(path: Path):
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

    walk(ast.parse(path.read_text(encoding="utf-8")), "", None)
    return out


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        reached, failed = profile_all(Path(tmp))

    n_defs = n_lines = n_unreached = n_unreached_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        real = os.path.realpath(path)
        defs = defs_in(path)
        missed = set()
        rows = []
        for rec in defs:
            name, first, last, parent = rec
            n_defs += 1
            n_lines += last - first + 1
            if (real, first) in reached:
                continue
            missed.add(rec)
            if parent not in missed:
                rows.append((first, name, last - first + 1))
        if rows:
            lines = sum(r[2] for r in rows)
            print(
                f"{path.relative_to(ROOT)}: {len(rows)} of {len(defs)} "
                f"functions, {lines} lines unreached"
            )
            for line, name, n in rows:
                print(f"    {line:5d}  {name}  ({n} lines)")
            n_unreached += len(rows)
            n_unreached_lines += lines

    print(
        f"\nunreached: {n_unreached} of {n_defs} functions, "
        f"{n_unreached_lines} of {n_lines} function lines"
    )
    if failed:
        print(
            f"{len(failed)} entry point(s) failed, so these figures "
            f"undercount what is reached: {', '.join(failed)}"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
