"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pop-calm --seed 2009 --seconds 20 --trace 0

After one untimed warm-up repetition, the workload is repeated until
``--seconds`` have passed (at least once); every metric is the median
over the measured repetitions, and every end-to-end time is scaled by
the host speed measured around its repetition
(:mod:`perfbench.hostspeed`).  ``--trace 0`` prints
the end-to-end metrics of untraced repetitions.  ``--trace 1`` alternates
untraced and traced repetitions, prints the per-layer metrics of the
traced ones, a self-time table, and writes every span to
``.perfbench/spans-<workload>.npz``.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark builds nothing: it imports the package from ``src/`` next
to this directory and exits with status 2, printing no result, when that
source tree is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: workloads whose run forks worker processes (for the memory metric)
_WORKERS = {"pop-sharded": 2}


def _parse(argv):
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, default=2009)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(workload, seed: int, seconds: float, trace: bool):
    """Repeat ``workload`` for ``seconds``.

    Returns ``(warm, plain, traced, rec)``.  The ``warm`` repetition runs
    first and outside the clock, so lazy imports and first-touch
    allocation land in no measured repetition; its outputs are still
    checked like every other repetition's.  A host-speed probe runs
    before, between and after the measured repetitions; their median
    sets every repetition's ``speed``.
    """
    from perfbench import hostspeed
    from perfbench.spans import SpanRecorder

    rec = SpanRecorder() if trace else None
    plain, traced = [], []
    probe = hostspeed.Probe()
    warm = workload.repetition(seed)
    deadline = perf_counter() + seconds
    # the previous repetition's garbage is collected off the clock, so
    # each one, and each probe, starts from the same heap
    gc.collect()
    probes = [probe()]
    while True:
        if trace and len(traced) < len(plain):
            rec.run = len(traced)
            traced.append(workload.repetition(seed, rec))
        else:
            plain.append(workload.repetition(seed))
        gc.collect()
        probes.append(probe())
        if perf_counter() >= deadline and (traced or not trace):
            break
    speed = hostspeed.speed(probes)
    for rep in plain + traced:
        rep.speed = speed
    return warm, plain, traced, rec


def verdict(reps) -> tuple[bool, int, int, list]:
    """``(correct, attempted, failed, problems)`` over all repetitions.

    Every repetition must pass its own checks, and every repetition of
    the seed, traced or not, must produce the same simulated outputs.
    """
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    problems = sorted({p for r in reps for p in r.problems})
    ref = reps[0]
    for r in reps[1:]:
        if r.digest != ref.digest or r.law != ref.law:
            failed += 1
            problems.append("outputs differ between repetitions of one seed")
    return failed == 0 and not problems, attempted, failed, problems


def _table(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<36} {value:>16.6g} {unit}")


def _self_time_table(tables: dict, n_traced: int, top: int = 25) -> None:
    totals: dict[str, list] = {}
    for table in tables.values():
        for name, row in table.items():
            acc = totals.setdefault(name, [0, 0.0])
            acc[0] += row["calls"]
            acc[1] += row["self_s"]
    ranked = sorted(totals.items(), key=lambda kv: -kv[1][1])[:top]
    print(f"self time per traced repetition (mean of {n_traced}):")
    print(f"  {'span':<36} {'calls':>10} {'self_s':>10} {'us/call':>9}")
    for name, (calls, own) in ranked:
        print(
            f"  {name:<36} {calls / n_traced:>10.0f} {own / n_traced:>10.4f}"
            f" {1e6 * own / calls:>9.2f}"
        )


def main(argv=None) -> int:
    sys.path[:0] = [str(SRC), str(ROOT)]
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}/repro", file=sys.stderr)
        return 2

    from perfbench import metrics
    from perfbench.spans import aggregate
    from perfbench.workloads import make_workload

    workload = make_workload(args.workload)
    warm, plain, traced, rec = measure(
        workload, args.seed, args.seconds, bool(args.trace)
    )
    correct, attempted, failed, problems = verdict([warm] + plain + traced)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(
        f"workload {args.workload}, seed {args.seed}: "
        f"1 warm-up + {len(plain)} untraced + {len(traced)} traced repetitions"
    )
    print("wall s per untraced repetition:", " ".join(f"{r.run_s:.3f}" for r in plain))
    print(f"host speed {plain[0].speed:.4f} (median of the run's probes)")

    e2e = metrics.end_to_end(
        plain, metrics.peak_rss_mb(_WORKERS.get(args.workload, 0))
    )
    _table(
        "end to end (median of untraced repetitions):",
        [(k, v, metrics.END_TO_END[k][0]) for k, v in e2e.items()]
        + [(k, v, metrics.PER_LAYER[k]) for k, v in plain[0].law.items()]
        + [("fail_frac", metrics.fail_frac(plain), "ratio")],
    )
    if args.trace:
        tables = aggregate(rec)
        layers = metrics.per_layer(traced, tables, plain)
        _table(
            "per layer (median of traced repetitions):",
            [(k, v, metrics.PER_LAYER[k]) for k, v in layers.items() if v],
        )
        _self_time_table(tables, len(traced))
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        rec.save(out / f"spans-{args.workload}.npz")
        reported = {k: (v, metrics.PER_LAYER[k]) for k, v in layers.items()}
    else:
        reported = {k: (v, metrics.END_TO_END[k][0]) for k, v in e2e.items()}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    k: {"value": v, "unit": u} for k, (v, u) in reported.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
