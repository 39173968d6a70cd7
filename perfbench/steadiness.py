"""Run-to-run spread of the end-to-end metrics, and agreement of two sets.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --seeds 10 --sets 2 --out perfbench/steadiness-1.json
    python3 perfbench/steadiness.py --workloads pop-calm --seeds 5 --sets 1

Runs ``perfbench/run.py --trace 0`` once per (set, workload, seed), one
run at a time, with ``run_seconds`` and the bounds from
``BENCHMARK.json``; every set runs the same seeds.  For each set and
end-to-end metric it prints the median of the runs and the spread, the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
two or more sets it also prints how much worse each later set's median
is than the first's, as a share of the first.  Both sit next to the
metric's bound.  ``--out FILE`` also writes the tables and every run's
values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values) -> float:
    """Interquartile distance over the median (0 for fewer than 2 values)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def worse(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in bench["workloads"]),
    )
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    sets: list[dict] = []
    ok = True
    for k in range(args.sets):
        report = {}
        for workload in workloads:
            runs = []
            for seed in seeds:
                result = run_once(workload, seed, bench["run_seconds"])
                ok &= result["correct"]
                runs.append(
                    {name: v["value"] for name, v in result["metrics"].items()}
                    | {"seed": seed, "correct": result["correct"]}
                )
                print(f"set {k + 1}", workload, runs[-1], flush=True)
            rows = {}
            for name, m in metrics.items():
                values = [r[name] for r in runs]
                rows[name] = {
                    "median": statistics.median(values),
                    "spread": spread(values),
                    "bound": m["bound"],
                }
                if sets:
                    first = sets[0][workload]["metrics"][name]["median"]
                    rows[name]["worse_than_set_1"] = worse(
                        first, rows[name]["median"], m["better"]
                    )
            report[workload] = {"metrics": rows, "runs": runs}
        sets.append(report)

    for k, report in enumerate(sets):
        for workload, entry in report.items():
            print(f"set {k + 1}, {workload}: {len(entry['runs'])} runs")
            for name, row in entry["metrics"].items():
                flag = "ok" if row["spread"] < row["bound"] / 3 else "WIDE"
                line = (
                    f"  {name:<14} median {row['median']:>12.6g}"
                    f"  spread {row['spread']:.4f}  bound {row['bound']}  {flag}"
                )
                if "worse_than_set_1" in row:
                    drift = row["worse_than_set_1"]
                    line += f"  worse than set 1 {drift:+.4f}"
                    line += "" if drift <= row["bound"] else " OVER"
                print(line)
    if args.out:
        out = {"seeds": list(seeds), "sets": sets}
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
