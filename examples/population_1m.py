"""The population-1m milestone: a million-task day in one process.

Run with::

    python examples/population_1m.py                # 100k quick pass
    python examples/population_1m.py --scale 1000000

Drives the canonical fleet-scale workload (fair-share sites, four
fleets of paper-strategy users over a diurnal day — the same presets
the benchmarks track) through the struct-of-arrays population pool.
The grid scales with the population (``fleet_sites_for``: 16 sites for
the 10⁵ day, 160 for the 10⁶ one) so the per-site regime stays constant
instead of saturating.

Two properties worth seeing live:

* throughput: one core sustains tens of thousands of simulated tasks
  per wall-second, so the 10⁶-task day completes in minutes;
* determinism: a fixed seed reproduces the exact same outcome tables,
  run after run;
* memory: the ``wall`` line prints the peak RSS and, for a day of 10⁵
  tasks or more, its ``bytes/task``: the peak RSS above the warmed
  grid's, divided by the tasks (~105 at 10⁶).
"""

import argparse
import time

from repro.gridsim import warmed_snapshot
from repro.population import run_population
from repro.population.presets import (
    fleet_grid_config,
    fleet_population_spec,
    fleet_sites_for,
)
from repro.util.memory import memory_summary, rss_bytes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument(
        "--sites", type=int, default=None, help="override the scaled site count"
    )
    args = parser.parse_args()

    config = fleet_grid_config(args.sites or fleet_sites_for(args.scale))
    spec = fleet_population_spec(args.scale)
    print(
        f"{spec.total_tasks} tasks, {len(config.sites)} sites / "
        f"{sum(s.n_cores for s in config.sites)} cores"
    )

    t0 = time.perf_counter()
    grid = warmed_snapshot(config, seed=args.seed, duration=6 * 3600.0).restore()
    rss_before = rss_bytes()
    result = run_population(grid, spec, seed=args.seed)
    wall = time.perf_counter() - t0
    memory = memory_summary(rss_before, spec.total_tasks)

    for f in result.fleets:
        print(
            f"  {f.spec.label:<28} n={f.spec.n_tasks:>7}  "
            f"meanJ={f.mean_j:8.1f}s  jobs/task={f.mean_jobs:.2f}  "
            f"gave_up={f.gave_up}"
        )
    print(
        f"finished {result.total_finished}/{spec.total_tasks} in "
        f"{wall:.1f}s wall ({spec.total_tasks / wall:,.0f} tasks/s, "
        f"{memory}), "
        f"virtual span {result.duration / 3600.0:.1f}h"
    )


if __name__ == "__main__":
    main()
