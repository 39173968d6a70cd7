"""Record the outputs the population workloads are checked against.

Usage (from the repository root)::

    python3 perfbench/expected.py --seeds 0-99,2009
    python3 perfbench/expected.py --workloads pop-chaos-traced --seeds 5

Runs one repetition of each population workload per seed, at its
benchmark size, and writes its digest and law metrics (``task_j_p50_s``,
``task_j_p99_s``, ``jobs_per_task``) into ``perfbench/expected.json``,
keeping the entries of other seeds and workloads.  ``run.py`` then fails
any run at a recorded seed whose outputs differ.  A repetition that
fails another check is not recorded, and the script exits with status 1.

Re-record only for a change that is meant to move the simulated law, and
say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the workloads with committed outputs
POPULATION = ("pop-calm", "pop-chaos-traced", "pop-sharded")


def parse_seeds(text: str) -> list[int]:
    """``"0-3,9"`` -> ``[0, 1, 2, 3, 9]``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import EXPECTED, WORKLOADS, make_workload

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(POPULATION))
    p.add_argument("--seeds", default="2009")
    args = p.parse_args(argv)

    table = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    ok = True
    for name in args.workloads.split(","):
        if name not in POPULATION:
            p.error(f"{name!r} has no committed outputs; choose from {POPULATION}")
        workload = make_workload(name)
        # record afresh: a stale entry must not fail the new run
        workload.committed = {}
        entry = table.setdefault(name, {"tasks": WORKLOADS[name], "seeds": {}})
        if entry["tasks"] != WORKLOADS[name]:
            entry.update(tasks=WORKLOADS[name], seeds={})
        for seed in parse_seeds(args.seeds):
            rep = workload.repetition(seed)
            if rep.failed:
                ok = False
                print(f"{name} seed {seed}: not recorded: {rep.problems}", flush=True)
                continue
            entry["seeds"][str(seed)] = {"digest": rep.digest, **rep.law}
            print(f"{name} seed {seed}: {rep.law}", flush=True)
        entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
        EXPECTED.write_text(json.dumps(table, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
