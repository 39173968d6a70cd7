"""Parallel experiment runner.

``iter_many`` renders a batch of experiments, optionally fanning out over
a :class:`~concurrent.futures.ProcessPoolExecutor`.  Each worker process
renders whole experiments with its own process-wide context cache
(:func:`~repro.experiments.context.get_context` is ``lru_cache``-d per
process), so parallel output is **byte-identical** to the sequential
path: every experiment is deterministic given ``(seed, dt)``, and
context/model caches only affect speed, never values.

The CLI's ``repro run all --jobs N`` goes through here.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Iterator, Sequence

from repro.experiments.context import get_context
from repro.experiments.registry import CONTEXT_FREE, EXPERIMENTS, run_experiment

__all__ = ["iter_many", "render_experiment"]


def render_experiment(experiment_id: str, *, seed: int = 2009, dt: float = 1.0) -> str:
    """Run one experiment and return its rendered report text.

    Context-free experiments (those building their own DES grids) are
    run without a :class:`ReproContext`; everything else gets the
    process-cached context for ``(seed, dt)``.
    """
    if experiment_id in CONTEXT_FREE:
        result = run_experiment(experiment_id)
    else:
        result = run_experiment(
            experiment_id, ctx=get_context(seed=seed, dt=dt)
        )
    return result.render()


def _render_task(args: tuple[str, int, float]) -> str:
    experiment_id, seed, dt = args
    return render_experiment(experiment_id, seed=seed, dt=dt)


def iter_many(
    experiment_ids: Sequence[str] | Iterable[str],
    *,
    seed: int = 2009,
    dt: float = 1.0,
    jobs: int = 1,
) -> Iterator[tuple[str, str]]:
    """Yield ``(id, report text)`` in request order as results are ready.

    With ``jobs <= 1`` everything runs in-process (sharing one context).
    With ``jobs > 1`` experiments are distributed over a process pool;
    output is byte-identical to a sequential run because workers share
    nothing but the deterministic inputs.  Yielding incrementally lets
    callers (the CLI) persist each finished experiment before the next
    completes, so a failure or interrupt mid-batch keeps prior results.
    """
    ids = list(experiment_ids)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise ValueError(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"available: {', '.join(EXPERIMENTS)}"
        )
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(ids) <= 1:
        for i in ids:
            yield i, render_experiment(i, seed=seed, dt=dt)
        return
    tasks = [(i, seed, dt) for i in ids]
    with ProcessPoolExecutor(max_workers=min(jobs, len(ids))) as pool:
        # pool.map yields in submission order as results arrive
        yield from zip(ids, pool.map(_render_task, tasks))

