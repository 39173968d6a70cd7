"""Vectorised Monte-Carlo simulation of the three strategies.

Each simulator realises the *law* of a strategy (submission, timeout,
cancellation) against latencies distributed as a
:class:`~repro.core.model.LatencyModel` — outliers carry probability ``ρ``
and never start, exactly matching the sub-distribution ``F̃`` the analytic
formulas integrate.  Agreement between these replays and the closed forms
is therefore a strong end-to-end check of both.

For the round-based strategies (multiple submission and its ``b = 1``
case, single resubmission) the mechanics admit an exact closed form, so
no resubmission loop is run at all: rounds are i.i.d. and a round
succeeds with probability ``p = 1 - (1 - F̃(t∞))^b`` (the burst minimum),
hence the number of *failed* rounds is ``Geometric(p) - 1`` and the final
round contributes one draw from the per-round winner's distribution
truncated to ``[0, t∞)``.  Both draws are inverse-transform sampled —
the truncated winner through a dense uniform-knot quantile table (see
:class:`_RoundSampler`) — giving loop-free, allocation-lean simulators
with the same law as the mechanical replay (kept as a reference in the
test suite).  For continuous latency bodies the match is exact up to the
quantile-table interpolation (~10⁻³ s bias); purely atomic laws (step
ECDFs) keep their success/failure counts exact, while table cells that
straddle an atom jump smear ~1/8192 of that cell's mass between the two
adjacent atoms.  The delayed strategy's overlapping copies do not
decouple into i.i.d. rounds, so it keeps the blocked replay.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from repro.core.model import LatencyModel
from repro.core.strategies.delayed import n_parallel_for_latency
from repro.util.rng import RngLike, as_rng
from repro.util.validation import check_positive

__all__ = ["McRun", "simulate_single", "simulate_multiple", "simulate_delayed"]

#: hard cap on resubmission rounds — reached only if the per-attempt
#: success probability is pathologically small for the chosen timeout
_MAX_ROUNDS = 100_000

#: knots of the truncated-winner quantile table; uniform in quantile space
#: so lookup is direct indexing (no search), dense enough that the linear
#: interpolation bias is orders of magnitude below Monte-Carlo error
_QUANTILE_KNOTS = 8193


class _RoundSampler:
    """Closed-form sampler for one task of a round-based strategy.

    Parameters are a latency model, the burst size ``b`` (1 for single
    resubmission) and the per-copy timeout.  Precomputes the geometric
    failure probability and a quantile table of the final-round winner
    ``min(R_1..R_b) | min < t∞``:  inverting
    ``P(min < x | min < t∞) = (1 - (1 - F̃(x))^b) / p`` at uniform knots
    ``q_j`` gives ``x_j = F⁻¹((1 - (1 - q_j·p)^{1/b}) / (1-ρ))``, so a
    uniform draw maps to a winner latency with one gather and one lerp.
    """

    __slots__ = ("b", "t_inf", "p_round", "q_round", "_xs", "_slopes")

    def __init__(self, model: LatencyModel, b: int, t_inf: float) -> None:
        dist = model.distribution
        rho = model.rho
        # P(R < t∞), strictly: a copy whose latency lands exactly on the
        # timeout is cancelled, as in the mechanical replay (`lat < t_inf`).
        # Evaluating the cdf one ulp below t∞ makes this exact for step
        # (empirical, atom-carrying) distributions and is within one ulp
        # of cdf(t∞) for continuous ones.
        cdf_t = float(dist.cdf(np.nextafter(t_inf, -np.inf)))
        p1 = (1.0 - rho) * cdf_t  # F̃(t∞) = per-copy success probability
        self.b = int(b)
        self.t_inf = float(t_inf)
        self.q_round = (1.0 - p1) ** b
        self.p_round = 1.0 - self.q_round
        if self.p_round <= 0.0:
            self._xs = None
            self._slopes = None
            return
        qs = np.linspace(0.0, 1.0, _QUANTILE_KNOTS)
        f_tilde = 1.0 - (1.0 - qs * self.p_round) ** (1.0 / b)
        targets = np.clip(f_tilde / (1.0 - rho), 0.0, cdf_t)
        xs = np.asarray(dist.ppf(targets), dtype=np.float64)
        # guard empirical/composed ppf backends against numerical wiggles:
        # the table must be a monotone map into [0, t∞]
        xs = np.maximum.accumulate(np.clip(xs, 0.0, self.t_inf))
        self._xs = xs
        self._slopes = np.diff(xs)

    def draw(self, n_tasks: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Total latencies and failed-round counts (int64) per task.

        One RNG block and a handful of in-place passes on its two halves —
        at 20k+ tasks every temporary would be an mmap'd allocation, so
        avoiding them is worth ~2× here.
        """
        u = gen.random(2 * n_tasks)
        fails = u[:n_tasks]
        if self.q_round > 0.0:
            # fails = floor(log(1 - u) / log(q)) ~ Geometric(p) - 1
            np.negative(fails, out=fails)
            np.log1p(fails, out=fails)
            fails /= math.log(self.q_round)
            np.floor(fails, out=fails)
            if fails.max() >= _MAX_ROUNDS:
                raise RuntimeError(
                    f"round-based replay did not converge in {_MAX_ROUNDS} "
                    f"rounds (t_inf={self.t_inf} too small for this model?)"
                )
        else:
            fails.fill(0.0)
        n_fail = fails.astype(np.int64)
        pos = u[n_tasks:]
        pos *= _QUANTILE_KNOTS - 1
        idx = pos.astype(np.intp)
        np.subtract(pos, idx, out=pos)  # pos now holds the lerp fraction
        winner = np.take(self._xs, idx)
        step = np.take(self._slopes, idx)
        step *= pos
        winner += step
        fails *= self.t_inf
        fails += winner
        return fails, n_fail


#: per-model cache of round samplers, keyed by (b, t_inf); the weak keys
#: let models (and their tables) be collected with the owning context
_SAMPLER_CACHE: "weakref.WeakKeyDictionary[LatencyModel, dict]" = (
    weakref.WeakKeyDictionary()
)


def _round_sampler(model: LatencyModel, b: int, t_inf: float) -> _RoundSampler:
    per_model = _SAMPLER_CACHE.setdefault(model, {})
    key = (int(b), float(t_inf))
    sampler = per_model.get(key)
    if sampler is None:
        sampler = per_model[key] = _RoundSampler(model, b, t_inf)
    return sampler


@dataclass(frozen=True)
class McRun:
    """Outcome of one Monte-Carlo strategy replay.

    Attributes
    ----------
    j:
        Total latency of each simulated task (s), shape ``(n_tasks,)``.
    jobs_submitted:
        Number of grid jobs submitted per task (every burst copy and
        every resubmission counts one job).
    n_parallel:
        Per-task time-averaged number of copies in flight (``N_//``).
    """

    j: np.ndarray
    jobs_submitted: np.ndarray
    n_parallel: np.ndarray

    @property
    def mean_j(self) -> float:
        """Sample mean of the total latency."""
        return float(self.j.mean())

    @property
    def std_j(self) -> float:
        """Sample standard deviation of the total latency."""
        return float(self.j.std())

    @property
    def mean_parallel(self) -> float:
        """Sample mean of ``N_//``."""
        return float(self.n_parallel.mean())


def _simulate_rounds(
    model: LatencyModel,
    b: int,
    t_inf: float,
    n_tasks: int,
    rng: RngLike,
) -> McRun:
    """Replay rounds of ``b`` copies, each round cancelled at ``t∞``.

    Loop-free: a round fails with probability ``(1 - F̃(t∞))^b``, so the
    failed-round count is geometric and the final round contributes one
    draw of the truncated minimum (see :class:`_RoundSampler`).
    """
    check_positive("t_inf", t_inf)
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    if n_tasks < 1:
        raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
    gen = as_rng(rng)
    sampler = _round_sampler(model, b, t_inf)
    if sampler.p_round <= 0.0:
        raise RuntimeError(
            f"round-based replay (b={b}) did not converge in {_MAX_ROUNDS} "
            f"rounds (t_inf={t_inf} too small for this model?)"
        )
    j, jobs = sampler.draw(n_tasks, gen)
    jobs += 1
    jobs *= b
    # the paper counts N_// = b for burst submission (1 for single)
    return McRun(
        j=j, jobs_submitted=jobs, n_parallel=np.full(n_tasks, float(b))
    )


def simulate_single(
    model: LatencyModel,
    t_inf: float,
    n_tasks: int,
    rng: RngLike = None,
) -> McRun:
    """Replay single resubmission, the ``b = 1`` burst, for ``n_tasks`` tasks."""
    return _simulate_rounds(model, 1, t_inf, n_tasks, rng)


def simulate_multiple(
    model: LatencyModel,
    b: int,
    t_inf: float,
    n_tasks: int,
    rng: RngLike = None,
) -> McRun:
    """Replay the burst strategy: ``b`` copies, cancel on first start."""
    return _simulate_rounds(model, b, t_inf, n_tasks, rng)


def simulate_delayed(
    model: LatencyModel,
    t0: float,
    t_inf: float,
    n_tasks: int,
    rng: RngLike = None,
    *,
    block: int = 32,
) -> McRun:
    """Replay the delayed strategy: copy *k* submitted at ``(k-1)·t0``.

    Copy *k* starts at ``(k-1)·t0 + R_k`` if ``R_k < t∞`` (it is cancelled
    at age ``t∞`` otherwise); the task completes at the earliest start.
    Copies are drawn in blocks and a task stops drawing once no future
    copy can beat its current best start time.
    """
    check_positive("t0", t0)
    if not t0 <= t_inf <= 2.0 * t0:
        raise ValueError(f"need t0 <= t_inf <= 2·t0, got t0={t0}, t_inf={t_inf}")
    if n_tasks < 1:
        raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
    gen = as_rng(rng)
    j_best = np.full(n_tasks, np.inf)
    k = 0  # index of the first copy in the next block
    for _ in range(_MAX_ROUNDS):
        active = np.nonzero(j_best > k * t0)[0]
        if active.size == 0:
            break
        lat = model.sample_latencies(active.size * block, gen)
        lat = lat.reshape(active.size, block)
        offsets = (np.arange(k, k + block) * t0)[None, :]
        starts = np.where(lat < t_inf, offsets + lat, np.inf)
        j_best[active] = np.minimum(j_best[active], starts.min(axis=1))
        k += block
    else:
        raise RuntimeError(
            f"delayed replay did not converge in {_MAX_ROUNDS} blocks "
            f"(t_inf={t_inf} too small for this model?)"
        )
    # a copy is submitted at (m-1)·t0 for every m with (m-1)·t0 < J
    jobs = np.floor(j_best / t0 + 1e-12).astype(np.int64) + 1
    n_par = np.asarray(n_parallel_for_latency(j_best, t0, t_inf))
    return McRun(j=j_best, jobs_submitted=jobs, n_parallel=n_par)
