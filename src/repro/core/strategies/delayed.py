"""Delayed resubmission strategy (paper §6, Eq. 5 and §6.1).

A single job is submitted at ``t = 0``.  Every ``t0`` seconds a fresh copy
is submitted (job *k* at ``(k-1)·t0``) and every copy is cancelled when it
reaches age ``t∞``, so with ``t0 <= t∞ <= 2·t0`` at most two copies are in
flight.  The process stops when any copy starts running.

Writing ``q = 1 - F̃(t∞)`` and observing that copies are independent, the
survival function of the total latency ``J`` is piecewise explicit:

* ``t ∈ [0, t0)``:  ``P(J>t) = 1 - F̃(t)``
* ``t ∈ I0(n) = [n·t0, (n-1)·t0 + t∞)``:
  ``P(J>t) = q^(n-1) · (1-F̃(t-(n-1)t0)) · (1-F̃(t-n·t0))``  (two copies live)
* ``t ∈ I1(n) = [(n-1)·t0 + t∞, (n+1)·t0)``:
  ``P(J>t) = q^n · (1-F̃(t-n·t0))``  (one copy live)

Integrating ``E_J = ∫ P(J>t) dt`` and summing the geometric series gives
the compact closed form used here::

    E_J(t0, t∞) = ∫₀^{t0} S(u)du
                + (1/p)·∫_{t0}^{t∞} S(v)·S(v-t0) dv
                + (q/p)·∫_{t∞-t0}^{t0} S(u) du

with ``S = 1-F̃``, ``p = F̃(t∞)``.  This is algebraically what Eq. (5)
*should* evaluate to; the printed Eq. (5) contains a union-bound slip
(see DESIGN.md errata) reproduced literally in
:mod:`repro.core.paper_equations` for comparison.  ``E[J²]`` (not given in
the paper) follows the same route via ``∫ 2t·P(J>t) dt``.

§6.1's number of parallel jobs ``N_//(l)`` is implemented exactly as the
paper's piecewise formula, plus the exact expectation ``E[N_//(J)]`` as an
extension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import GriddedLatencyModel
from repro.core.strategies.base import Strategy, StrategyMoments
from repro.util.grids import cumulative_trapezoid
from repro.util.validation import check_positive

__all__ = [
    "DelayedResubmission",
    "delayed_band_blocks",
    "delayed_cost_bands",
    "delayed_expectation_for_t0",
    "delayed_expectation_bands",
    "delayed_expectation_surface",
    "delayed_moments",
    "delayed_survival",
    "n_parallel_for_latency",
    "mean_parallel_exact",
]

#: float64 cells per row block (rows × (kmax+1)) of the surface kernel and
#: of every sweep that consumes it — bounds each 2-D temporary to ~2 MB
#: whatever the grid resolution or ``t0`` window
_BLOCK_FLOATS = 1 << 18

#: row cap of the blocks a pruned stream (``cutoff`` given to
#: :func:`delayed_band_blocks`) evaluates: rows are dropped only between
#: blocks, so a small block ends the sweep close to the first row whose
#: lower bound reaches the incumbent
_PRUNED_BLOCK_ROWS = 16

#: total float64 budget of the per-model surface-row cache (~64 MB);
#: oldest rows are evicted first once it is exceeded
_DELAYED_CACHE_BUDGET = 8_000_000


def _validate_indices(model: GriddedLatencyModel, k0: int) -> None:
    n = model.grid.n
    if not 1 <= k0 < n:
        raise ValueError(f"t0 index {k0} outside grid (1..{n - 1})")


def delayed_expectation_for_t0(
    model: GriddedLatencyModel, k0: int
) -> np.ndarray:
    """``E_J`` for fixed ``t0`` (grid index ``k0``) at every valid ``t∞``.

    Returns a full-grid array; entries outside the feasible window
    ``t0 <= t∞ <= min(2·t0, t_max)`` or with ``F̃(t∞) = 0`` are ``+inf``.
    The computation is one shifted product and one cumulative sum — O(n)
    for the whole ``t∞`` sweep.

    This is the unbatched reference kernel (and the property-test oracle);
    sweeps over many ``t0`` values should go through
    :func:`delayed_expectation_surface`, which evaluates blocks of rows in
    shared 2-D passes and caches them on the model.
    """
    _validate_indices(model, k0)
    n = model.grid.n
    S = model.S
    out = np.full(n, np.inf)

    hi = min(2 * k0, n - 1)
    ks = np.arange(k0, hi + 1)

    # G0(v) = S(v)·S(v - t0) on v >= t0 ; ∫_{t0}^{t_k} G0 = c[k] - c[k0]
    g0 = np.zeros(n)
    g0[k0:] = S[k0:] * S[: n - k0]
    c = model.grid.cumint(g0)

    a = model.A
    term0 = a[k0]
    d = a[k0] - a[ks - k0]  # ∫_{t∞-t0}^{t0} S(u) du
    p = model.F[ks]
    q = S[ks]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = term0 + ((c[ks] - c[k0]) + q * d) / p
    vals = np.where(p > 0.0, vals, np.inf)
    out[ks] = vals
    return out


def _compute_band_block(
    model: GriddedLatencyModel, k0v: np.ndarray
) -> list[np.ndarray]:
    """Feasible-band ``E_J`` rows for a block of ``t0`` indices, batched.

    This is the vectorised core of :func:`delayed_expectation_surface`: it
    evaluates, in a few 2-D passes shared by the whole block, exactly what
    :func:`delayed_expectation_for_t0` computes one row at a time — the
    shifted survival product ``G0(v) = S(v)·S(v-t0)``, its cumulative
    trapezoid integral, and the closed-form combination with the cached
    ``A``/``F``/``S`` tabulations.  Each arithmetic step mirrors the 1-D
    kernel operation for operation, so rows agree bit-for-bit with the
    per-``t0`` reference.

    Returns one band array per ``k0``, aligned with the feasible ``t∞``
    indices ``k0 .. min(2·k0, n-1)`` (``+inf`` where ``F̃(t∞) = 0``).
    """
    n = model.grid.n
    S = model.S
    F = model.F
    a = model.A
    dt = model.grid.dt

    k0v = np.asarray(k0v, dtype=np.intp)
    hiv = np.minimum(2 * k0v, n - 1)
    # columns 0..kmax cover every feasible t∞ of the block; the cumulative
    # integral over this prefix is bitwise the prefix of the full-grid one
    kmax = int(hiv.max())

    # G0[i, k] = S[k]·S[k - k0_i] on k >= k0_i, zero-padded below — the same
    # layout the 1-D kernel uses, filled per row over just the band each row
    # reads (entries past min(2·k0, kmax) never enter a c value we use)
    g0 = np.zeros((len(k0v), kmax + 1))
    for i in range(len(k0v)):
        k0 = int(k0v[i])
        hi = int(hiv[i])
        g0[i, k0 : hi + 1] = S[k0 : hi + 1] * S[: hi - k0 + 1]
    c = cumulative_trapezoid(g0, dt)

    # rectangular band: column j is the t∞ offset k - k0 in 0..max width
    j_off = np.arange(int((hiv - k0v).max()) + 1)
    kk = k0v[:, None] + j_off[None, :]
    valid = kk <= hiv[:, None]
    kkc = np.minimum(kk, kmax)  # safe gather index; junk columns masked below

    term0 = a[k0v][:, None]
    d = term0 - a[j_off][None, :]  # ∫_{t∞-t0}^{t0} S(u) du,  t∞-t0 = j·dt
    c_win = np.take_along_axis(c, kkc, axis=1) - np.take_along_axis(
        c, k0v[:, None], axis=1
    )
    p = F[kkc]
    q = S[kkc]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = term0 + (c_win + q * d) / p
    vals = np.where(valid & (p > 0.0), vals, np.inf)
    return [vals[i, : hiv[i] - k0v[i] + 1] for i in range(len(k0v))]


def _row_blocks(
    model: GriddedLatencyModel, k0s, max_rows: int | None = None
) -> list[np.ndarray]:
    """Consecutive slices of ``k0s`` within the :data:`_BLOCK_FLOATS` budget.

    Slices share one row count (the last may be shorter), sized so that
    rows × ``(kmax+1)`` of the widest requested row fits the budget (at
    least one row), and at most ``max_rows`` when given.  Ascending input
    gives ascending blocks, which the streamed optimisers rely on for
    their first-occurrence tie rule.
    """
    k0v = np.asarray(k0s, dtype=np.intp).ravel()
    if k0v.size == 0:
        return []
    kmax = min(2 * int(k0v.max()), model.grid.n - 1)
    rows = max(1, _BLOCK_FLOATS // (kmax + 1))
    if max_rows is not None:
        rows = min(rows, max_rows)
    return [k0v[start : start + rows] for start in range(0, k0v.size, rows)]


def _band_rows(
    model: GriddedLatencyModel, k0s: np.ndarray
) -> list[np.ndarray]:
    """Cached feasible-band rows for each requested ``t0`` index.

    Missing rows are computed in :func:`_row_blocks` (ascending, so
    low-``t0`` blocks stay narrow) and stored on the model; the cache is
    trimmed oldest-first past :data:`_DELAYED_CACHE_BUDGET` floats.
    """
    cache = model._delayed_band_cache
    requested = {int(k0) for k0 in k0s}
    missing = sorted(k0 for k0 in requested if k0 not in cache)
    for block in _row_blocks(model, missing):
        for k0, row in zip(block, _compute_band_block(model, block)):
            cache[int(k0)] = row
            model._delayed_band_cache_floats += row.size
    if model._delayed_band_cache_floats > _DELAYED_CACHE_BUDGET:
        # trim oldest-first (dicts iterate in insertion order), sparing the
        # rows this very call is about to hand back
        for key in list(cache):
            if model._delayed_band_cache_floats <= _DELAYED_CACHE_BUDGET:
                break
            if key in requested:
                continue
            model._delayed_band_cache_floats -= cache.pop(key).size
    return [cache[int(k0)] for k0 in k0s]


def delayed_expectation_bands(
    model: GriddedLatencyModel, k0s
) -> tuple[np.ndarray, np.ndarray]:
    """Feasible-band ``E_J`` rows as one inf-padded rectangle.

    Row ``i`` holds ``E_J(k0_i, k0_i + j)`` in column ``j``; columns past
    the row's feasible width ``min(2·k0, n-1) - k0`` are ``+inf``.  Returns
    the rectangle and the per-row band sizes.  This is the compact form the
    optimisers and cost-frontier sweeps consume — same cached rows as
    :func:`delayed_expectation_surface`, without materialising full-grid
    rows.
    """
    k0v = np.asarray(k0s, dtype=np.intp).ravel()
    for k0 in k0v:
        _validate_indices(model, int(k0))
    rows = _band_rows(model, k0v)
    widths = np.array([row.size for row in rows], dtype=np.intp)
    rect = np.full((len(rows), int(widths.max())), np.inf)
    for i, row in enumerate(rows):
        rect[i, : row.size] = row
    return rect, widths


def delayed_cost_bands(
    model: GriddedLatencyModel, k0s, e_j_single: float
) -> tuple[np.ndarray, np.ndarray]:
    """``Δcost`` and plug-in ``N_//`` over the feasible bands (Eq. 6).

    Aligned with :func:`delayed_expectation_bands`: row ``i``, column ``j``
    is the configuration ``(t0_i, t0_i + j·dt)``; infeasible cells are
    ``+inf`` in the cost rectangle (and carry no meaning in ``N_//``).
    Shared by the cost optimiser and the Fig. 8 cost frontier so the
    masking/clipping invariants live in one place.
    """
    check_positive("e_j_single", e_j_single)
    k0v = np.asarray(k0s, dtype=np.intp).ravel()
    rect, _ = delayed_expectation_bands(model, k0v)
    finite = np.isfinite(rect)
    if not finite.any():
        return np.full(rect.shape, np.inf), np.ones(rect.shape)
    t0g = model.times[k0v][:, None]
    j_off = np.arange(rect.shape[1])
    ti = model.times[np.minimum(k0v[:, None] + j_off[None, :], model.grid.n - 1)]
    # clip junk columns into the kernel's domain; they stay masked out
    ti = np.clip(ti, t0g, 2.0 * t0g)
    n_par = _n_parallel_kernel(np.where(finite, rect, 0.0), t0g, ti)
    costs = np.where(finite, n_par * rect / e_j_single, np.inf)
    return costs, n_par


def _band_floor(
    model: GriddedLatencyModel, k0s, e_j_single: float | None = None
) -> np.ndarray:
    """Per-row lower bound of :func:`delayed_band_blocks`' rectangles.

    Every ``E_J`` cell of row ``t0`` is ``A(t0) + (c_win + q·d)/p`` with
    ``A(t0) = ∫₀^t0 S``: ``S = 1-F̃`` lies in ``[0, 1]`` (``F̃`` is clipped
    and monotone), ``c_win`` is a window of a cumulative sum of
    non-negative steps, ``d = A(t0) - A(t∞-t0) >= 0`` because ``A`` never
    decreases, and ``p > 0`` on every finite cell (the others are
    ``+inf``).  So every cell is at least ``A(t0)`` in floating point.  A
    ``Δcost`` cell is ``N_//·E_J/e_j_single`` with ``N_// >= 1`` up to the
    ``1e-12`` floor fudge of :func:`_n_parallel_kernel`, which the
    ``1 - 1e-9`` factor absorbs.  The bound never decreases with ``t0``.
    """
    a = model.A[np.asarray(k0s, dtype=np.intp)]
    if e_j_single is None:
        return a
    return (1.0 - 1e-9) * a / e_j_single


def delayed_band_blocks(
    model: GriddedLatencyModel, k0s, e_j_single=None, cutoff=None
):
    """Stream the feasible bands of many ``t0`` candidates in row blocks.

    Yields ``(block, bands)`` for consecutive :func:`_row_blocks` slices
    of ``k0s``: ``bands`` is :func:`delayed_expectation_bands` of the block,
    or :func:`delayed_cost_bands` when ``e_j_single`` is given.  Every
    sweep over many candidates (the optimisers, the Fig. 8 frontier) walks
    the surface through here, so none holds more than one block's
    rectangle; ascending ``k0s`` give ascending blocks.

    ``cutoff``, when given, is a zero-argument function returning the
    consumer's incumbent (its best value so far), and the stream becomes a
    branch-and-bound sweep over ascending ``k0s``: blocks are at most
    :data:`_PRUNED_BLOCK_ROWS` rows, each drops, before it is evaluated,
    the rows whose :func:`_band_floor` is at or above the incumbent,
    and the stream ends at the first block left empty.  A dropped row has
    no cell strictly below the incumbent, and as the floor never decreases
    neither has any later row.
    """
    max_rows = None if cutoff is None else _PRUNED_BLOCK_ROWS
    for block in _row_blocks(model, k0s, max_rows):
        if cutoff is not None:
            block = block[_band_floor(model, block, e_j_single) < cutoff()]
            if block.size == 0:
                return
        if e_j_single is None:
            yield block, delayed_expectation_bands(model, block)
        else:
            yield block, delayed_cost_bands(model, block, e_j_single)


def delayed_expectation_surface(
    model: GriddedLatencyModel, k0s
) -> np.ndarray:
    """``E_J`` rows of the delayed surface for a block of ``t0`` indices.

    Row ``i`` equals ``delayed_expectation_for_t0(model, k0s[i])`` — a
    full-grid array whose entries outside the feasible window
    ``t0 <= t∞ <= min(2·t0, t_max)`` are ``+inf`` — but the whole block is
    evaluated in a few shared 2-D vectorised passes and the per-``t0`` rows
    are cached on ``model``, so optimisers and experiments sweeping many
    ``t0`` candidates pay the tabulation once.
    """
    k0v = np.asarray(k0s, dtype=np.intp).ravel()
    for k0 in k0v:
        _validate_indices(model, int(k0))
    n = model.grid.n
    rows = _band_rows(model, k0v)
    out = np.full((len(k0v), n), np.inf)
    for i, (k0, row) in enumerate(zip(k0v, rows)):
        out[i, k0 : k0 + row.size] = row
    return out


def delayed_moments(
    model: GriddedLatencyModel, t0: float, t_inf: float
) -> StrategyMoments:
    """``E_J`` and ``σ_J`` of the delayed strategy at ``(t0, t∞)``.

    ``σ_J`` is an extension over the paper (which reports it only for the
    single/multiple strategies); it follows from ``E[J²] = ∫ 2t·P(J>t) dt``
    with the same geometric-series summation as ``E_J``.
    """
    k0 = model.index_of(t0)
    k = model.index_of(t_inf)
    _validate_indices(model, k0)
    if not k0 <= k <= min(2 * k0, model.grid.n - 1):
        raise ValueError(
            f"need t0 <= t_inf <= 2·t0 on the grid, got t0={t0}, t_inf={t_inf}"
        )
    S = model.S
    n = model.grid.n
    p = float(model.F[k])
    if p <= 0.0:
        return StrategyMoments(expectation=float("inf"), std=float("inf"))
    q = 1.0 - p

    g0 = np.zeros(n)
    g0[k0:] = S[k0:] * S[: n - k0]
    c = model.grid.cumint(g0)
    cv = model.grid.cumint(model.times * g0)
    a = model.A
    a1 = model.A1
    t0g = model.times[k0]

    c_win = c[k] - c[k0]  # ∫_{t0}^{t∞} G0
    cv_win = cv[k] - cv[k0]  # ∫_{t0}^{t∞} v·G0
    e_j = a[k0] + (c_win + q * (a[k0] - a[k - k0])) / p
    e_j2 = (
        2.0 * a1[k0]
        + (2.0 / p) * cv_win
        + (2.0 * t0g * q / p**2) * c_win
        + (2.0 * q / p) * (a1[k0] - a1[k - k0])
        + (2.0 * t0g * q / p**2) * (a[k0] - a[k - k0])
    )
    var = max(0.0, e_j2 - e_j**2)
    return StrategyMoments(expectation=float(e_j), std=float(np.sqrt(var)))


def delayed_survival(
    model: GriddedLatencyModel, t0: float, t_inf: float
) -> np.ndarray:
    """``P(J > t_k)`` tabulated on the model grid (piecewise product form)."""
    k0 = model.index_of(t0)
    ki = model.index_of(t_inf)
    _validate_indices(model, k0)
    if not k0 <= ki <= min(2 * k0, model.grid.n - 1):
        raise ValueError(
            f"need t0 <= t_inf <= 2·t0 on the grid, got t0={t0}, t_inf={t_inf}"
        )
    n = model.grid.n
    S = model.S
    q = float(S[ki])
    out = np.zeros(n)
    out[:k0] = S[:k0]
    qn = 1.0  # q^(n-1)
    m = 1
    while m * k0 < n:
        # I0(m): two copies live
        lo = m * k0
        hi = min((m - 1) * k0 + ki, n - 1)
        if hi > lo:
            idx = np.arange(lo, hi)
            out[idx] = qn * S[idx - (m - 1) * k0] * S[idx - m * k0]
        # I1(m): one copy live
        lo1 = (m - 1) * k0 + ki
        hi1 = min((m + 1) * k0, n - 1)
        if hi1 > lo1 and lo1 < n:
            idx = np.arange(lo1, min(hi1, n))
            out[idx] = qn * q * S[idx - m * k0]
        qn *= q
        m += 1
        if qn < 1e-300:
            break
    # the final grid point: evaluate with whichever window contains it
    t_end = n - 1
    m_end = t_end // k0 if k0 else 0
    if m_end >= 1:
        qn_end = q ** (m_end - 1)
        if t_end < (m_end - 1) * k0 + ki:
            out[t_end] = qn_end * S[t_end - (m_end - 1) * k0] * S[t_end - m_end * k0]
        else:
            out[t_end] = qn_end * q * S[t_end - m_end * k0]
    return out


def _n_parallel_kernel(
    l: np.ndarray, t0: np.ndarray | float, t_inf: np.ndarray
) -> np.ndarray:
    """Broadcasting core of §6.1's piecewise ``N_//(l)`` (no validation).

    ``l``, ``t0`` and ``t_inf`` all broadcast against each other; the cost
    optimiser evaluates whole ``(t0, t∞)`` rectangles through this in one
    pass.
    """
    l, t0, t_inf = np.broadcast_arrays(
        np.asarray(l, dtype=np.float64),
        np.asarray(t0, dtype=np.float64),
        np.asarray(t_inf, dtype=np.float64),
    )
    out = np.ones(l.shape)
    n = np.floor(l / t0 + 1e-12)
    active = n >= 1.0
    if active.any():
        la = l[active]
        na = n[active]
        ta = t0[active]
        ti = t_inf[active]
        in_i0 = la < (na - 1.0) * ta + ti
        job_time_i0 = ta + (na - 1.0) * ti + 2.0 * (la - na * ta)
        job_time_i1 = (
            ta + (na - 1.0) * ti + 2.0 * (ti - ta) + (la - (na - 1.0) * ta - ti)
        )
        job_time = np.where(in_i0, job_time_i0, job_time_i1)
        out[active] = job_time / la
    return out


def n_parallel_for_latency(
    l: np.ndarray | float, t0: float, t_inf: np.ndarray | float
) -> np.ndarray | float:
    """§6.1: time-averaged number of parallel jobs for total latency ``l``.

    For a run whose first start occurs at ``l``, the submission schedule is
    deterministic, so the time-average of the number of in-flight copies
    over ``[0, l]`` is the piecewise expression of §6.1 (one general form
    for ``n >= 1``; the paper's ``n = 1`` cases are its specialisations).
    The paper evaluates this at ``l = E_J`` (verified against every entry
    of Tables 3–4).

    ``l`` and ``t_inf`` broadcast against each other; ``t0`` is scalar.
    """
    check_positive("t0", t0)
    t_inf_arr = np.asarray(t_inf, dtype=np.float64)
    if ((t_inf_arr < t0 - 1e-9) | (t_inf_arr > 2.0 * t0 + 1e-9)).any():
        raise ValueError(
            f"need t0 <= t_inf <= 2·t0, got t0={t0}, t_inf={t_inf}"
        )
    arr = np.asarray(l, dtype=np.float64)
    if (arr < 0).any():
        raise ValueError("latency must be non-negative")
    out = _n_parallel_kernel(arr, float(t0), t_inf_arr)
    if np.ndim(l) == 0 and np.ndim(t_inf) == 0:
        return float(out.reshape(-1)[0])
    return out


def mean_parallel_exact(
    model: GriddedLatencyModel,
    t0: float,
    t_inf: float,
    *,
    tail_tol: float = 1e-6,
) -> float:
    """Exact ``E[N_//(J)]`` by integrating §6.1 against the law of ``J``.

    Extension over the paper's plug-in estimate ``N_//(E_J)``.  Raises if
    the survival mass left beyond the grid exceeds ``tail_tol`` (the grid
    must be long enough for the chosen timeouts).
    """
    s_j = delayed_survival(model, t0, t_inf)
    if s_j[-1] > tail_tol:
        raise ValueError(
            f"P(J > t_max) = {s_j[-1]:.3g} > {tail_tol}: grid too short for "
            f"t0={t0}, t_inf={t_inf}"
        )
    d_f = -np.diff(s_j)  # mass of J in each grid cell
    d_f = np.maximum(d_f, 0.0)
    total = d_f.sum()
    if total <= 0.0:
        raise ValueError("law of J carries no mass on the grid")
    mids = 0.5 * (model.times[:-1] + model.times[1:])
    n_par = np.asarray(n_parallel_for_latency(mids, t0, t_inf))
    return float(np.dot(n_par, d_f) / total)


@dataclass(frozen=True, repr=False)
class DelayedResubmission(Strategy):
    """Staggered copies every ``t0`` with per-copy timeout ``t∞`` (paper §6).

    Parameters
    ----------
    t0:
        Delay before each additional copy is submitted (seconds).
    t_inf:
        Age at which each copy is cancelled (seconds).  Must satisfy
        ``t0 <= t∞ <= 2·t0``; the lower boundary degenerates to single
        resubmission, the upper maximises overlap.
    """

    t0: float
    t_inf: float
    name = "delayed"

    def __post_init__(self) -> None:
        check_positive("t0", self.t0)
        check_positive("t_inf", self.t_inf)
        if not self.t0 <= self.t_inf <= 2.0 * self.t0:
            raise ValueError(
                f"need t0 <= t_inf <= 2·t0, got t0={self.t0}, t_inf={self.t_inf}"
            )

    def moments(self, model: GriddedLatencyModel) -> StrategyMoments:
        return delayed_moments(model, self.t0, self.t_inf)

    def mean_parallel_jobs(self, model: GriddedLatencyModel) -> float:
        """Paper's plug-in estimate: ``N_//`` of §6.1 evaluated at ``E_J``."""
        e_j = self.expectation(model)
        if not np.isfinite(e_j):
            return float("nan")
        return float(n_parallel_for_latency(e_j, self.t0, self.t_inf))

    def mean_parallel_jobs_exact(self, model: GriddedLatencyModel) -> float:
        """Exact ``E[N_//(J)]`` (extension, see :func:`mean_parallel_exact`)."""
        return mean_parallel_exact(model, self.t0, self.t_inf)

    def survival(self, model: GriddedLatencyModel) -> np.ndarray:
        """``P(J > t)`` on the model grid."""
        return delayed_survival(model, self.t0, self.t_inf)

    def describe(self) -> str:
        return (
            f"delayed resubmission (t0={self.t0:g}s, t_inf={self.t_inf:g}s, "
            f"ratio={self.t_inf / self.t0:.3g})"
        )

    def describe_timeline(self, width: int = 60) -> str:
        """ASCII rendition of the Fig. 4 schedule (three submissions)."""
        span = 2.0 * self.t0 + self.t_inf
        scale = (width - 1) / span

        def bar(start: float, end: float, label: str) -> str:
            pad = " " * int(round(start * scale))
            body = "#" * max(1, int(round((end - start) * scale)))
            return f"{pad}{body}  {label}"

        lines = [
            f"delayed schedule: t0={self.t0:g}s, t_inf={self.t_inf:g}s",
            bar(0.0, self.t_inf, "job 1 (0 .. t_inf)"),
            bar(self.t0, self.t0 + self.t_inf, "job 2 (t0 .. t0+t_inf)"),
            bar(2.0 * self.t0, span, "job 3 (2*t0 .. )"),
        ]
        return "\n".join(lines)
