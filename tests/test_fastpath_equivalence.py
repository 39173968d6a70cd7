"""Equivalence tests for the batched fast paths introduced with the
surface kernel: the 2-D delayed-E_J kernel against the per-``t0``
reference, the row-block streamed optimisers and cost frontier against
the materialising sweeps they replaced, and the closed-form Monte-Carlo
draws against the original loop-based mechanical replays (the replaced
bodies are kept here verbatim as references)."""

import tracemalloc
from dataclasses import astuple
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.model import LatencyModel
from repro.core.optimize import (
    _best_over_t0,
    _best_streamed,
    _delayed_t0_candidates,
    _finish_delayed,
    _ratio_k_inf,
    optimize_delayed,
    optimize_delayed_cost,
    optimize_delayed_ratio_sweep,
    optimize_single,
)
from repro.core.strategies import delayed
from repro.core.strategies.delayed import (
    _DELAYED_CACHE_BUDGET,
    _PRUNED_BLOCK_ROWS,
    _band_floor,
    _band_rows,
    _row_blocks,
    delayed_band_blocks,
    delayed_cost_bands,
    delayed_expectation_bands,
    delayed_expectation_for_t0,
    delayed_expectation_surface,
)
from repro.experiments.context import T0_WINDOW
from repro.experiments.fig8_cost_curves import delayed_cost_frontier
from repro.distributions import LogNormal, ShiftedDistribution, Weibull
from repro.montecarlo import simulate_multiple, simulate_single
from repro.util.grids import TimeGrid

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

model_params = st.tuples(
    st.floats(min_value=4.5, max_value=6.5),   # lognormal mu
    st.floats(min_value=0.4, max_value=1.6),   # lognormal sigma
    st.floats(min_value=0.0, max_value=0.4),   # rho
    st.floats(min_value=0.0, max_value=300.0), # shift
)


def make_gridded(params, t_max=6000.0, dt=4.0):
    mu, sigma, rho, shift = params
    dist = ShiftedDistribution(LogNormal(mu=mu, sigma=sigma), shift=shift)
    return LatencyModel(dist, rho=rho).on_grid(TimeGrid(t_max=t_max, dt=dt))


# -- reference implementations: the materialising delayed sweeps ----------


def _best_in_rect(rect, k0_values):
    """Global minimiser of a whole inf-padded objective rectangle."""
    flat = int(np.argmin(rect))
    i, j = divmod(flat, rect.shape[1])
    value = float(rect[i, j])
    if not np.isfinite(value):
        raise ValueError("no feasible (t0, t_inf) in the search window")
    k0 = int(k0_values[i])
    return k0, k0 + j, value


def _two_stage_in_rect(model, candidates, stride, rect_of):
    k0, k_inf, value = _best_in_rect(rect_of(candidates), candidates)
    if stride > 1:
        lo = max(2, k0 - stride)
        hi = min(model.grid.n - 1, k0 + stride)
        fine = np.arange(lo, hi + 1)
        k0, k_inf, value = _best_in_rect(rect_of(fine), fine)
    return k0, k_inf, value


def ref_optimize_delayed(model, *, t0_min=None, t0_max=None, coarse=8, e_j_single=None):
    candidates, stride = _delayed_t0_candidates(model, t0_min, t0_max, coarse)
    k0, k_inf, _ = _two_stage_in_rect(
        model, candidates, stride, lambda k0s: delayed_expectation_bands(model, k0s)[0]
    )
    return _finish_delayed(model, k0, k_inf, e_j_single)


def ref_optimize_delayed_cost(model, e_j_single, *, t0_min=None, t0_max=None, coarse=8):
    candidates, stride = _delayed_t0_candidates(model, t0_min, t0_max, coarse)
    k0, k_inf, best_cost = _two_stage_in_rect(
        model,
        candidates,
        stride,
        lambda k0s: delayed_cost_bands(model, k0s, e_j_single)[0],
    )
    return _finish_delayed(model, k0, k_inf, None, cost=best_cost)


def ref_optimize_delayed_ratio_sweep(model, ratios, *, t0_min=None, t0_max=None):
    candidates, stride = _delayed_t0_candidates(model, t0_min, t0_max, 4)
    rect, _ = delayed_expectation_bands(model, candidates)

    def objective_for(ratio):
        def objective(k0):
            k_inf = int(_ratio_k_inf(model, np.array([k0]), ratio)[0])
            (row,) = _band_rows(model, [k0])
            return row[[k_inf - k0]], np.array([k_inf])

        return objective

    out = []
    for ratio in ratios:
        k_inf_v = _ratio_k_inf(model, candidates, ratio)
        values = rect[np.arange(len(candidates)), k_inf_v - candidates]
        best_i = int(np.argmin(values))
        if not np.isfinite(values[best_i]):
            raise ValueError("no feasible (t0, t_inf) in the search window")
        k0, k_inf = int(candidates[best_i]), int(k_inf_v[best_i])
        if stride > 1:
            lo = max(2, k0 - stride)
            hi = min(model.grid.n - 1, k0 + stride)
            k0, k_inf, _ = _best_over_t0(
                model, np.arange(lo, hi + 1), objective_for(ratio)
            )
        out.append(_finish_delayed(model, k0, k_inf, None))
    return out


def ref_delayed_cost_frontier(model, e_j_single, *, t0_min, t0_max, stride=8, bin_width=0.05):
    grid = model.grid
    lo = max(2, grid.index_of(t0_min))
    hi = min(grid.n - 1, grid.index_of(t0_max))
    k0v = np.arange(lo, hi + 1, max(1, stride))
    costs, n_par = delayed_cost_bands(model, k0v, e_j_single)
    finite = np.isfinite(costs)
    if not finite.any():
        return np.empty(0), np.empty(0)
    keys = (n_par[finite] / bin_width).astype(np.int64)
    vals = costs[finite]
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    starts = np.flatnonzero(np.r_[True, np.diff(keys) > 0])
    y = np.minimum.reduceat(vals, starts)
    x = (keys[starts] + 0.5) * bin_width
    return x, y


# -- reference implementations: the original loop-based MC replays --------

_MAX_ROUNDS = 100_000


def _loop_simulate_single(model, t_inf, n_tasks, rng):
    """Seed implementation of simulate_single (mechanical replay)."""
    gen = np.random.default_rng(rng)
    j = np.zeros(n_tasks)
    jobs = np.zeros(n_tasks, dtype=np.int64)
    alive = np.arange(n_tasks)
    for _ in range(_MAX_ROUNDS):
        if alive.size == 0:
            break
        lat = model.sample_latencies(alive.size, gen)
        jobs[alive] += 1
        success = lat < t_inf
        done = alive[success]
        j[done] += lat[success]
        failed = alive[~success]
        j[failed] += t_inf
        alive = failed
    return j, jobs


def _loop_simulate_multiple(model, b, t_inf, n_tasks, rng):
    """Seed implementation of simulate_multiple (mechanical replay)."""
    gen = np.random.default_rng(rng)
    j = np.zeros(n_tasks)
    jobs = np.zeros(n_tasks, dtype=np.int64)
    alive = np.arange(n_tasks)
    for _ in range(_MAX_ROUNDS):
        if alive.size == 0:
            break
        lat = model.sample_latencies(alive.size * b, gen).reshape(alive.size, b)
        jobs[alive] += b
        best = lat.min(axis=1)
        success = best < t_inf
        done = alive[success]
        j[done] += best[success]
        failed = alive[~success]
        j[failed] += t_inf
        alive = failed
    return j, jobs


class TestSurfaceKernel:
    @SETTINGS
    @given(params=model_params)
    def test_surface_rows_match_reference(self, params):
        gm = make_gridded(params)
        n = gm.grid.n
        k0s = [2, 3, 7, n // 8, n // 3, n // 2, 2 * n // 3, n - 1]
        surface = delayed_expectation_surface(gm, k0s)
        for row, k0 in zip(surface, k0s):
            ref = delayed_expectation_for_t0(gm, k0)
            np.testing.assert_allclose(row, ref, atol=1e-9)

    @SETTINGS
    @given(params=model_params)
    def test_bands_match_surface(self, params):
        gm = make_gridded(params)
        n = gm.grid.n
        k0s = np.array([5, n // 4, n // 2, n - 2])
        rect, widths = delayed_expectation_bands(gm, k0s)
        surface = delayed_expectation_surface(gm, k0s)
        for i, k0 in enumerate(k0s):
            w = int(widths[i])
            assert w == min(2 * k0, n - 1) - k0 + 1
            np.testing.assert_array_equal(rect[i, :w], surface[i, k0 : k0 + w])
            assert np.isinf(rect[i, w:]).all()

    def test_rows_are_cached_and_reused(self):
        gm = make_gridded((5.6, 1.1, 0.05, 150.0))
        first = delayed_expectation_surface(gm, [50, 80])
        assert set(gm._delayed_band_cache) >= {50, 80}
        row_obj = gm._delayed_band_cache[50]
        second = delayed_expectation_surface(gm, [50])
        assert gm._delayed_band_cache[50] is row_obj  # no recomputation
        np.testing.assert_array_equal(first[0], second[0])

    def test_cache_budget_is_bounded(self):
        gm = make_gridded((5.6, 1.1, 0.05, 150.0), t_max=6000.0, dt=1.0)
        delayed_expectation_surface(gm, list(range(2, gm.grid.n - 1, 3)))
        assert gm._delayed_band_cache_floats <= _DELAYED_CACHE_BUDGET
        assert sum(
            row.size for row in gm._delayed_band_cache.values()
        ) == gm._delayed_band_cache_floats

    def test_optimizer_matches_exhaustive_reference(self):
        gm = make_gridded((5.6, 1.1, 0.05, 150.0))
        opt = optimize_delayed(gm, coarse=1)
        best = (np.inf, None, None)
        for k0 in range(2, gm.grid.n - 1):
            ref = delayed_expectation_for_t0(gm, k0)
            hi = min(2 * k0, gm.grid.n - 1)
            ks = np.arange(k0, hi + 1)
            j = int(np.argmin(ref[ks]))
            if ref[ks][j] < best[0]:
                best = (float(ref[ks][j]), k0, int(ks[j]))
        assert opt.e_j == pytest.approx(best[0], rel=1e-12)
        assert gm.grid.index_of(opt.t0) == best[1]
        assert gm.grid.index_of(opt.t_inf) == best[2]


def _outcome(fn, *args, **kwargs):
    """What a call returns, or the message of the ValueError it raises."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _as_tuple(result):
    if isinstance(result, list):
        return [_as_tuple(r) for r in result]
    return astuple(result) if hasattr(result, "__dataclass_fields__") else result


def assert_same(a, b):
    """Bitwise equality of optima / outcomes (nan equals nan)."""
    a, b = _as_tuple(a), _as_tuple(b)
    if "ValueError" in (a[0], b[0]):
        assert a == b
    else:
        np.testing.assert_array_equal(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


STREAM_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestStreamedSweeps:
    """The streamed optimisers and frontier equal the materialising ones.

    Reference and streamed sweeps run on separate models, so neither reads
    rows the other tabulated; the drawn block budget (``None`` keeps the
    production one) moves the block boundaries over the candidates.
    """

    T_MAX = 1500.0

    @STREAM_SETTINGS
    @given(
        params=model_params,
        dt=st.sampled_from([0.5, 1.0, 2.0]),
        window=st.tuples(st.floats(0.0, 0.6), st.floats(0.05, 1.0)),
        budget=st.sampled_from([None, 3_000, 40_000]),
    )
    def test_streamed_equals_materialised(self, params, dt, window, budget):
        ref_model = make_gridded(params, t_max=self.T_MAX, dt=dt)
        model = make_gridded(params, t_max=self.T_MAX, dt=dt)
        t0_min = window[0] * self.T_MAX
        t0_max = min(self.T_MAX, t0_min + window[1] * self.T_MAX)
        e_single = optimize_single(ref_model).e_j
        ratios = (1.1, 1.25, 1.6, 2.0)
        kw = dict(t0_min=t0_min, t0_max=t0_max)
        refs = [
            _outcome(ref_optimize_delayed, ref_model, e_j_single=e_single, **kw),
            _outcome(ref_optimize_delayed, ref_model, coarse=1, **kw),
            _outcome(ref_optimize_delayed_cost, ref_model, e_single, **kw),
            _outcome(ref_optimize_delayed_ratio_sweep, ref_model, ratios, **kw),
            _outcome(ref_delayed_cost_frontier, ref_model, e_single, **kw),
        ]
        with mock.patch.object(delayed, "_BLOCK_FLOATS", budget or delayed._BLOCK_FLOATS):
            got = [
                _outcome(optimize_delayed, model, e_j_single=e_single, **kw),
                _outcome(optimize_delayed, model, coarse=1, **kw),
                _outcome(optimize_delayed_cost, model, e_single, **kw),
                _outcome(optimize_delayed_ratio_sweep, model, ratios, **kw),
                _outcome(delayed_cost_frontier, model, e_single, **kw),
            ]
        for ref, new in zip(refs[:4], got[:4]):
            assert_same(ref, new)
        (rx, ry), (gx, gy) = refs[4], got[4]
        np.testing.assert_array_equal(rx, gx)
        np.testing.assert_array_equal(ry, gy)

    @pytest.mark.parametrize("dt", [0.5, 2.0])
    def test_paper_window_at_production_budget(self, dt):
        ref_model = make_gridded((5.6, 1.1, 0.05, 150.0), t_max=4000.0, dt=dt)
        model = make_gridded((5.6, 1.1, 0.05, 150.0), t_max=4000.0, dt=dt)
        candidates, _ = _delayed_t0_candidates(model, *T0_WINDOW, 8)
        assert len(_row_blocks(model, candidates)) > 1
        e_single = optimize_single(ref_model).e_j
        kw = dict(t0_min=T0_WINDOW[0], t0_max=T0_WINDOW[1])
        assert_same(
            ref_optimize_delayed_cost(ref_model, e_single, **kw),
            optimize_delayed_cost(model, e_single, **kw),
        )
        rx, ry = ref_delayed_cost_frontier(ref_model, e_single, **kw)
        gx, gy = delayed_cost_frontier(model, e_single, **kw)
        np.testing.assert_array_equal(rx, gx)
        np.testing.assert_array_equal(ry, gy)


class TestStreamedTieRule:
    """``_best_streamed`` keeps ``np.argmin``'s first occurrence across blocks."""

    K0 = np.arange(10, 40)

    @pytest.fixture
    def five_row_blocks(self, monkeypatch):
        gm = make_gridded((5.6, 1.1, 0.05, 150.0))
        kmax = min(2 * int(self.K0[-1]), gm.grid.n - 1)
        monkeypatch.setattr(delayed, "_BLOCK_FLOATS", 5 * (kmax + 1))
        blocks = _row_blocks(gm, self.K0)
        assert [b.size for b in blocks] == [5] * 6
        return blocks

    def stream(self, blocks, full):
        return _best_streamed(
            (block, (full[block - self.K0[0]], None)) for block in blocks
        )

    def test_minimum_in_a_blocks_last_row(self, five_row_blocks):
        full = np.ones((self.K0.size, 12))
        full[:, 9:] = np.inf
        full[9, 3] = 0.5  # last row of the second block
        full[10, 0] = 0.5 + 1e-12  # first row of the next block, just above
        assert self.stream(five_row_blocks, full) == (19, 22, 0.5)
        assert self.stream(five_row_blocks, full) == _best_in_rect(full, self.K0)

    def test_ties_resolve_to_smallest_t0_then_t_inf(self, five_row_blocks):
        full = np.ones((self.K0.size, 12))
        full[12, 4] = 0.25
        full[13, 0] = 0.25  # same block, later row
        full[27, 1] = 0.25  # later block
        full[12, 7] = 0.25  # same row, later column
        assert self.stream(five_row_blocks, full) == (22, 26, 0.25)
        assert self.stream(five_row_blocks, full) == _best_in_rect(full, self.K0)

    def test_tie_between_two_blocks_keeps_the_first(self, five_row_blocks):
        full = np.full((self.K0.size, 12), 2.0)
        full[4, 11] = 1.0  # last cell of the first block
        full[5, 0] = 1.0  # first cell of the second block
        assert self.stream(five_row_blocks, full) == (14, 25, 1.0)

    def test_nothing_feasible_raises(self, five_row_blocks):
        full = np.full((self.K0.size, 12), np.inf)
        with pytest.raises(ValueError, match="no feasible"):
            self.stream(five_row_blocks, full)


class TestPruningBound:
    """Every cell of row ``t0`` is at least that row's floor."""

    @STREAM_SETTINGS
    @given(
        params=model_params,
        dt=st.sampled_from([0.5, 1.0, 2.0]),
        e_single=st.floats(min_value=10.0, max_value=5000.0),
    )
    def test_bands_never_undercut_the_floor(self, params, dt, e_single):
        gm = make_gridded(params, t_max=1000.0, dt=dt)
        k0s = np.arange(2, gm.grid.n)
        for block, (rect, _) in delayed_band_blocks(gm, k0s):
            finite = np.isfinite(rect)
            floor = gm.A[block][:, None]
            assert (rect >= floor)[finite].all()
            np.testing.assert_array_equal(_band_floor(gm, block), gm.A[block])
        for block, (costs, _) in delayed_band_blocks(gm, k0s, e_single):
            finite = np.isfinite(costs)
            floor = (1.0 - 1e-9) * gm.A[block][:, None] / e_single
            assert (costs >= floor)[finite].all()
            np.testing.assert_array_equal(
                _band_floor(gm, block, e_single), floor[:, 0]
            )


class TestPruningEdges:
    """Crafted floors and rectangles at the edges of the prune rule.

    The model's ``A`` (the floor) and the band rectangle are set by hand;
    the stream is the production one, so these pin which rows it drops
    and that the pruned search still returns ``np.argmin``'s cell.
    """

    K0 = np.arange(10, 10 + 4 * _PRUNED_BLOCK_ROWS)

    @pytest.fixture
    def crafted(self, monkeypatch):
        gm = make_gridded((5.6, 1.1, 0.05, 150.0))
        gm.A = np.zeros(gm.grid.n)
        full = np.full((self.K0.size, 12), 2.0)
        evaluated = []

        def bands(model, block):
            evaluated.extend(int(k0) for k0 in block)
            return full[block - self.K0[0]], None

        monkeypatch.setattr(delayed, "delayed_expectation_bands", bands)
        return gm, full, evaluated

    def search(self, gm):
        return _best_streamed(partial(delayed_band_blocks, gm, self.K0, None))

    def test_a_later_row_whose_floor_equals_the_incumbent_is_dropped(self, crafted):
        gm, full, evaluated = crafted
        full[3, 5] = 1.0  # the incumbent, in the first block
        gm.A[self.K0[20] :] = 1.0  # from the fifth row of the second block on
        assert self.search(gm) == (13, 18, 1.0) == _best_in_rect(full, self.K0)
        assert evaluated == list(self.K0[:20])

    def test_a_dropped_row_holding_a_tie_keeps_the_earlier_cell(self, crafted):
        gm, full, evaluated = crafted
        full[3, 5] = 1.0
        gm.A[self.K0[20] :] = 1.0
        full[20, 0] = 1.0  # ties the incumbent at a smaller t∞, but later t0
        full[40, 0] = 1.0
        assert self.search(gm) == (13, 18, 1.0) == _best_in_rect(full, self.K0)
        assert evaluated == list(self.K0[:20])

    def test_a_row_just_below_the_incumbent_is_kept(self, crafted):
        gm, full, evaluated = crafted
        full[3, 5] = 1.0
        below = np.nextafter(1.0, 0.0)
        gm.A[self.K0[20] :] = below
        full[33, 2] = below  # strictly smaller, in the third block
        gm.A[self.K0[34] :] = 1.0
        assert self.search(gm) == (43, 45, below) == _best_in_rect(full, self.K0)
        assert evaluated == list(self.K0[:34])

    def test_a_blocks_dropped_first_row_ends_the_stream(self, crafted):
        gm, full, evaluated = crafted
        full[3, 5] = 1.0
        gm.A[self.K0[_PRUNED_BLOCK_ROWS] :] = 1.0
        assert self.search(gm) == (13, 18, 1.0)
        assert evaluated == list(self.K0[:_PRUNED_BLOCK_ROWS])


class TestPrunedSweeps:
    def test_ratio_sweep_keeps_an_optimum_past_another_ratios_cut(self):
        # with rho = 0 the t∞ = t0 optimum sits near the end of the grid,
        # past where the ratio 2 incumbent alone would cut the sweep
        params = (5.0, 0.6, 0.0, 100.0)
        ref_model = make_gridded(params, t_max=1500.0, dt=2.0)
        model = make_gridded(params, t_max=1500.0, dt=2.0)
        ratios = (1.0, 1.5, 2.0)
        ref = ref_optimize_delayed_ratio_sweep(ref_model, ratios)
        assert ref_model.A[ref_model.grid.index_of(ref[0].t0)] >= ref[2].e_j
        assert_same(ref, optimize_delayed_ratio_sweep(model, ratios))

    @pytest.mark.parametrize("dt", [0.5, 2.0])
    def test_pruning_engages_on_the_paper_window(self, dt):
        gm = make_gridded((5.6, 1.1, 0.05, 150.0), t_max=4000.0, dt=dt)
        candidates, _ = _delayed_t0_candidates(gm, *T0_WINDOW, 8)
        e_single = optimize_single(gm).e_j
        optimize_delayed_cost(gm, e_single, t0_min=T0_WINDOW[0], t0_max=T0_WINDOW[1])
        assert len(gm._delayed_band_cache) < len(candidates)


def test_abl_grid_window_cost_optimum_stays_under_64_mb():
    """The abl-grid finest call: dt 0.5, t_max 10 000, the T0_WINDOW sweep."""
    gm = make_gridded((5.6, 1.1, 0.05, 150.0), t_max=10_000.0, dt=0.5)
    e_single = optimize_single(gm).e_j
    tracemalloc.start()
    try:
        optimize_delayed_cost(gm, e_single, t0_min=T0_WINDOW[0], t0_max=T0_WINDOW[1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


class TestBestOverT0Hardening:
    def test_all_nan_candidates_are_skipped(self):
        gm = make_gridded((5.6, 1.1, 0.05, 150.0))

        def objective(k0):
            ks = np.arange(k0, min(2 * k0, gm.grid.n - 1) + 1)
            if k0 < 100:
                return np.full(ks.size, np.nan), ks
            return np.asarray(delayed_expectation_for_t0(gm, k0)[ks]), ks

        k0, k_inf, value = _best_over_t0(gm, np.arange(50, 160, 10), objective)
        assert k0 >= 100
        assert np.isfinite(value)

    def test_everything_nan_raises_value_error(self):
        gm = make_gridded((5.6, 1.1, 0.05, 150.0))

        def objective(k0):
            ks = np.arange(k0, min(2 * k0, gm.grid.n - 1) + 1)
            return np.full(ks.size, np.nan), ks

        with pytest.raises(ValueError, match="no feasible"):
            _best_over_t0(gm, np.arange(50, 100, 10), objective)


class TestClosedFormMcLaw:
    """Closed-form draws vs the loop-based replays, at fixed seeds.

    The two samplers consume randomness differently, so agreement is
    statistical: means within a few combined standard errors, matching
    standard deviations and mean job counts.
    """

    N = 60_000

    @pytest.fixture(scope="class")
    def model(self):
        dist = ShiftedDistribution(LogNormal(mu=5.6, sigma=1.1), shift=150.0)
        return LatencyModel(dist, rho=0.05)

    def assert_law_agrees(self, j_ref, jobs_ref, run):
        se = np.hypot(
            j_ref.std(ddof=1) / np.sqrt(j_ref.size),
            run.j.std(ddof=1) / np.sqrt(run.j.size),
        )
        assert abs(j_ref.mean() - run.mean_j) < 5.0 * se
        assert run.std_j == pytest.approx(j_ref.std(), rel=0.05)
        assert run.mean_jobs == pytest.approx(jobs_ref.mean(), rel=0.05)

    def test_single_matches_loop_replay(self, model):
        j_ref, jobs_ref = _loop_simulate_single(model, 600.0, self.N, rng=11)
        run = simulate_single(model, 600.0, self.N, rng=12)
        self.assert_law_agrees(j_ref, jobs_ref, run)

    @pytest.mark.parametrize("b", (2, 5))
    def test_multiple_matches_loop_replay(self, model, b):
        j_ref, jobs_ref = _loop_simulate_multiple(model, b, 800.0, self.N, rng=b)
        run = simulate_multiple(model, b, 800.0, self.N, rng=b + 50)
        self.assert_law_agrees(j_ref, jobs_ref, run)

    def test_multiple_with_weibull_body(self):
        dist = ShiftedDistribution(Weibull(shape=1.3, scale=500.0), shift=80.0)
        model = LatencyModel(dist, rho=0.2)
        j_ref, jobs_ref = _loop_simulate_multiple(model, 3, 900.0, self.N, rng=7)
        run = simulate_multiple(model, 3, 900.0, self.N, rng=77)
        self.assert_law_agrees(j_ref, jobs_ref, run)

    def test_deterministic_at_fixed_seed(self, model):
        a = simulate_single(model, 600.0, 1000, rng=5)
        b = simulate_single(model, 600.0, 1000, rng=5)
        np.testing.assert_array_equal(a.j, b.j)
        np.testing.assert_array_equal(a.jobs_submitted, b.jobs_submitted)
