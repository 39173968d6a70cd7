"""Tests for the time-grid and integration primitives."""

import numpy as np
import pytest

from repro.util.grids import TimeGrid, cumulative_trapezoid

from oracles import integrate


class TestCumulativeTrapezoid:
    def test_constant_integrand(self):
        y = np.ones(11)
        out = cumulative_trapezoid(y, dx=0.5)
        assert out[0] == 0.0
        np.testing.assert_allclose(out, np.arange(11) * 0.5)

    def test_linear_integrand(self):
        x = np.linspace(0, 2, 201)
        out = cumulative_trapezoid(x, dx=x[1] - x[0])
        np.testing.assert_allclose(out, x**2 / 2, atol=1e-4)

    def test_matches_scipy(self):
        from scipy.integrate import cumulative_trapezoid as scipy_ct

        rng = np.random.default_rng(0)
        y = rng.random(257)
        ours = cumulative_trapezoid(y, dx=0.37)
        theirs = scipy_ct(y, dx=0.37, initial=0.0)
        np.testing.assert_allclose(ours, theirs, rtol=1e-12)

    def test_multidimensional_last_axis(self):
        y = np.ones((3, 5))
        out = cumulative_trapezoid(y, dx=1.0)
        assert out.shape == (3, 5)
        np.testing.assert_allclose(out[1], np.arange(5.0))


class TestTimeGrid:
    def test_default_matches_paper_protocol(self):
        grid = TimeGrid()
        assert grid.t_max == 10_000.0
        assert grid.dt == 1.0
        assert grid.n == 10_001

    def test_times_endpoints(self):
        grid = TimeGrid(t_max=100.0, dt=2.5)
        t = grid.times
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(100.0)
        assert len(t) == grid.n

    def test_index_round_trip(self):
        grid = TimeGrid(t_max=1000.0, dt=2.0)
        for t in (0.0, 2.0, 500.0, 1000.0):
            assert grid.time_of(grid.index_of(t)) == pytest.approx(t)

    def test_index_of_nearest(self):
        grid = TimeGrid(t_max=100.0, dt=2.0)
        assert grid.index_of(3.1) == 2  # nearest grid point is 4.0? -> 3.1/2 = 1.55 -> 2
        assert grid.time_of(grid.index_of(3.1)) == pytest.approx(4.0)

    def test_index_out_of_range(self):
        grid = TimeGrid(t_max=100.0, dt=1.0)
        with pytest.raises(ValueError, match="outside grid"):
            grid.index_of(200.0)
        with pytest.raises(ValueError, match="outside grid"):
            grid.index_of(-5.0)

    def test_time_of_out_of_range(self):
        grid = TimeGrid(t_max=100.0, dt=1.0)
        with pytest.raises(ValueError, match="outside grid"):
            grid.time_of(101)
        with pytest.raises(ValueError, match="outside grid"):
            grid.time_of(-1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TimeGrid(t_max=-1.0)
        with pytest.raises(ValueError):
            TimeGrid(dt=0.0)
        with pytest.raises(ValueError, match="at least one grid step"):
            TimeGrid(t_max=0.5, dt=1.0)

    def test_cumint_shape_check(self):
        grid = TimeGrid(t_max=10.0, dt=1.0)
        with pytest.raises(ValueError, match="grid has"):
            grid.cumint(np.ones(5))

    def test_cumint_value(self):
        grid = TimeGrid(t_max=10.0, dt=1.0)
        out = grid.cumint(np.ones(grid.n))
        np.testing.assert_allclose(out, grid.times)

    def test_integrate_reference(self):
        grid = TimeGrid(t_max=1.0, dt=0.001)
        assert integrate(grid, grid.times) == pytest.approx(0.5, abs=1e-6)
        with pytest.raises(ValueError, match="grid has"):
            integrate(grid, np.ones(5))

    def test_derivative_of_linear(self):
        grid = TimeGrid(t_max=10.0, dt=0.5)
        d = grid.derivative(3.0 * grid.times)
        np.testing.assert_allclose(d, 3.0)

    def test_derivative_shape_check(self):
        grid = TimeGrid(t_max=10.0, dt=1.0)
        with pytest.raises(ValueError, match="grid has"):
            grid.derivative(np.ones(4))

    def test_frozen(self):
        grid = TimeGrid()
        with pytest.raises(AttributeError):
            grid.dt = 5.0
