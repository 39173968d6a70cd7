"""Cross-validation of the vectorised strategies against the printed equations."""

import numpy as np
import pytest

from oracles import eq1_expectation, eq2_std, eq3_expectation, eq4_std
from repro.core.paper_equations import eq5_union_expectation, union_cdf_of_j
from repro.core.strategies import (
    delayed_moments,
    multiple_moments,
)

TIMEOUTS = (250.0, 500.0, 1000.0, 2000.0)


class TestEq1Eq2:
    @pytest.mark.parametrize("t_inf", TIMEOUTS)
    def test_eq1_matches_geometric_derivation(self, gridded, t_inf):
        assert eq1_expectation(gridded, t_inf) == pytest.approx(
            multiple_moments(gridded, 1, t_inf).expectation, rel=1e-9
        )

    @pytest.mark.parametrize("t_inf", TIMEOUTS)
    def test_eq2_matches_geometric_derivation(self, gridded, t_inf):
        # the paper's printed Eq. 2 is algebraically identical to the
        # direct E[J^2] expansion — this is the identity proved in DESIGN.md
        assert eq2_std(gridded, t_inf) == pytest.approx(
            multiple_moments(gridded, 1, t_inf).std, rel=1e-6
        )

    def test_eq1_infinite_below_support(self, gridded):
        assert np.isinf(eq1_expectation(gridded, 50.0))
        assert np.isinf(eq2_std(gridded, 50.0))


class TestEq3Eq4:
    @pytest.mark.parametrize("b", (1, 2, 5, 10))
    def test_eq3_matches_implementation(self, gridded, b):
        assert eq3_expectation(gridded, b, 800.0) == pytest.approx(
            multiple_moments(gridded, b, 800.0).expectation, rel=1e-9
        )

    @pytest.mark.parametrize("b", (1, 2, 5))
    def test_eq4_matches_implementation(self, gridded, b):
        assert eq4_std(gridded, b, 800.0) == pytest.approx(
            multiple_moments(gridded, b, 800.0).std, rel=1e-6
        )

    def test_eq3_b1_equals_eq1(self, gridded):
        assert eq3_expectation(gridded, 1, 600.0) == pytest.approx(
            eq1_expectation(gridded, 600.0), rel=1e-12
        )

    def test_b_validation(self, gridded):
        with pytest.raises(ValueError):
            eq3_expectation(gridded, 0, 500.0)
        with pytest.raises(ValueError):
            eq4_std(gridded, 0, 500.0)


class TestEq5Union:
    """The printed Eq. 5 carries a union-bound slip (DESIGN.md errata)."""

    def test_union_cdf_monotone(self, gridded):
        f_j = union_cdf_of_j(gridded, 400.0, 600.0)
        assert (np.diff(f_j) >= -1e-12).all()
        assert f_j[0] == pytest.approx(0.0, abs=1e-12)

    def test_union_cdf_overcounts_mass(self, gridded):
        # the spurious +F̃(t0)·F̃(u) term makes the union F_J dominate the
        # correct one (strictly, wherever the overlap windows are active)
        from repro.core.strategies import delayed_survival

        t0, t_inf = 400.0, 600.0
        correct = 1.0 - delayed_survival(gridded, t0, t_inf)
        union = union_cdf_of_j(gridded, t0, t_inf)
        assert (union >= correct - 1e-9).all()
        assert union.max() > correct.max() - 1e-12

    def test_union_expectation_detectably_wrong_but_close(self, gridded):
        # the union slip shifts E_J by a few percent — detectable, yet
        # small enough that the paper's tables remain meaningful
        t0, t_inf = 400.0, 600.0
        truth = delayed_moments(gridded, t0, t_inf).expectation
        union = eq5_union_expectation(gridded, t0, t_inf)
        assert abs(union - truth) / truth > 1e-3  # the slip is real
        assert union == pytest.approx(truth, rel=0.1)  # and bounded

    def test_union_matches_exactly_when_degenerate(self, gridded):
        # at t_inf = t0 the overlap window vanishes and so does the slip
        truth = delayed_moments(gridded, 500.0, 500.0).expectation
        union = eq5_union_expectation(gridded, 500.0, 500.0)
        assert union == pytest.approx(truth, rel=5e-3)

    def test_validation(self, gridded):
        with pytest.raises(ValueError):
            union_cdf_of_j(gridded, 400.0, 900.0)
