"""Basis and quadrature checks against independent oracles.

The evaluation oracle is the alternating binomial sum for the shifted
orthonormal Legendre polynomials, computed in exact rational arithmetic so
it cannot share rounding behavior with the recurrence under test.
"""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestdens import basis
from forestdens.basis import (BasisSpec, basis_matrix, basis_range, default_basis,
                              legendre_eval, make_quadrature)


def binomial_sum_oracle(ell: int, y: float) -> float:
    """Exact-rational binomial-sum evaluation, scaled by sqrt(2*ell + 1)."""
    acc = Fraction(0)
    yfrac = Fraction(y)
    for k in range(ell + 1):
        acc += comb(ell, k) * comb(ell + k, k) * (-yfrac) ** k
    return float((-1) ** ell * acc) * np.sqrt(2 * ell + 1)


class TestLegendreEval:
    def test_degree_zero_is_constant(self):
        assert legendre_eval(0, 0.3) == 1.0

    def test_degree_one_vanishes_at_midpoint(self):
        assert legendre_eval(1, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_degree_one_at_right_endpoint(self):
        assert legendre_eval(1, 1.0) == pytest.approx(np.sqrt(3.0), rel=1e-15)

    def test_matches_binomial_sum_oracle(self):
        grid = np.linspace(0.0, 1.0, 101)
        for ell in range(13):
            expected = np.array([binomial_sum_oracle(ell, y) for y in grid])
            got = legendre_eval(ell, grid)
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_rejects_points_outside_unit_interval(self):
        with pytest.raises(ValueError):
            legendre_eval(2, -0.1)
        with pytest.raises(ValueError):
            legendre_eval(2, 1.0001)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError):
            legendre_eval(2, bad)
        with pytest.raises(ValueError):
            basis_matrix(default_basis(2), [0.5, bad])

    @pytest.mark.parametrize("ell", [True, False, 2.5, np.float64(2.0), "2"])
    def test_rejects_a_degree_that_is_not_an_integer(self, ell):
        # True once passed as degree 1, and 2.5 raised a TypeError
        with pytest.raises(ValueError, match="^degree must be an integer"):
            legendre_eval(ell, 0.5)

    @pytest.mark.parametrize("ell", [-1, np.int64(-3)])
    def test_rejects_a_negative_degree(self, ell):
        with pytest.raises(ValueError, match="^degree must be nonnegative"):
            legendre_eval(ell, 0.5)

    @given(st.integers(min_value=0, max_value=12),
           st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_sup_norm(self, ell, y):
        assert abs(legendre_eval(ell, y)) <= np.sqrt(2 * ell + 1) + 1e-12


class TestBasisVector:
    def test_second_component_at_half(self):
        # phi_2(y) = sqrt(5) (6 y^2 - 6 y + 1)
        vec = basis_matrix(default_basis(2), 0.5)[0]
        np.testing.assert_allclose(vec, [0.0, np.sqrt(5) * (-0.5)], atol=1e-14)

    def test_single_component_at_one(self):
        np.testing.assert_allclose(basis_matrix(default_basis(1), 1.0)[0],
                                   [np.sqrt(3.0)], rtol=1e-15)

    def test_alternating_signs_at_zero(self):
        vec = basis_matrix(default_basis(3), 0.0)[0]
        expected = [binomial_sum_oracle(ell, 0.0) for ell in (1, 2, 3)]
        np.testing.assert_allclose(vec, expected, atol=1e-12)
        np.testing.assert_allclose(vec, [-np.sqrt(3), np.sqrt(5), -np.sqrt(7)],
                                   atol=1e-12)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=6),
           st.integers(min_value=1, max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_matrix_rows_match_vectors(self, ys, order):
        # a lone point runs the recurrence on Python floats, an array on numpy
        # columns: the two must give the same bits, whatever wraps the point
        spec = default_basis(order)
        mat = basis_matrix(spec, np.array(ys + [0.0, 1.0]))
        for i, y in enumerate(ys + [0.0, 1.0]):
            for point in (y, np.float64(y), np.array(y), np.array([y])):
                row = basis_matrix(spec, point)
                assert row.shape == (1, order)
                assert mat[i].tobytes() == row[0].tobytes()

    @pytest.mark.parametrize("bad", [-1e-12, 1.0 + 1e-12, np.nan, np.inf, -np.inf])
    def test_scalar_and_array_paths_reject_alike(self, bad):
        spec = default_basis(4)
        messages = set()
        for point in (bad, np.float64(bad), np.array(bad), np.array([bad]), np.array([0.5, bad])):
            with pytest.raises(ValueError) as err:
                basis_matrix(spec, point)
            messages.add(str(err.value))
        assert messages == {"evaluation points must lie in [0, 1]"}


class TestQuadrature:
    def test_two_point_rule(self):
        nodes, weights = make_quadrature(2)
        np.testing.assert_allclose(np.sort(nodes),
                                   [0.5 - 0.5 / np.sqrt(3), 0.5 + 0.5 / np.sqrt(3)],
                                   rtol=1e-15)
        np.testing.assert_allclose(weights, [0.5, 0.5], rtol=1e-15)

    def test_two_point_rule_exact_for_cubics(self):
        nodes, weights = make_quadrature(2)
        assert weights @ nodes ** 3 == pytest.approx(0.25, abs=1e-15)

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            make_quadrature(1)

    def test_orthonormality_of_degree_five(self):
        nodes, weights = make_quadrature(64)
        val = weights @ legendre_eval(5, nodes) ** 2
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_integrates_constants_and_odd_functions(self):
        spec = default_basis(4)
        assert spec.weights @ np.ones_like(spec.nodes) == pytest.approx(1.0, abs=1e-14)
        assert spec.weights @ legendre_eval(1, spec.nodes) == pytest.approx(0.0, abs=1e-14)

    def test_integrates_exponential(self):
        nodes, weights = make_quadrature(64)
        assert weights @ np.exp(nodes) == pytest.approx(np.e - 1.0, abs=1e-12)


class TestBasisSpec:
    def test_default_node_count(self):
        assert default_basis(8).nodes.size == 64
        assert BasisSpec(order=16).nodes.size == 4 * 16 + 16

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            BasisSpec(order=0)

    def test_rule_that_misses_orthonormality_raises(self, monkeypatch):
        # a 3-node rule is exact to degree 5, far below the degree-16 Gram entries of
        # order 8; built directly, as default_basis caches its specs
        monkeypatch.setattr(basis, "make_quadrature", lambda n_nodes: make_quadrature(3))
        with pytest.raises(ValueError, match="orthonormality"):
            BasisSpec(order=8)

    def test_scale_is_the_read_only_basis_range(self):
        spec = default_basis(8)
        assert spec.scale.tobytes() == basis_range(8).tobytes()
        with pytest.raises(ValueError):
            spec.scale[0] = 1.0


class TestOrthonormalityProperty:
    def test_gram_matrix_includes_constant(self):
        # all pairs up to degree 12, constant included
        quad = make_quadrature(64)
        nodes, weights = quad
        table = np.column_stack([legendre_eval(ell, nodes) for ell in range(13)])
        gram = (table * weights[:, None]).T @ table
        np.testing.assert_allclose(gram, np.eye(13), atol=1e-10)

    def test_recurrence_matches_oracle_on_grid(self):
        grid = np.linspace(0.0, 1.0, 101)
        for ell in range(13):
            oracle = np.array([binomial_sum_oracle(ell, y) for y in grid])
            np.testing.assert_allclose(legendre_eval(ell, grid), oracle, atol=1e-9)

    def test_sup_norm_on_dense_grid(self):
        grid = np.linspace(0.0, 1.0, 1001)
        for ell in range(13):
            bound = np.sqrt(2 * ell + 1)
            assert np.max(np.abs(legendre_eval(ell, grid))) <= bound + 1e-12
