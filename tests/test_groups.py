"""Group law, dilation and grid tests."""

import numpy as np
import pytest

from gradedheat.groups import (
    DilationWeights,
    Field,
    Grid,
    dilate,
    euclidean,
    group_inverse,
    group_product,
    heisenberg1,
    make_grid,
)


class TestDilate:
    def test_euclidean_isotropic(self):
        g = euclidean(2)
        out = dilate([1.0, 1.0], 2.0, g.weights)
        np.testing.assert_allclose(out, [2.0, 2.0])

    def test_heisenberg_weights(self):
        g = heisenberg1()
        out = dilate([1.0, 1.0, 1.0], 2.0, g.weights)
        np.testing.assert_allclose(out, [2.0, 2.0, 4.0])

    def test_identity_dilation(self):
        g = heisenberg1()
        x = np.array([0.3, -0.7, 0.11])
        np.testing.assert_array_equal(dilate(x, 1.0, g.weights), x)

    def test_composition(self):
        # D_r D_s = D_{rs} exactly up to rounding
        g = heisenberg1()
        rng = np.random.default_rng(7)
        x = rng.standard_normal((50, 3))
        for r, s in [(2.0, 3.0), (0.5, 0.25), (1.7, 0.3)]:
            lhs = dilate(dilate(x, s, g.weights), r, g.weights)
            rhs = dilate(x, r * s, g.weights)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_nonpositive_r_rejected(self):
        g = euclidean(1)
        with pytest.raises(ValueError):
            dilate([1.0], 0.0, g.weights)
        with pytest.raises(ValueError):
            dilate([1.0], -2.0, g.weights)

    def test_homogeneous_dimension(self):
        assert euclidean(3).Q == 3
        assert heisenberg1().Q == 4
        assert DilationWeights((1, 1, 2, 3)).Q == 7

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            DilationWeights((1, 0))
        with pytest.raises(ValueError):
            DilationWeights((1, -2))


class TestGroupProduct:
    def test_euclidean_addition(self):
        g = euclidean(1)
        np.testing.assert_allclose(group_product([1.0], [2.0], g), [3.0])

    def test_heisenberg_identity(self):
        g = heisenberg1()
        x = np.array([0.4, -1.2, 2.0])
        np.testing.assert_array_equal(group_product(x, np.zeros(3), g), x)
        np.testing.assert_array_equal(group_product(np.zeros(3), x, g), x)

    def test_heisenberg_twist(self):
        # the central coordinate picks up half the symplectic area
        g = heisenberg1()
        out = group_product([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], g)
        np.testing.assert_allclose(out, [1.0, 1.0, 0.5])
        # reversed order flips the sign of the twist
        out = group_product([0.0, 1.0, 0.0], [1.0, 0.0, 0.0], g)
        np.testing.assert_allclose(out, [1.0, 1.0, -0.5])

    @pytest.mark.parametrize("make", [lambda: euclidean(2), heisenberg1])
    def test_associativity_and_inverses(self, make):
        g = make()
        rng = np.random.default_rng(101)
        x, y, z = rng.uniform(-3, 3, size=(3, 1000, g.dim))
        lhs = group_product(group_product(x, y, g), z, g)
        rhs = group_product(x, group_product(y, z, g), g)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)
        e = group_product(x, group_inverse(x, g), g)
        np.testing.assert_allclose(e, np.zeros_like(x), rtol=0, atol=1e-12)
        e = group_product(group_inverse(x, g), x, g)
        np.testing.assert_allclose(e, np.zeros_like(x), rtol=0, atol=1e-12)

    def test_dilations_are_automorphisms(self):
        g = heisenberg1()
        rng = np.random.default_rng(5)
        x, y = rng.uniform(-2, 2, size=(2, 200, 3))
        for r in (0.5, 2.0):
            lhs = group_product(dilate(x, r, g.weights), dilate(y, r, g.weights), g)
            rhs = dilate(group_product(x, y, g), r, g.weights)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestGrid:
    def test_spacing_example(self):
        grid = make_grid(euclidean(1), np.pi, 8)
        assert grid.spacings == (np.pi / 4,)
        np.testing.assert_allclose(grid.axes[0][0], -np.pi)
        # periodic: right endpoint is not a node
        assert grid.axes[0][-1] < np.pi

    def test_heisenberg_grid_dof(self):
        grid = make_grid(heisenberg1(), (2.0, 2.0, 4.0), 16)
        assert grid.size == 4096
        assert grid.cell_volume == pytest.approx((4 / 16) * (4 / 16) * (8 / 16))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            make_grid(euclidean(1), 1.0, 2)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            make_grid(heisenberg1(), (1.0, 1.0), (8, 8, 8))

    def test_infinite_half_width_rejected(self):
        with pytest.raises(ValueError, match="half_widths"):
            Grid(euclidean(1), (np.inf,), (16,))

    def test_node_coordinates_order_matches_ravel(self):
        grid = make_grid(heisenberg1(), 1.0, 4)
        coords = [m.ravel() for m in np.meshgrid(*grid.axes, indexing="ij")]
        f = Field.from_function(grid, lambda a, b, c: a + 10 * b + 100 * c)
        np.testing.assert_allclose(f.flat, coords[0] + 10 * coords[1] + 100 * coords[2])


class TestField:
    def test_shape_checked(self):
        grid = make_grid(euclidean(1), 1.0, 8)
        with pytest.raises(ValueError):
            Field(grid, np.zeros(9))

    def test_nonfinite_rejected(self):
        grid = make_grid(euclidean(1), 1.0, 8)
        bad = np.zeros(8)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            Field(grid, bad)

    def test_values_read_only(self):
        grid = make_grid(euclidean(1), 1.0, 8)
        f = Field.zeros(grid)
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_arithmetic(self):
        grid = make_grid(euclidean(1), 1.0, 8)
        f = Field.from_function(grid, lambda x: x)
        g = 2.0 * f - f
        np.testing.assert_allclose(g.values, f.values)
        h = f * f
        np.testing.assert_allclose(h.values, f.values**2)

    def test_cross_grid_arithmetic_rejected(self):
        f = Field.zeros(make_grid(euclidean(1), 1.0, 8))
        g = Field.zeros(make_grid(euclidean(1), 1.0, 16))
        with pytest.raises(ValueError):
            f + g
