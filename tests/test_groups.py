"""Group law, dilation and grid tests."""

import numpy as np
import pytest

from gradedheat.groups import (
    Field,
    Grid,
    GroupInstance,
    euclidean,
    heisenberg1,
    make_grid,
)


class TestDilate:
    # D_r(x)_i = r**w_i * x_i, scaled inline by the group's weights
    def test_euclidean_isotropic(self):
        g = euclidean(2)
        np.testing.assert_allclose(np.array([1.0, 1.0]) * 2.0 ** np.array(g.weights), [2.0, 2.0])

    def test_heisenberg_weights(self):
        g = heisenberg1()
        np.testing.assert_allclose(np.ones(3) * 2.0 ** np.array(g.weights), [2.0, 2.0, 4.0])

    def test_homogeneous_dimension(self):
        assert euclidean(3).Q == 3
        assert heisenberg1().Q == 4


class TestGroupInstance:
    def test_kind_and_dim_fix_the_weights(self):
        assert euclidean(2) == GroupInstance("euclidean", 2)
        assert euclidean(3).weights == (1, 1, 1)
        assert heisenberg1() == GroupInstance("heisenberg1", 3)
        assert heisenberg1().weights == (1, 1, 2)
        assert (str(euclidean(2)), str(heisenberg1())) == ("euclidean2", "heisenberg1")

    @pytest.mark.parametrize("dim", [2, 4])
    def test_heisenberg_needs_three_coordinates(self, dim):
        # the weights (1, 1, 2) fix Q = 4; no other dim can carry them
        with pytest.raises(ValueError, match="heisenberg1 has 3 coordinates"):
            GroupInstance("heisenberg1", dim)

    @pytest.mark.parametrize("kind, dim, want", [
        ("euclidean", 0, "dimension must be >= 1"),
        ("engel", 4, "unknown group kind"),
    ])
    def test_bad_group_rejected(self, kind, dim, want):
        with pytest.raises(ValueError, match=want):
            GroupInstance(kind, dim)


def heisenberg_product(x, y):
    """(a1, b1, c1) * (a2, b2, c2) = (a1 + a2, b1 + b2, c1 + c2 + (a1*b2 - b1*a2) / 2)."""
    out = x + y
    out[..., 2] += 0.5 * (x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0])
    return out


class TestGroupProduct:
    def test_dilations_are_automorphisms(self):
        g = heisenberg1()
        rng = np.random.default_rng(5)
        x, y = rng.uniform(-2, 2, size=(2, 200, 3))
        for r in (0.5, 2.0):
            scale = r ** np.array(g.weights)  # D_r(x)_i = r**w_i * x_i
            lhs = heisenberg_product(x * scale, y * scale)
            rhs = heisenberg_product(x, y) * scale
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
