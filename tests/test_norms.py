"""Lebesgue norms, and the Sobolev seminorms ||R^{s/nu} f||_2 through spectral_map."""

import math

import numpy as np
import pytest

from gradedheat.groups import Field, euclidean, heisenberg1, make_grid
from gradedheat.norms import lp_norm
from gradedheat.operators import (
    build_euclidean_laplacian,
    build_heisenberg_sublaplacian,
    spectral_map,
)


@pytest.fixture(scope="module")
def unit_box():
    # [-1/2, 1/2): measure one
    return make_grid(euclidean(1), 0.5, 16)


class TestLpNorm:
    def test_constant_on_unit_box(self, unit_box):
        f = Field(unit_box, np.full(unit_box.shape, 2.0))
        assert lp_norm(f, 2) == pytest.approx(2.0, rel=1e-14)
        assert lp_norm(f, math.inf) == pytest.approx(2.0)
        assert lp_norm(f, 1) == pytest.approx(2.0, rel=1e-14)

    def test_single_spike_l1(self):
        grid = make_grid(euclidean(1), 1.0, 8)
        values = np.zeros(grid.shape)
        values[3] = 5.0
        f = Field(grid, values)
        assert lp_norm(f, 1) == pytest.approx(5.0 * grid.cell_volume, rel=1e-14)

    @pytest.mark.parametrize("c", [10.0, 0.1, 1e-300])
    def test_large_p_neither_overflows_nor_underflows(self, c):
        # ||c||_p = c * |box|^{1/p}; 10^400 overflows and 0.1^400 underflows
        grid = make_grid(euclidean(1), 1.0, 16)
        f = Field(grid, np.full(grid.shape, c))
        assert lp_norm(f, 400) == pytest.approx(c * 2.0 ** (1 / 400), rel=1e-13, abs=0.0)

    def test_zero_field_has_zero_lp_norm(self, unit_box):
        assert lp_norm(Field.zeros(unit_box), 3.0) == 0.0

    def test_p_below_one_rejected(self, unit_box):
        with pytest.raises(ValueError):
            lp_norm(Field.zeros(unit_box), 0.5)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_holder_inequality(self, p):
        grid = make_grid(euclidean(2), 1.0, 12)
        rng = np.random.default_rng(42)
        q = p / (p - 1.0)
        for _ in range(20):
            f = Field(grid, rng.standard_normal(grid.shape))
            g = Field(grid, rng.standard_normal(grid.shape))
            pairing = abs(float(np.sum(f.values * g.values)) * grid.cell_volume)
            assert pairing <= lp_norm(f, p) * lp_norm(g, q) * (1 + 1e-12)


class TestSobolevNorms:
    def test_eigenvector_full_order(self):
        grid = make_grid(euclidean(1), np.pi, 32)
        R = build_euclidean_laplacian(grid)
        h = grid.spacings[0]
        m = 2
        lam = 4.0 / h**2 * np.sin(m * h / 2.0) ** 2
        v = Field.from_function(grid, lambda x: np.sin(m * x))
        full = Field(grid, spectral_map(R, lambda w: w)(v.flat).reshape(grid.shape))
        assert lp_norm(full, 2) == pytest.approx(lam * lp_norm(v, 2), rel=1e-10)

    def test_constant_has_zero_seminorm(self):
        # zero up to eigh rounding, which leaks O(eps * sqrt(lam_max)) of the
        # kernel mode into the rest of the spectrum
        grid = make_grid(heisenberg1(), 1.0, 6)
        R = build_heisenberg_sublaplacian(grid)
        f = Field(grid, np.full(grid.shape, 4.0))
        lam_max = R.eigensystem()[0].max()
        floor = 1e-7 * math.sqrt(lam_max) * lp_norm(f, 2)
        half = Field(grid, spectral_map(R, np.sqrt)(f.flat).reshape(grid.shape))
        assert lp_norm(half, 2) <= floor
