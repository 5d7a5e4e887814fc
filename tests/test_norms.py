"""Norm and embedding-ratio tests."""

import math

import numpy as np
import pytest

from gradedheat.errors import DegenerateFieldError
from gradedheat.groups import Field, euclidean, heisenberg1, make_grid
from gradedheat.norms import embedding_ratio, homogeneous_sobolev_norm, hs_norm, lp_norm
from gradedheat.operators import build_euclidean_laplacian, build_heisenberg_sublaplacian


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
    def test_order_zero_is_l2(self):
        grid = make_grid(euclidean(1), np.pi, 32)
        R = build_euclidean_laplacian(grid)
        f = Field.from_function(grid, lambda x: 1.0 + np.sin(x))
        assert homogeneous_sobolev_norm(f, 0.0, R) == pytest.approx(lp_norm(f, 2), rel=1e-12)

    def test_eigenvector_full_order(self):
        grid = make_grid(euclidean(1), np.pi, 32)
        R = build_euclidean_laplacian(grid)
        h = grid.spacings[0]
        m = 2
        lam = 4.0 / h**2 * np.sin(m * h / 2.0) ** 2
        v = Field.from_function(grid, lambda x: np.sin(m * x))
        assert homogeneous_sobolev_norm(v, R.nu, R) == pytest.approx(lam * lp_norm(v, 2), rel=1e-10)

    def test_constant_has_zero_seminorm(self):
        # zero up to eigh rounding, which leaks O(eps * sqrt(lam_max)) of the
        # kernel mode into the rest of the spectrum
        grid = make_grid(heisenberg1(), 1.0, 6)
        R = build_heisenberg_sublaplacian(grid)
        f = Field(grid, np.full(grid.shape, 4.0))
        lam_max = R.eigensystem()[0].max()
        floor = 1e-7 * math.sqrt(lam_max) * lp_norm(f, 2)
        assert homogeneous_sobolev_norm(f, 1.0, R) <= floor

    def test_hs_norm_of_constant(self, unit_box):
        R = build_euclidean_laplacian(unit_box)
        f = Field(unit_box, np.full(unit_box.shape, -3.0))
        assert hs_norm(f, 1.0, R) == pytest.approx(3.0, abs=1e-5)

    def test_hs_order_zero_doubles_l2(self):
        grid = make_grid(euclidean(1), 1.0, 16)
        R = build_euclidean_laplacian(grid)
        f = Field.from_function(grid, lambda x: np.cos(np.pi * x))
        assert hs_norm(f, 0.0, R) == pytest.approx(2 * lp_norm(f, 2), rel=1e-12)

    def test_hs_dominates_l2(self):
        grid = make_grid(euclidean(1), 1.0, 16)
        R = build_euclidean_laplacian(grid)
        rng = np.random.default_rng(9)
        for _ in range(10):
            f = Field(grid, rng.standard_normal(grid.shape))
            assert hs_norm(f, 1.0, R) >= lp_norm(f, 2)


def _gaussian_bump(grid, center, width):
    axes = grid.broadcast_axes()
    r2 = sum((ax - c) ** 2 for ax, c in zip(axes, center))
    return Field(grid, np.broadcast_to(np.exp(-r2 / width**2), grid.shape))


class TestEmbeddingRatio:
    def test_balance_violation_rejected(self):
        grid = make_grid(euclidean(1), 1.0, 16)
        R = build_euclidean_laplacian(grid)
        f = _gaussian_bump(grid, (0.0,), 0.4)
        with pytest.raises(ValueError, match="balance"):
            embedding_ratio(f, 2.0, 4.0, 1.0, 0.0, R)  # Q=1 forces b-a=1/4

    def test_exponent_ordering_rejected(self):
        grid = make_grid(euclidean(1), 1.0, 16)
        R = build_euclidean_laplacian(grid)
        f = _gaussian_bump(grid, (0.0,), 0.4)
        with pytest.raises(ValueError):
            embedding_ratio(f, 4.0, 2.0, 0.25, 0.0, R)

    def test_zero_field_rejected(self):
        grid = make_grid(euclidean(1), 1.0, 16)
        R = build_euclidean_laplacian(grid)
        with pytest.raises(DegenerateFieldError):
            embedding_ratio(Field.zeros(grid), 2.0, 4.0, 0.25, 0.0, R)

    def test_heisenberg_ratios_finite(self):
        # Q = 4: with a=0, b=nu/2=1 the balance needs 1/q~0 - 1/q0 = 1/4
        grid = make_grid(heisenberg1(), 1.0, 10)
        R = build_heisenberg_sublaplacian(grid)
        rng = np.random.default_rng(17)
        ratios = []
        for _ in range(20):
            center = rng.uniform(-0.4, 0.4, size=3)
            width = rng.uniform(0.2, 0.5)
            f = _gaussian_bump(grid, center, width)
            r = embedding_ratio(f, 2.0, 4.0, 1.0, 0.0, R)
            assert math.isfinite(r) and r > 0
            ratios.append(r)
        assert max(ratios) < 1e3

    def test_dilated_family_is_roughly_scale_invariant(self):
        # the balance condition makes the continuum ratio exactly
        # dilation-invariant; discretely it should move by less than 2x
        grid = make_grid(euclidean(1), 4.0, 128)
        R = build_euclidean_laplacian(grid)
        ratios = {}
        for r in (0.5, 1.0, 2.0):
            f = Field.from_function(grid, lambda x: np.exp(-((r * x) ** 2) / 1.5**2))
            ratios[r] = embedding_ratio(f, 2.0, 4.0, 0.25, 0.0, R)
        for r in (0.5, 2.0):
            assert 0.5 < ratios[r] / ratios[1.0] < 2.0

    def test_family_maximum_stable_under_refinement(self):
        # deterministic 50-function family sampled on n=32 and n=64
        rng = np.random.default_rng(23)
        coeffs = rng.standard_normal((50, 2, 4))
        maxima = {}
        for n in (32, 64):
            grid = make_grid(euclidean(1), np.pi, n)
            R = build_euclidean_laplacian(grid)
            worst = 0.0
            for cs, cc in zip(coeffs[:, 0], coeffs[:, 1]):
                def fn(x, cs=cs, cc=cc):
                    return sum(
                        cs[m] * np.sin((m + 1) * x) + cc[m] * np.cos((m + 1) * x)
                        for m in range(4)
                    )
                f = Field.from_function(grid, fn)
                worst = max(worst, embedding_ratio(f, 2.0, 4.0, 0.25, 0.0, R))
            maxima[n] = worst
        assert abs(maxima[64] / maxima[32] - 1.0) <= 0.25
