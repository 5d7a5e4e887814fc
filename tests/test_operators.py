"""Rockland operator assembly and spectral calculus tests."""

import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from gradedheat.errors import CapabilityError
from gradedheat.groups import Field, euclidean, heisenberg1, make_grid
from gradedheat.operators import (
    DiscreteRockland,
    build_euclidean_laplacian,
    build_heisenberg_sublaplacian,
    build_rockland,
    fractional_power,
    semigroup_apply,
)


def random_fields(grid, count, seed):
    rng = np.random.default_rng(seed)
    return [Field(grid, rng.standard_normal(grid.shape)) for _ in range(count)]


@pytest.fixture(scope="module")
def lap64():
    return build_euclidean_laplacian(make_grid(euclidean(1), np.pi, 64))


@pytest.fixture(scope="module")
def sub8():
    return build_heisenberg_sublaplacian(make_grid(heisenberg1(), 1.5, 8))


class TestEuclideanAssembly:
    def test_stencil_row_with_wraparound(self):
        grid = make_grid(euclidean(1), 2.0, 4)  # h = 1
        R = build_euclidean_laplacian(grid).matrix.toarray()
        np.testing.assert_allclose(R[0], [2.0, -1.0, 0.0, -1.0])
        np.testing.assert_allclose(R[2], [0.0, -1.0, 2.0, -1.0])

    def test_constants_in_kernel(self):
        grid = make_grid(euclidean(2), 1.0, 8)
        R = build_euclidean_laplacian(grid)
        out = R.apply(Field(grid, np.full(grid.shape, 3.7)))
        np.testing.assert_allclose(out.values, 0.0, atol=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_sine_eigenvector_symbol(self, m, lap64):
        # discrete symbol of the periodic 3-point stencil, derived by hand:
        # sin(m x) is an exact eigenvector with eigenvalue (4/h^2) sin^2(m h / 2)
        grid = lap64.grid
        h = grid.spacings[0]
        v = Field.from_function(grid, lambda x: np.sin(m * x))
        expected = 4.0 / h**2 * np.sin(m * h / 2.0) ** 2
        out = lap64.apply(v)
        np.testing.assert_allclose(out.values, expected * v.values, atol=1e-10 * expected)

    def test_wrong_group_rejected(self):
        grid = make_grid(heisenberg1(), 1.0, 4)
        with pytest.raises(ValueError):
            build_euclidean_laplacian(grid)


class TestHeisenbergAssembly:
    def test_constants_in_kernel(self, sub8):
        grid = sub8.grid
        out = sub8.apply(Field(grid, np.full(grid.shape, -1.3)))
        np.testing.assert_allclose(out.values, 0.0, atol=1e-12)

    def test_central_independence_reduces_to_plane_stencil(self, sub8):
        # on fields constant in c the d_c terms drop and R acts as the
        # squared centred differences in a and b
        grid = sub8.grid
        rng = np.random.default_rng(3)
        plane = rng.standard_normal(grid.shape[:2])
        f = Field(grid, np.repeat(plane[:, :, None], grid.shape[2], axis=2))
        out = sub8.apply(f)
        ha, hb = grid.spacings[0], grid.spacings[1]
        wide_a = (2 * plane - np.roll(plane, 2, axis=0) - np.roll(plane, -2, axis=0)) / (2 * ha) ** 2
        wide_b = (2 * plane - np.roll(plane, 2, axis=1) - np.roll(plane, -2, axis=1)) / (2 * hb) ** 2
        expected = wide_a + wide_b
        for k in range(grid.shape[2]):
            np.testing.assert_allclose(out.values[:, :, k], expected, atol=1e-11)

    def test_commutes_with_central_translations(self, sub8):
        # rolling along the centre axis is an exact group translation
        grid = sub8.grid
        rng = np.random.default_rng(4)
        f = rng.standard_normal(grid.shape)
        lhs = sub8.apply(Field(grid, np.roll(f, 3, axis=2))).values
        rhs = np.roll(sub8.apply(Field(grid, f)).values, 3, axis=2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_positive_semidefinite_spectrum(self):
        grid = make_grid(heisenberg1(), 1.0, (12, 12, 12))
        R = build_heisenberg_sublaplacian(grid)
        w = np.linalg.eigvalsh(R.matrix.toarray())
        assert w[0] >= -1e-10 * w[-1]

    def test_exactly_symmetric(self, sub8):
        skew = abs(sub8.matrix - sub8.matrix.T).max()
        assert skew <= 1e-14 * abs(sub8.matrix).max()

    def test_build_rockland_dispatch(self):
        assert build_rockland(make_grid(euclidean(1), 1.0, 8)).name.startswith("laplacian")
        assert build_rockland(make_grid(heisenberg1(), 1.0, 4)).name.startswith("sublaplacian")


class TestFractionalPower:
    def test_zero_power_is_identity_including_kernel(self, lap64):
        # 0**0 = 1: the constant mode survives s = 0
        f = Field.from_function(lap64.grid, lambda x: 1.0 + np.sin(x))
        out = fractional_power(lap64, 0.0, f)
        np.testing.assert_allclose(out.values, f.values, atol=1e-12)

    def test_full_power_matches_apply(self, lap64):
        for f in random_fields(lap64.grid, 5, seed=11):
            direct = lap64.apply(f)
            spectral = fractional_power(lap64, 1.0, f)
            scale = np.abs(direct.values).max()
            np.testing.assert_allclose(spectral.values, direct.values, atol=1e-10 * scale)

    def test_half_power_squares_to_operator(self):
        grid = make_grid(euclidean(1), 1.0, 32)
        R = build_euclidean_laplacian(grid)
        for f in random_fields(grid, 20, seed=12):
            twice = fractional_power(R, 0.5, fractional_power(R, 0.5, f))
            direct = R.apply(f)
            scale = np.abs(direct.values).max()
            np.testing.assert_allclose(twice.values, direct.values, atol=1e-8 * scale)

    def test_quad_form_matches_half_power_norm(self, sub8):
        # <R f, f> = ||R^{1/2} f||^2 in the volume-weighted inner product
        grid = sub8.grid
        for f in random_fields(grid, 10, seed=13):
            half = fractional_power(sub8, 0.5, f)
            norm_sq = float(np.sum(half.values**2)) * grid.cell_volume
            assert sub8.quad_form(f) == pytest.approx(norm_sq, rel=1e-10, abs=1e-12)

    def test_negative_exponent_rejected(self, lap64):
        with pytest.raises(ValueError):
            fractional_power(lap64, -0.5, Field.zeros(lap64.grid))


class TestSemigroup:
    def test_time_zero_is_identity(self, lap64):
        f = random_fields(lap64.grid, 1, seed=20)[0]
        out = semigroup_apply(lap64, 0.0, f)
        np.testing.assert_allclose(out.values, f.values, atol=1e-12)

    def test_constants_are_preserved(self, lap64):
        f = Field(lap64.grid, np.full(lap64.grid.shape, 2.5))
        out = semigroup_apply(lap64, 1.0, f)
        np.testing.assert_allclose(out.values, 2.5, rtol=1e-12)

    def test_eigenvector_decay_factor(self, lap64):
        grid = lap64.grid
        h = grid.spacings[0]
        m = 3
        lam = 4.0 / h**2 * np.sin(m * h / 2.0) ** 2
        v = Field.from_function(grid, lambda x: np.sin(m * x))
        out = semigroup_apply(lap64, 0.25, v)
        np.testing.assert_allclose(out.values, np.exp(-0.25 * lam) * v.values, atol=1e-12)

    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0])
    def test_l2_contraction(self, t, lap64, sub8):
        # discrete mirror of the L1 bound ||h_t|| <= 1 on the kernel side
        for op in (lap64, sub8):
            for f in random_fields(op.grid, 25, seed=int(1000 * t)):
                before = np.linalg.norm(f.values)
                after = np.linalg.norm(semigroup_apply(op, t, f).values)
                assert after <= before * (1 + 1e-12)

    def test_semigroup_composition(self, sub8):
        f = random_fields(sub8.grid, 1, seed=21)[0]
        one = semigroup_apply(sub8, 0.3, semigroup_apply(sub8, 0.2, f))
        combined = semigroup_apply(sub8, 0.5, f)
        scale = np.abs(f.values).max()
        np.testing.assert_allclose(one.values, combined.values, atol=1e-10 * scale)

    def test_negative_time_rejected(self, lap64):
        with pytest.raises(ValueError):
            semigroup_apply(lap64, -0.1, Field.zeros(lap64.grid))


class TestSpectralLimit:
    def test_dof_limit_enforced(self):
        grid = make_grid(euclidean(1), 1.0, 64)
        R = build_euclidean_laplacian(grid)
        with pytest.raises(CapabilityError, match="smaller grid"):
            R.eigensystem(dof_limit=32)

    def test_default_limit_refuses_large_grids(self):
        grid = make_grid(euclidean(2), 1.0, 96)  # 9216 dof > 6000
        R = build_euclidean_laplacian(grid)
        with pytest.raises(CapabilityError):
            semigroup_apply(R, 0.1, Field.zeros(grid))


class TestResolvent:
    @pytest.mark.parametrize("group, points", [
        (heisenberg1(), (8, 8, 12)),
        (euclidean(2), (16, 10)),
        (euclidean(1), (32,)),
    ])
    def test_inverts_shifted_operator(self, group, points):
        op = build_rockland(make_grid(group, 1.5, points))
        dt = 0.05
        x = np.random.default_rng(5).standard_normal(op.grid.size)
        b = x + dt * (op.matrix @ x)
        np.testing.assert_allclose(op.resolvent(dt, b), x, rtol=0, atol=1e-12)

    def test_blocks_cached_per_dt(self, sub8):
        assert sub8._resolvent_blocks(0.125) is sub8._resolvent_blocks(0.125)
        assert sub8._resolvent_blocks(0.125) is not sub8._resolvent_blocks(0.25)

    def test_concurrent_callers_share_one_build(self):
        # more threads than cores and a short switch interval: a lost update
        # of the cache would hand different block arrays to different threads
        op = build_rockland(make_grid(heisenberg1(), 1.5, (8, 8, 12)))
        x = np.random.default_rng(6).standard_normal(op.grid.size)
        results = [None] * 8
        blocks = [None] * 8

        def work(i):
            blocks[i] = op._resolvent_blocks(0.1)
            results[i] = op.resolvent(0.1, x)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(b is blocks[0] for b in blocks)
        assert all(np.array_equal(r, results[0]) for r in results)

    def test_rejects_operator_varying_along_last_axis(self):
        grid = make_grid(euclidean(1), 1.0, 16)
        weights = np.linspace(1.0, 2.0, grid.size)
        op = DiscreteRockland(grid, build_euclidean_laplacian(grid).matrix + sp.diags(weights),
                              name="weighted")
        with pytest.raises(CapabilityError, match="translations"):
            op.resolvent(0.1, np.ones(grid.size))

    def test_nonpositive_step_rejected(self, sub8):
        with pytest.raises(ValueError):
            sub8.resolvent(0.0, np.ones(sub8.grid.size))
