"""Rockland operator assembly and spectral calculus tests."""

import math
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from gradedheat import operators
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


def dense_eigensystem(op):
    """Reference spectrum: a dense eigh of the whole matrix, clamped at zero."""
    w, v = np.linalg.eigh(op.matrix.toarray())
    return np.maximum(w, 0.0), v


def block_multiplicities(n_c):
    """How often each rfft frequency's eigenvalues occur in the spectrum of R."""
    mult = np.full(n_c // 2 + 1, 2)
    mult[0] = 1
    if n_c % 2 == 0:
        mult[-1] = 1
    return mult


@pytest.fixture(scope="module", params=[
    (heisenberg1(), (8, 8, 12)),
    (heisenberg1(), (12, 12, 12)),
    (euclidean(2), (16, 10)),
    (euclidean(1), (64,)),
], ids=["h1-8x8x12", "h1-12^3", "r2-16x10", "r1-64"])
def block_and_dense(request):
    group, points = request.param
    op = build_rockland(make_grid(group, 1.5, points))
    return op, dense_eigensystem(op)


class TestBlockSpectralCalculus:
    # the per-frequency spectral calculus against a dense eigh of the whole
    # operator, kept here as the independent reference

    def test_eigensystem_shapes(self, block_and_dense):
        op, _ = block_and_dense
        n_c = op.grid.points[-1]
        m = op.grid.size // n_c
        w, v = op.eigensystem()
        assert w.shape == (n_c // 2 + 1, m)
        assert v.shape == (n_c // 2 + 1, m, m)
        assert op.eigensystem() is op.eigensystem()

    def test_spectrum_matches_dense(self, block_and_dense):
        op, (w_dense, _) = block_and_dense
        w, _ = op.eigensystem()
        spectrum = np.sort(np.repeat(w, block_multiplicities(op.grid.points[-1]), axis=0),
                           axis=None)
        assert spectrum.size == op.grid.size
        np.testing.assert_allclose(spectrum, w_dense, rtol=0, atol=1e-12 * w_dense[-1])

    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0])
    def test_semigroup_matches_dense(self, t, block_and_dense):
        op, (w, v) = block_and_dense
        for f in random_fields(op.grid, 3, seed=30):
            want = v @ (np.exp(-t * w) * (v.T @ f.flat))
            got = semigroup_apply(op, t, f).flat
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_full_power_matches_apply(self, block_and_dense):
        op, _ = block_and_dense
        for f in random_fields(op.grid, 3, seed=31):
            want = op.apply(f).flat
            got = fractional_power(op, 1.0, f).flat
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_half_power_matches_dense(self, block_and_dense):
        # eigenvalues that are zero in exact arithmetic come out as +-eps *
        # lambda_max in either decomposition, and their square roots differ by
        # up to sqrt(eps * lambda_max): that is the absolute floor (the 8
        # near-zero modes of the H1 stencil leave about 1e-9 relative)
        op, (w, v) = block_and_dense
        for f in random_fields(op.grid, 3, seed=32):
            want = v @ (np.sqrt(w) * (v.T @ f.flat))
            got = fractional_power(op, 0.5, f).flat
            floor = math.sqrt(np.finfo(float).eps * w[-1]) * np.abs(f.flat).max()
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=floor)


class TestSpectralLimit:
    # the limit caps the size of one central-frequency block, and it is
    # checked before the blocks are read or decomposed
    @pytest.fixture
    def no_blocks(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("blocks were built before the limit was checked")
        monkeypatch.setattr(operators, "_central_blocks", refuse)

    def test_dof_limit_enforced(self, no_blocks, monkeypatch):
        R = build_rockland(make_grid(heisenberg1(), 1.5, 8))  # 64-dof blocks
        monkeypatch.setattr(operators, "SPECTRAL_DOF_LIMIT", 32)
        with pytest.raises(CapabilityError, match="smaller grid"):
            R.eigensystem()

    def test_resolvent_blocks_limit_enforced(self, no_blocks, monkeypatch):
        # the H1 CG preconditioner inverts the same dense blocks
        R = build_rockland(make_grid(heisenberg1(), 1.5, 8))  # 64-dof blocks
        monkeypatch.setattr(operators, "SPECTRAL_DOF_LIMIT", 32)
        with pytest.raises(CapabilityError, match="smaller grid"):
            R.resolvent(0.1, np.zeros(R.grid.size))

    def test_euclidean_resolvent_builds_no_blocks(self, no_blocks, monkeypatch):
        # on R^d the resolvent is a Fourier multiplier, so the limit is moot
        R = build_euclidean_laplacian(make_grid(euclidean(2), 1.0, 8))
        monkeypatch.setattr(operators, "SPECTRAL_DOF_LIMIT", 4)
        b = np.random.default_rng(5).standard_normal(R.grid.size)
        x = R.resolvent(0.1, b)
        np.testing.assert_allclose(x + 0.1 * (R.matrix @ x), b, rtol=0, atol=1e-12)

    def test_default_limit_refuses_large_grids(self, no_blocks):
        grid = make_grid(euclidean(2), 1.0, (6004, 4))  # 6004-dof blocks > 6000
        R = build_euclidean_laplacian(grid)
        with pytest.raises(CapabilityError, match="smaller grid"):
            semigroup_apply(R, 0.1, Field.zeros(grid))

    def test_large_grid_with_small_blocks(self):
        # 9216 dof, refused by the former whole-grid limit: 96-dof blocks now
        grid = make_grid(euclidean(2), np.pi, 96)
        R = build_euclidean_laplacian(grid)
        h = grid.spacings[0]
        i, j, t = 3, 5, 0.05
        lam = [4.0 / h**2 * np.sin(m * h / 2.0) ** 2 for m in (i, j)]
        mode = Field.from_function(grid, lambda x, y: np.sin(i * x) * np.sin(j * y))
        out = semigroup_apply(R, t, mode)
        np.testing.assert_allclose(out.values, np.exp(-t * sum(lam)) * mode.values,
                                   rtol=0, atol=1e-12)


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

    @pytest.mark.parametrize("use", [
        lambda op: op.eigensystem(),
        lambda op: semigroup_apply(op, 0.1, Field.zeros(op.grid)),
        lambda op: op.resolvent(0.1, np.ones(op.grid.size)),
    ], ids=["eigensystem", "semigroup_apply", "resolvent"])
    def test_rejects_operator_varying_along_last_axis(self, use):
        grid = make_grid(euclidean(1), 1.0, 16)
        weights = np.linspace(1.0, 2.0, grid.size)
        op = DiscreteRockland(grid, build_euclidean_laplacian(grid).matrix + sp.diags(weights),
                              name="weighted")
        with pytest.raises(CapabilityError, match="translations"):
            use(op)

    def test_multiplier_cached_per_dt_on_r2(self):
        # on R^d the resolvent is the multiplier 1/(1 + dt lambda) on the
        # rfftn grid, lambda the 3-point symbol summed over the axes
        grid = make_grid(euclidean(2), 1.5, (16, 10))
        op = build_rockland(grid)
        inverse = op._resolvent_blocks(0.125)
        assert inverse is op._resolvent_blocks(0.125)
        assert inverse is not op._resolvent_blocks(0.25)
        assert inverse.shape == (16, 6) and inverse.dtype == float
        lam = [4.0 / h**2 * np.sin(np.pi * np.arange(n) / n) ** 2
               for n, h in zip(grid.points, grid.spacings)]
        want = 1.0 / (1.0 + 0.125 * (lam[0][:, None] + lam[1][None, :6]))
        np.testing.assert_allclose(inverse, want, rtol=1e-13)

    @pytest.mark.parametrize("points", [(32,), (16, 10)], ids=["r1", "r2"])
    def test_abelian_grid_builds_no_blocks(self, monkeypatch, points):
        def refuse(*args):
            raise AssertionError("central-frequency blocks built on an abelian grid")
        monkeypatch.setattr(operators, "_central_blocks", refuse)
        op = build_rockland(make_grid(euclidean(len(points)), 1.5, points))
        x = np.random.default_rng(7).standard_normal(op.grid.size)
        b = x + 0.05 * (op.matrix @ x)
        np.testing.assert_allclose(op.resolvent(0.05, b), x, rtol=0, atol=1e-12)

    def test_rejects_2d_operator_with_varying_diagonal(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("central-frequency blocks built on an abelian grid")
        monkeypatch.setattr(operators, "_central_blocks", refuse)
        grid = make_grid(euclidean(2), 1.0, (12, 8))
        weights = np.linspace(1.0, 2.0, grid.size)
        op = DiscreteRockland(grid, build_euclidean_laplacian(grid).matrix + sp.diags(weights),
                              name="weighted")
        with pytest.raises(CapabilityError, match="translations"):
            op.resolvent(0.1, np.ones(grid.size))

    def test_nonpositive_step_rejected(self, sub8):
        with pytest.raises(ValueError):
            sub8.resolvent(0.0, np.ones(sub8.grid.size))
