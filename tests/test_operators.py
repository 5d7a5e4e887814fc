"""Rockland operator assembly and spectral calculus tests."""

import math
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from gradedheat import operators
from gradedheat.errors import CapabilityError, StabilityError
from gradedheat.groups import Field, euclidean, heisenberg1, make_grid
from gradedheat.operators import (
    DiscreteRockland,
    build_euclidean_laplacian,
    build_heisenberg_sublaplacian,
    build_rockland,
    semigroup_apply,
    spectral_map,
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


def spectral_field(op, g, f):
    """g(R) f through spectral_map, as a field."""
    return Field(op.grid, spectral_map(op, g)(f.flat).reshape(op.grid.shape))


class TestFractionalPower:
    # powers of R, g(w) = w**s, through the one spectral path
    def test_full_power_matches_apply(self, lap64):
        for f in random_fields(lap64.grid, 5, seed=11):
            direct = lap64.apply(f)
            spectral = spectral_field(lap64, lambda w: w, f)
            scale = np.abs(direct.values).max()
            np.testing.assert_allclose(spectral.values, direct.values, atol=1e-10 * scale)

    def test_half_power_squares_to_operator(self):
        grid = make_grid(euclidean(1), 1.0, 32)
        R = build_euclidean_laplacian(grid)
        for f in random_fields(grid, 20, seed=12):
            twice = spectral_field(R, np.sqrt, spectral_field(R, np.sqrt, f))
            direct = R.apply(f)
            scale = np.abs(direct.values).max()
            np.testing.assert_allclose(twice.values, direct.values, atol=1e-8 * scale)

    def test_quad_form_matches_half_power_norm(self, sub8):
        # <R f, f> = ||R^{1/2} f||^2 in the volume-weighted inner product
        grid = sub8.grid
        for f in random_fields(grid, 10, seed=13):
            half = spectral_field(sub8, np.sqrt, f)
            norm_sq = float(np.sum(half.values**2)) * grid.cell_volume
            assert sub8.quad_form(f) == pytest.approx(norm_sq, rel=1e-10, abs=1e-12)


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
        # spectral_map is the semigroup's own path, so it agrees bit for bit
        op, (w, v) = block_and_dense
        decay = spectral_map(op, lambda w: np.exp(-t * w))
        for f in random_fields(op.grid, 3, seed=30):
            want = v @ (np.exp(-t * w) * (v.T @ f.flat))
            got = semigroup_apply(op, t, f).flat
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
            assert np.array_equal(decay(f.flat), got)

    def test_full_power_matches_apply(self, block_and_dense):
        op, _ = block_and_dense
        for f in random_fields(op.grid, 3, seed=31):
            want = op.apply(f).flat
            got = spectral_field(op, lambda w: w, f).flat
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_half_power_matches_dense(self, block_and_dense):
        # eigenvalues that are zero in exact arithmetic come out as +-eps *
        # lambda_max in either decomposition, and their square roots differ by
        # up to sqrt(eps * lambda_max): that is the absolute floor (the 8
        # near-zero modes of the H1 stencil leave about 1e-9 relative)
        op, (w, v) = block_and_dense
        for f in random_fields(op.grid, 3, seed=32):
            want = v @ (np.sqrt(w) * (v.T @ f.flat))
            got = spectral_field(op, np.sqrt, f).flat
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

    @pytest.mark.parametrize("call", ["eigensystem", "resolvent"])
    def test_blocks_beyond_physical_memory_refused(self, monkeypatch, call):
        # 5 blocks of 64 dof and their eigenvectors, 2 * 5 * 64^2 complex128; or
        # the same 5 blocks and the 5 offsets of their coupling table
        R = build_rockland(make_grid(heisenberg1(), 1.5, 8))
        run = R.eigensystem if call == "eigensystem" else lambda: R.resolvent(0.1, np.zeros(512))
        with monkeypatch.context() as m:
            m.setattr(operators, "_physical_memory", lambda: 655360 - 1)
            m.setattr(operators, "_central_blocks", lambda *args: pytest.fail(
                "blocks were built before their memory was checked"))
            with pytest.raises(CapabilityError, match=r"^5 dense central-frequency blocks of "
                               rf"64 dof for the {call} need 655360 bytes"):
                run()
        monkeypatch.setattr(operators, "_physical_memory", lambda: 655360)
        run()  # a block set that just fits is built

    def test_in_place_resolvent_counts_one_block_set(self, monkeypatch):
        # 9 blocks of 64 dof: the eigensystem needs two sets, 1179648 bytes;
        # the resolvent one set and the 5 offsets of the coupling table,
        # 917504 bytes
        grid = make_grid(heisenberg1(), 1.5, (8, 8, 16))
        monkeypatch.setattr(operators, "_physical_memory", lambda: 1_000_000)
        build_rockland(grid).resolvent(0.1, np.zeros(grid.size))
        monkeypatch.setattr(operators, "_central_blocks", lambda *args: pytest.fail(
            "blocks were built before their memory was checked"))
        with pytest.raises(CapabilityError, match=r"^9 dense central-frequency blocks of "
                           r"64 dof for the eigensystem need 1179648 bytes, more than"):
            build_rockland(grid).eigensystem()

    @pytest.mark.parametrize("first, second", [("eigensystem", "resolvent"),
                                               ("resolvent", "eigensystem")])
    def test_cached_blocks_count_against_physical_memory(self, monkeypatch, first, second):
        # one set of 5 blocks of 64 dof is 327680 bytes, and so is the
        # coupling table of their 5 offsets; a build needs two sets (the
        # eigensystem) or one and the table (the resolvent), and the
        # operator keeps one set (the eigenvectors, with 2560 bytes of
        # eigenvalues, or the inverse), so a second build needs more than 3
        # sets where 2.5 are at hand
        R = build_rockland(make_grid(heisenberg1(), 1.5, 8))
        block_set = 5 * 64**2 * 16
        calls = {"eigensystem": R.eigensystem,
                 "resolvent": lambda: R.resolvent(0.1, np.zeros(R.grid.size))}
        monkeypatch.setattr(operators, "_physical_memory", lambda: 5 * block_set // 2)
        calls[first]()
        cached = block_set + (5 * 64 * 8 if first == "eigensystem" else 0)
        monkeypatch.setattr(operators, "_central_blocks", lambda *args: pytest.fail(
            "blocks were built before their memory was checked"))
        with pytest.raises(CapabilityError, match=f"need {2 * block_set + cached} bytes with "
                           f"the {cached} bytes this operator caches, more than the "
                           f"{5 * block_set // 2} bytes"):
            calls[second]()

    # on 8.2 GB the block limit alone admits 257 H1 blocks of 4096^2 (69 GB) and 33 on R^3
    # (8.9 GB); an identity stands in for the H1 operator, whose blocks are never read
    @pytest.mark.parametrize("grid, matrix, need", [
        (make_grid(heisenberg1(), 1.5, (64, 64, 512)), "identity", 2 * 257 * 4096**2 * 16),
        (make_grid(euclidean(3), 1.0, 64), "laplacian", 2 * 33 * 4096**2 * 16),
    ], ids=["heisenberg1-64x64x512", "euclidean3-64^3"])
    def test_large_block_sets_refused(self, no_blocks, monkeypatch, grid, matrix, need):
        monkeypatch.setattr(operators, "_physical_memory", lambda: 8_200_000_000)
        R = (DiscreteRockland(grid, sp.identity(grid.size, format="csr"), "identity")
             if matrix == "identity" else build_euclidean_laplacian(grid))
        with pytest.raises(CapabilityError, match=f"need {need} bytes, more than the "
                           "8200000000 bytes of physical memory"):
            R.eigensystem()

    def test_package_exports_no_copy_of_the_limit(self):
        # a package-level copy bound at import would not move the cap every call reads
        import gradedheat
        assert not hasattr(gradedheat, "SPECTRAL_DOF_LIMIT")
        assert "SPECTRAL_DOF_LIMIT" not in gradedheat.__all__

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

    @pytest.mark.parametrize("shape", [(256,), (40, 24), (16, 16, 16), (12, 10, 8)],
                             ids=["256", "40x24", "16^3", "12x10x8"])
    def test_multiplier_has_the_bits_of_rfftn(self, shape):
        # the in-place passes run in numpy's own axis order; any other order
        # changes the bits on R^3
        rng = np.random.default_rng(8)
        values = rng.standard_normal(shape)
        multiplier = rng.standard_normal(shape[:-1] + (shape[-1] // 2 + 1,))
        axes = range(len(shape))
        want = np.fft.irfftn(np.fft.rfftn(values, axes=axes) * multiplier, s=shape, axes=axes)
        got = operators._apply_multiplier(multiplier, values.ravel(), shape)
        np.testing.assert_array_equal(got, want.ravel())


class TestSupportResolvent:
    # the map of values on cells to the resolvent of their scatter: on R^2
    # the same scatter and multiplier as resolvent, on H1 a product with the
    # cells' columns of the inverse blocks instead of the whole blocks
    @pytest.mark.parametrize("group, points", [
        (euclidean(2), (40, 24)),
        (heisenberg1(), (8, 8, 16)),
        (heisenberg1(), (12, 12, 12)),
    ], ids=["r2", "h1-8x8x16", "h1-12^3"])
    def test_matches_the_resolvent_of_the_scatter(self, group, points):
        op = build_rockland(make_grid(group, 1.5, points))
        rng = np.random.default_rng(9)
        cells = np.sort(rng.choice(op.grid.size, 150, replace=False))
        apply, _ = op.support_resolvent(1.0 / 32, cells)
        for _ in range(2):  # the scatter buffer is reused
            values = rng.standard_normal(cells.size)
            scattered = np.zeros(op.grid.size)
            scattered[cells] = values
            want = op.resolvent(1.0 / 32, scattered)
            got = apply(values)
            if group.is_abelian:
                np.testing.assert_array_equal(got, want)
            else:
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_inverse_blocks_are_hermitian_and_invert(self, sub8):
        # zpotri writes one triangle; the other is its mirror
        inverse = sub8._resolvent_blocks(0.1)
        np.testing.assert_array_equal(inverse, inverse.conj().transpose(0, 2, 1))
        blocks = operators._central_blocks(sub8.matrix, sub8.grid.points[-1])
        eye = np.eye(blocks.shape[1])
        np.testing.assert_allclose(np.matmul(eye + 0.1 * blocks, inverse),
                                   np.broadcast_to(eye, blocks.shape), rtol=0, atol=1e-13)


class TestLapackThreadHold:
    # the H1 inverse blocks are factorised on one scipy OpenBLAS thread, and
    # the count that was there comes back, after a refused build too
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["sub-Laplacian", "negated"])
    def test_blocks_are_inverted_on_one_thread(self, monkeypatch, sign):
        import scipy.linalg.lapack

        setter = operators._lapack_thread_setter()
        if setter is None:
            pytest.skip("scipy's BLAS exports no openblas_set_num_threads_local")

        def count():
            threads = setter(1)
            setter(threads)
            return threads

        seen, zpotrf = [], scipy.linalg.lapack.zpotrf
        monkeypatch.setattr(scipy.linalg.lapack, "zpotrf", lambda *args, **kwargs: (
            seen.append(count()) or zpotrf(*args, **kwargs)))
        grid = make_grid(heisenberg1(), 1.5, 8)
        op = DiscreteRockland(grid, sign * build_rockland(grid).matrix, "sub-Laplacian")
        before = count()
        if sign > 0:
            op.resolvent(0.1, np.zeros(grid.size))
            assert len(seen) == 5
        else:
            with pytest.raises(StabilityError, match="central frequency"):
                op.resolvent(1.0, np.zeros(grid.size))
            assert seen
        assert set(seen) == {1}
        assert count() == before


class TestGreenRows:
    # the rows of G = (I + dt R)^{-1} between cells equal the inverse
    # restricted to them, whose columns a sparse LU gives.  The R^2 grid is
    # not square and the H1 blocks are complex, so a transposed index or a
    # wrong sign of c - c' fails.
    @pytest.mark.parametrize("chunk_bytes", [None, 1], ids=["default", "row-by-row"])
    @pytest.mark.parametrize("group, points", [
        (euclidean(2), (40, 24)),
        (euclidean(3), (8, 6, 10)),
        (heisenberg1(), (8, 8, 16)),
        (heisenberg1(), (12, 12, 24)),
    ], ids=["r2", "r3", "h1-8", "h1-12"])
    def test_rows_match_the_dense_inverse(self, monkeypatch, group, points, chunk_bytes):
        if chunk_bytes is not None:
            monkeypatch.setattr(operators, "_GREEN_CHUNK_BYTES", chunk_bytes)
        op = build_rockland(make_grid(group, 1.5, points))
        g = op.grid
        dt = 1.0 / 32
        cells = np.sort(np.random.default_rng(8).choice(g.size, 150, replace=False))
        system = sp.identity(g.size, format="csc") + dt * op.matrix.tocsc()
        columns = splu(system.tocsc()).solve(np.eye(g.size)[:, cells])
        chunks = list(op.green_rows(dt, cells))
        if chunk_bytes is not None:
            assert [len(rows) for rows in chunks] == [1] * len(cells)
        np.testing.assert_allclose(np.vstack(chunks), columns[cells], rtol=0, atol=1e-13)

    def test_no_cells_no_rows(self, sub8):
        assert list(sub8.green_rows(0.1, np.array([], dtype=int))) == []
