"""Mollifier net, regularisation and convolution tests."""

import math

import numpy as np
import pytest

from gradedheat import mollify
from gradedheat.errors import ResolutionError, SupportError
from gradedheat.groups import Field, euclidean, heisenberg1, make_grid
from gradedheat.mollify import (
    EpsilonNet,
    Mollifier,
    OmegaSchedule,
    PotentialSpec,
    bump_field,
    convolve,
    discrete_integral,
    mollifier_net,
    omega,
    regularize_field,
    regularize_potential,
    unit_mass_kernel,
)

POLY = OmegaSchedule.polynomial()


def fit_slope(x, y):
    # plain least squares on log data, used as an independent check here
    X = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    return coef[1]


def node_loop_heisenberg(f, g):
    """Reference H1 convolution: one interpolated shift of g per node of supp f."""
    grid = f.grid
    na, nb, nc = grid.points
    hc = grid.spacings[2]
    ax_a, ax_b, _ = grid.axes
    IA = np.arange(na)[:, None, None]
    IB = np.arange(nb)[None, :, None]
    K = np.arange(nc)[None, None, :]
    out = np.zeros(grid.shape)
    for ia, ib, ic in np.argwhere(f.values != 0.0):
        g_ab = np.roll(g.values, (int(ia) - na // 2, int(ib) - nb // 2), axis=(0, 1))
        area = (ax_a[ia] * ax_b[None, :] - ax_b[ib] * ax_a[:, None]) / (2.0 * hc)
        z = K - ((int(ic) - nc // 2) + area)[:, :, None]
        z0 = np.floor(z)
        theta = z - z0
        z0 = z0.astype(np.int64) % nc
        z1 = (z0 + 1) % nc
        out += f.values[ia, ib, ic] * ((1.0 - theta) * g_ab[IA, IB, z0]
                                       + theta * g_ab[IA, IB, z1])
    return out * grid.cell_volume


def column_sum_heisenberg(f, g):
    """H1 convolution as the sum over the (a, b) columns of supp f of a whole-grid term each."""
    grid = f.grid
    na, nb, nc = grid.points
    hc = grid.spacings[2]
    ax_a, ax_b, _ = grid.axes
    freq = np.arange(nc // 2 + 1)
    roots = np.exp(-2j * np.pi * np.arange(nc) / nc)
    g_hat = np.fft.rfft(g.values, axis=2)
    f_hat = np.fft.rfft(f.values, axis=2) * (-1.0) ** freq
    out = np.zeros(g_hat.shape, dtype=complex)
    for ia, ib in np.argwhere(np.any(f.values != 0.0, axis=2)):
        g_ab = np.roll(g_hat, (int(ia) - na // 2, int(ib) - nb // 2), axis=(0, 1))
        s = (ax_a[ia] * ax_b[None, :] - ax_b[ib] * ax_a[:, None]) / (2.0 * hc)
        whole = np.ceil(s)
        theta = (whole - s)[:, :, None]
        turns = (whole.astype(np.int64)[:, :, None] * freq) % nc
        shift = roots[turns] * ((1.0 - theta) + theta * roots[-freq % nc])
        out += f_hat[ia, ib] * shift * g_ab
    return np.fft.irfft(out, n=nc, axis=2) * grid.cell_volume


def relative_l2(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestOmega:
    def test_polynomial_is_identity(self):
        assert omega(POLY, 0.1) == 0.1

    def test_logarithmic_examples(self):
        assert omega(OmegaSchedule.logarithmic(1), math.exp(-10)) == pytest.approx(0.1, abs=1e-12)
        assert omega(OmegaSchedule.logarithmic(2), math.exp(-8)) == pytest.approx(0.25, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            omega(POLY, 0.0)
        with pytest.raises(ValueError):
            omega(POLY, 1.5)
        with pytest.raises(ValueError):
            omega(OmegaSchedule.logarithmic(1), 1.0)

    def test_bad_schedule_rejected(self):
        with pytest.raises(ValueError):
            OmegaSchedule.logarithmic(0)
        with pytest.raises(ValueError):
            OmegaSchedule("exponential")


class TestEpsilonNet:
    def test_dyadic(self):
        net = EpsilonNet.dyadic(0.5, 4)
        assert tuple(net) == (0.5, 0.25, 0.125, 0.0625)

    def test_must_decrease(self):
        with pytest.raises(ValueError):
            EpsilonNet((0.25, 0.5))
        with pytest.raises(ValueError):
            EpsilonNet((0.5, 0.5))

    def test_range_checked(self):
        with pytest.raises(ValueError):
            EpsilonNet((1.5, 0.5))
        with pytest.raises(ValueError):
            EpsilonNet(())


def quad_radial(dim):
    from scipy.integrate import quad

    value, _ = quad(lambda r: r ** (dim - 1) * math.exp(-1.0 / (1.0 - r * r)),
                    0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
    return value


class TestUnitBallIntegral:
    def test_table_is_quads_value(self):
        # another scipy build's quad may differ in the last bits
        for dim in (1, 2, 3):
            radial = quad_radial(dim)
            assert abs(mollify._RADIAL_INTEGRAL[dim] - radial) <= 2 * math.ulp(radial), dim

    @pytest.mark.parametrize("dim, bits", [
        (1, "0x1.c6a650a045c5cp-2"),
        (2, "0x1.ddb56cbf84bb5p-2"),
        (3, "0x1.c3acce25ed9d8p-2"),
    ])
    def test_norm_const_bits_pinned(self, dim, bits):
        # norm_const as quad gave it; one ulp here moves every sampled net
        assert Mollifier(dim, 1.0).norm_const.hex() == bits

    def test_other_dimensions_call_quad(self, monkeypatch):
        import scipy.integrate

        want = 2.0 * math.pi**2 / math.gamma(2.0) * quad_radial(4)  # surface of S^3
        calls = []
        quad = scipy.integrate.quad

        def spy(*args, **kwargs):
            calls.append(args)
            return quad(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "quad", spy)
        assert Mollifier(4, 1.0).norm_const == want
        assert len(calls) == 1


class TestMollifierNet:
    def test_unit_mass_on_fine_grids(self):
        # quadrature tolerance: the bump is smooth and compactly supported,
        # so the node sum converges superalgebraically; ~32 cells across the
        # support is good for ~1e-5
        grid = make_grid(euclidean(1), 1.0, 512)
        psi = Mollifier(1, 1.0)
        for eps in (0.5, 0.25, 0.125):
            mass = discrete_integral(mollifier_net(psi, eps, POLY, grid))
            assert mass == pytest.approx(1.0, abs=1e-5)

    def test_unit_mass_heisenberg(self):
        grid = make_grid(heisenberg1(), 1.0, (32, 32, 64))
        psi = Mollifier(3, 1.0)
        for eps in (0.7, 0.5):
            mass = discrete_integral(mollifier_net(psi, eps, POLY, grid))
            assert mass == pytest.approx(1.0, abs=1e-3)

    def test_unit_mass_under_log_schedule(self):
        grid = make_grid(euclidean(2), 1.0, 128)
        psi = Mollifier(2, 1.0)
        mass = discrete_integral(mollifier_net(psi, 0.05, OmegaSchedule.logarithmic(2), grid))
        assert mass == pytest.approx(1.0, abs=1e-5)

    def test_sup_norm_scaling_formula(self):
        # peak sits at the origin node, so the sup is exactly omega^{-Q} psi(0)
        grid = make_grid(heisenberg1(), 1.0, (16, 16, 32))
        psi = Mollifier(3, 1.0)
        f = mollifier_net(psi, 0.5, POLY, grid)
        assert f.values.max() == pytest.approx(0.5**-4 * psi.peak, rel=1e-12)

    def test_linf_exponent_matches_homogeneous_dimension(self):
        # scaling-law fit on a dyadic net: slope Q to within 5 percent
        grid = make_grid(euclidean(1), 1.0, 512)
        psi = Mollifier(1, 1.0)
        xs, ys = [], []
        for eps in EpsilonNet.dyadic(1.0, 5):
            f = mollifier_net(psi, eps, POLY, grid)
            xs.append(math.log(1.0 / eps) if eps < 1 else 0.0)
            ys.append(math.log(f.values.max()))
        slope = fit_slope(np.array(xs), np.array(ys))
        assert abs(slope - 1.0) <= 0.05

    @pytest.mark.parametrize("p,expected", [(2.0, 0.5), (4.0, 0.75)])
    def test_lp_moderateness_exponent(self, p, expected):
        # ||psi_eps||_p ~ omega^{-Q(1-1/p)} for the delta net
        from gradedheat.norms import lp_norm

        grid = make_grid(euclidean(1), 1.0, 1024)
        psi = Mollifier(1, 1.0)
        xs, ys = [], []
        for eps in EpsilonNet.dyadic(0.5, 5):
            f = mollifier_net(psi, eps, POLY, grid)
            xs.append(math.log(1.0 / eps))
            ys.append(math.log(lp_norm(f, p)))
        slope = fit_slope(np.array(xs), np.array(ys))
        assert abs(slope - expected) <= 0.1 * expected

    def test_support_shrinks_strictly(self):
        grid = make_grid(euclidean(1), 1.0, 512)
        psi = Mollifier(1, 1.0)
        extents = []
        for eps in EpsilonNet.dyadic(0.5, 4):
            f = mollifier_net(psi, eps, POLY, grid)
            nz = np.flatnonzero(f.values)
            extents.append(grid.axes[0][nz.max()] - grid.axes[0][nz.min()])
        assert all(b < a for a, b in zip(extents, extents[1:]))

    def test_resolution_guard(self):
        grid = make_grid(euclidean(1), 1.0, 16)  # h = 1/8
        psi = Mollifier(1, 1.0)
        with pytest.raises(ResolutionError):
            mollifier_net(psi, 0.25, POLY, grid)  # 4 cells < 6
        # the convolution kernel has no resolution guard and samples anyway
        f = unit_mass_kernel(psi, 0.25, POLY, grid)
        assert f.values.max() > 0

    def test_support_guard(self):
        grid = make_grid(euclidean(1), 1.0, 64)
        psi = Mollifier(1, 2.0)
        with pytest.raises(SupportError):
            mollifier_net(psi, 0.9, POLY, grid)  # support 1.8 > box 1.0

    def test_dimension_mismatch(self):
        grid = make_grid(euclidean(2), 1.0, 16)
        with pytest.raises(ValueError):
            mollifier_net(Mollifier(1, 1.0), 0.5, POLY, grid)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_nonfinite_support_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="support radius"):
            Mollifier(1, radius)


class TestConvolve:
    def test_identity_spike_euclidean(self):
        grid = make_grid(euclidean(1), 1.0, 32)
        f = bump_field(grid, 0.7)
        spike = np.zeros(grid.shape)
        spike[tuple(n // 2 for n in grid.points)] = 1.0 / grid.cell_volume
        out = convolve(f, Field(grid, spike))
        np.testing.assert_allclose(out.values, f.values, atol=1e-13)

    def test_identity_spike_heisenberg(self):
        grid = make_grid(heisenberg1(), 1.0, 8)
        rng = np.random.default_rng(31)
        f = Field(grid, rng.standard_normal(grid.shape))
        spike = np.zeros(grid.shape)
        spike[tuple(n // 2 for n in grid.points)] = 1.0 / grid.cell_volume
        out = convolve(f, Field(grid, spike))
        np.testing.assert_allclose(out.values, f.values, atol=1e-12)

    def test_euclidean_matches_direct_sum(self):
        grid = make_grid(euclidean(1), 1.0, 16)
        rng = np.random.default_rng(32)
        f = Field(grid, rng.standard_normal(grid.shape))
        g = Field(grid, rng.standard_normal(grid.shape))
        n = grid.points[0]
        direct = np.zeros(n)
        for k in range(n):
            # g evaluated at x_k - y_j, whose node index is k - j + n/2
            direct[k] = sum(
                f.values[j] * g.values[(k - j + n // 2) % n] for j in range(n)
            ) * grid.cell_volume
        out = convolve(f, g)
        np.testing.assert_allclose(out.values, direct, atol=1e-12)

    def test_heisenberg_mass_preserved(self):
        # Fubini: integral of f * g equals the product of the integrals
        grid = make_grid(heisenberg1(), 1.0, 8)
        rng = np.random.default_rng(33)
        f = Field(grid, rng.standard_normal(grid.shape))
        g = bump_field(grid, 0.8, amplitude=2.0)
        out = convolve(f, g)
        lhs = discrete_integral(out)
        rhs = discrete_integral(f) * discrete_integral(g)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_heisenberg_matches_node_loop_random(self):
        grid = make_grid(heisenberg1(), 1.0, 8)
        rng = np.random.default_rng(34)
        f = Field(grid, rng.standard_normal(grid.shape))
        g = Field(grid, rng.standard_normal(grid.shape))
        assert relative_l2(convolve(f, g).values, node_loop_heisenberg(f, g)) <= 1e-12

    @pytest.mark.parametrize("eps", [0.25, 0.11])
    def test_heisenberg_matches_node_loop_mollified_datum(self, eps):
        # the existence sweep's datum and kernel on heisenberg1 16x16x32
        grid = make_grid(heisenberg1(), 1.5, (16, 16, 32))
        u0 = bump_field(grid, 1.125)
        kernel = unit_mass_kernel(Mollifier(3, 1.4), eps, OmegaSchedule.logarithmic(1), grid)
        got = convolve(u0, kernel).values
        assert relative_l2(got, node_loop_heisenberg(u0, kernel)) <= 1e-12

    @pytest.mark.parametrize("eps", [0.25, 0.11])
    @pytest.mark.parametrize("datum", ["centred", "at-the-edge"])
    def test_heisenberg_window_has_the_bits_of_the_column_sum(self, eps, datum):
        # the window of the kernel rolled to a column of the datum wraps the
        # box edge where the datum sits at the edge
        grid = make_grid(heisenberg1(), 1.5, (16, 16, 32))
        center = (0.0, 0.0, 0.0) if datum == "centred" else (-1.5, 1.3, 0.0)
        u0 = bump_field(grid, (0.6, 0.5, 1.1), center=center)
        kernel = unit_mass_kernel(Mollifier(3, 1.4), eps, OmegaSchedule.logarithmic(1), grid)
        support = np.flatnonzero(np.any(kernel.values != 0.0, axis=(1, 2)))
        assert support.size < 16
        got = convolve(u0, kernel).values
        np.testing.assert_array_equal(got, column_sum_heisenberg(u0, kernel))

    def test_heisenberg_window_of_a_kernel_across_the_box_edge(self):
        # a kernel whose own columns straddle the edge: a = 0, 1, 7 and b = 6, 7, 0
        grid = make_grid(heisenberg1(), 1.0, 8)
        rng = np.random.default_rng(35)
        f = Field(grid, rng.standard_normal(grid.shape))
        g = np.zeros(grid.shape)
        g[np.ix_([0, 1, 7], [6, 7, 0])] = rng.standard_normal((3, 3, 8))
        g = Field(grid, g)
        np.testing.assert_array_equal(convolve(f, g).values, column_sum_heisenberg(f, g))

    def test_odd_grid_rejected(self):
        grid = make_grid(euclidean(1), 1.0, 9)
        f = Field.zeros(grid)
        with pytest.raises(ValueError, match="even"):
            convolve(f, f)

    def test_grid_mismatch_rejected(self):
        f = Field.zeros(make_grid(euclidean(1), 1.0, 8))
        g = Field.zeros(make_grid(euclidean(1), 1.0, 16))
        with pytest.raises(ValueError):
            convolve(f, g)


class TestRegularize:
    def test_constant_passthrough(self):
        grid = make_grid(euclidean(1), 1.0, 16)
        V = regularize_potential(PotentialSpec.constant(3.0), 0.5, POLY, Mollifier(1), grid)
        np.testing.assert_array_equal(V.values, 3.0)

    def test_delta_squared_peak(self):
        grid = make_grid(euclidean(1), 1.0, 256)
        psi = Mollifier(1, 1.0)
        V = regularize_potential(PotentialSpec.dirac_delta_squared(), 0.25, POLY, psi, grid)
        expected = 0.25 ** (-2.0) * psi.peak**2
        assert V.values.max() == pytest.approx(expected, rel=1e-12)

    def test_sampled_converges_to_sample(self):
        grid = make_grid(euclidean(1), 2.0, 256)
        psi = Mollifier(1, 1.0)
        f = bump_field(grid, 1.2, amplitude=1.5)
        pot = PotentialSpec.sampled(f)
        errors = []
        for eps in EpsilonNet.dyadic(0.5, 4):
            V = regularize_potential(pot, eps, POLY, psi, grid)
            errors.append(np.abs(V.values - f.values).max())
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 0.02 * np.abs(f.values).max()

    def test_smoothing_under_resolution_tends_to_identity(self):
        # unit-mass kernels below the grid scale act as the discrete identity
        grid = make_grid(euclidean(1), 2.0, 64)
        psi = Mollifier(1, 1.0)
        f = bump_field(grid, 1.2)
        out = regularize_field(f, 1e-4, POLY, psi)
        np.testing.assert_allclose(out.values, f.values, atol=1e-12)

    def test_delta_sign_class_forced(self):
        # the class follows the multiplier's sign and cannot be declared
        assert PotentialSpec.dirac_delta().sign_class == "nonneg"
        assert PotentialSpec.dirac_delta_squared(multiplier=-1.0).sign_class == "real"
        with pytest.raises(TypeError):
            PotentialSpec("dirac_delta", sign_class="real")

    def test_negative_constant_must_be_real(self):
        assert PotentialSpec.constant(-1.0).sign_class == "real"
        assert PotentialSpec.constant(0.0).sign_class == "nonneg"

    @pytest.mark.parametrize("pot", [
        lambda: PotentialSpec.constant(math.nan),
        lambda: PotentialSpec.constant(math.inf),
        lambda: PotentialSpec.dirac_delta(multiplier=math.inf),
        lambda: PotentialSpec.dirac_delta_squared(multiplier=math.nan),
    ], ids=["constant-nan", "constant-inf", "delta-inf", "delta2-nan"])
    def test_nonfinite_value_rejected(self, pot):
        with pytest.raises(ValueError, match="finite"):
            pot()

    def test_center_outside_box_rejected(self):
        # an off-centre datum must lie in the box it is sampled on
        grid = make_grid(euclidean(1), 1.0, 64)
        with pytest.raises(ValueError, match="outside"):
            bump_field(grid, 0.5, center=(1.5,))

    def test_unit_mass_kernel_exact_mass(self):
        grid = make_grid(heisenberg1(), 1.0, 8)
        k = unit_mass_kernel(Mollifier(3), 0.5, POLY, grid)
        assert discrete_integral(k) == pytest.approx(1.0, rel=1e-13)


class TestBumpField:
    def test_peak_and_support(self):
        grid = make_grid(euclidean(1), 2.0, 128)
        f = bump_field(grid, 1.0, amplitude=2.0)
        assert f.values.max() == pytest.approx(2.0, rel=1e-13)
        x = grid.axes[0]
        assert np.all(f.values[np.abs(x) >= 1.0] == 0.0)

    def test_nan_width_rejected(self):
        grid = make_grid(euclidean(1), 1.0, 16)
        with pytest.raises(ValueError, match="width must be positive"):
            bump_field(grid, math.nan)

    def test_width_exceeding_box_rejected(self):
        grid = make_grid(euclidean(1), 1.0, 16)
        with pytest.raises(SupportError):
            bump_field(grid, 1.5)

    @pytest.mark.parametrize("width", [(1.0,), (1.0, 1.0, 1.0)], ids=["short", "long"])
    def test_width_needs_one_entry_per_axis(self, width):
        # zip used to drop the missing axis, leaving a field constant along it
        grid = make_grid(euclidean(2), 2.0, 16)
        with pytest.raises(ValueError, match=f"width has {len(width)} entries, grid needs 2"):
            bump_field(grid, width)
        assert np.all(bump_field(grid, (1.0, 1.5)).values[0] == 0.0)
