"""Integrator tests: closed forms, cross-checks, energy and a-priori bounds."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from gradedheat import operators
from gradedheat import solve as solve_module
from gradedheat.errors import CapabilityError, ConvergenceError, StabilityError
from gradedheat.groups import Field, euclidean, heisenberg1, make_grid
from gradedheat.mollify import (
    Mollifier,
    OmegaSchedule,
    PotentialSpec,
    bump_field,
    regularize_potential,
)
from gradedheat.operators import build_rockland, semigroup_apply
from gradedheat.solve import (
    CauchyProblem,
    Trajectory,
    apriori_ratios,
    energy,
    oracle_expm,
    solve_duhamel,
    step_implicit,
)


@pytest.fixture(scope="module")
def lap32():
    return build_rockland(make_grid(euclidean(1), math.pi, 32))


@pytest.fixture(scope="module")
def sub8():
    return build_rockland(make_grid(heisenberg1(), 1.5, 8))


@pytest.fixture(scope="module")
def sub12():
    return build_rockland(make_grid(heisenberg1(), 1.5, 12))


def eigenvector(grid, m):
    return Field.from_function(grid, lambda x: np.sin(m * x))


def discrete_symbol(grid, m):
    h = grid.spacings[0]
    return 4.0 / h**2 * math.sin(m * h / 2.0) ** 2


class TestCauchyProblem:
    def test_step_count_rounds_up(self, lap32):
        g = lap32.grid
        p = CauchyProblem(lap32, Field.zeros(g), bump_field(g, 1.0), T=1.0, dt=0.3)
        assert p.steps == 4
        assert p.dt_effective == pytest.approx(0.25)

    def test_near_integer_ratio_not_inflated(self, lap32):
        g = lap32.grid
        p = CauchyProblem(lap32, Field.zeros(g), bump_field(g, 1.0), T=1.0, dt=0.1)
        assert p.steps == 10

    def test_dt_larger_than_T_rejected(self, lap32):
        g = lap32.grid
        with pytest.raises(ValueError):
            CauchyProblem(lap32, Field.zeros(g), bump_field(g, 1.0), T=0.1, dt=0.5)

    def test_grid_mismatch_rejected(self, lap32):
        other = make_grid(euclidean(1), math.pi, 16)
        with pytest.raises(ValueError):
            CauchyProblem(lap32, Field.zeros(other), Field.zeros(other), T=1.0, dt=0.1)


class TestStepImplicit:
    def test_eigenvector_closed_form(self, lap32):
        # backward Euler divides the coefficient by (1 + dt lam) each step
        g = lap32.grid
        u0 = eigenvector(g, 2)
        p = CauchyProblem(lap32, Field.zeros(g), u0, T=1.0, dt=1.0 / 64)
        traj = step_implicit(p)
        lam = discrete_symbol(g, 2)
        expected = (1.0 + p.dt_effective * lam) ** (-p.steps) * traj.l2[0]
        assert traj.l2[-1] == pytest.approx(expected, rel=1e-11)

    def test_constant_potential_shifts_rate(self, lap32):
        g = lap32.grid
        u0 = eigenvector(g, 3)
        c = 0.7
        p = CauchyProblem(lap32, Field.zeros(g) + c, u0, T=0.5, dt=1.0 / 32)
        traj = step_implicit(p)
        lam = discrete_symbol(g, 3) + c
        expected = (1.0 + p.dt_effective * lam) ** (-p.steps) * traj.l2[0]
        assert traj.l2[-1] == pytest.approx(expected, rel=1e-11)

    def test_constant_datum_is_steady(self, lap32):
        g = lap32.grid
        u0 = Field.zeros(g) + 2.0
        p = CauchyProblem(lap32, Field.zeros(g), u0, T=0.1, dt=0.1)
        traj = step_implicit(p)
        np.testing.assert_allclose(traj.final.values, 2.0, rtol=1e-13)

    def test_stability_guard_names_bound(self, lap32):
        g = lap32.grid
        V = Field.zeros(g) - 10.0
        p = CauchyProblem(lap32, V, bump_field(g, 1.0), T=1.0, dt=0.2)
        with pytest.raises(StabilityError, match="0.1"):
            step_implicit(p)

    def test_thinning_keeps_ends(self, lap32):
        g = lap32.grid
        p = CauchyProblem(lap32, Field.zeros(g), bump_field(g, 1.0), T=1.0, dt=1.0 / 200)
        traj = step_implicit(p)
        assert len(traj.times) == 201
        assert traj.state_times[0] == 0.0
        assert traj.state_times[-1] == pytest.approx(1.0)
        assert len(traj.states) == len(traj.state_times)
        assert len(traj.states) < 80
        np.testing.assert_array_equal(traj.states[0].values, bump_field(g, 1.0).values)


def lu_backward_euler(p):
    """Every state of backward Euler, each step solved by a sparse LU."""
    dt = p.dt_effective
    v = p.V.values.ravel()
    system = sp.identity(v.size, format="csr") + dt * (p.op.matrix + sp.diags(v))
    lu = splu(system.tocsc())
    states = [p.u0.values.ravel()]
    for _ in range(p.steps):
        states.append(lu.solve(states[-1]))
    return states


def assert_matches_lu(p):
    traj = step_implicit(p)
    want = lu_backward_euler(p)
    assert len(traj.states) == len(want) == p.steps + 1
    for got, ref in zip(traj.states, want):
        err = np.linalg.norm(got.values.ravel() - ref) / np.linalg.norm(ref)
        assert err <= 1e-10


class TestHeisenbergStepper:
    # the Heisenberg stepper solves each step by preconditioned CG; a sparse
    # LU of the same system is the reference
    def test_delta_potential_matches_lu(self, sub12):
        g = sub12.grid
        V = regularize_potential(PotentialSpec.dirac_delta(multiplier=80.0), 0.8,
                                 OmegaSchedule.polynomial(), Mollifier(3, 1.4), g)
        p = CauchyProblem(sub12, V, bump_field(g, 1.125), T=0.25, dt=1.0 / 32)
        assert p.dt_effective * float(V.values.max()) > 1.0
        assert_matches_lu(p)

    def test_sign_changing_potential_matches_lu(self, sub12):
        g = sub12.grid
        raw = Field.from_function(
            g, lambda a, b, c: np.cos(2.0 * a) * np.exp(-b * b) + 0.5 * np.sin(np.pi * c / 1.5))
        dt = 1.0 / 32
        V = raw * (0.5 / (dt * float(-raw.values.min())))
        p = CauchyProblem(sub12, V, bump_field(g, 1.125), T=0.25, dt=dt)
        assert p.dt_effective * float(-V.values.min()) == pytest.approx(0.5)
        assert_matches_lu(p)

    @pytest.mark.parametrize("depth", [32.0, 40.0])
    def test_stability_guard(self, sub12, depth):
        # dt * max V^- = 1 and 1.25
        g = sub12.grid
        p = CauchyProblem(sub12, Field.zeros(g) - depth, bump_field(g, 1.0), T=0.25, dt=1.0 / 32)
        with pytest.raises(StabilityError, match="0.03125"):
            step_implicit(p)

    def test_zero_datum_stays_zero(self, sub12):
        g = sub12.grid
        p = CauchyProblem(sub12, bump_field(g, 1.0), Field.zeros(g), T=0.25, dt=1.0 / 32)
        np.testing.assert_array_equal(step_implicit(p).final.values, 0.0)

    def test_iteration_cap_names_step(self):
        # without the preconditioner CG needs far more iterations than the
        # cap sized for the preconditioned system
        op = build_rockland(make_grid(heisenberg1(), 1.5, 12))
        op.resolvent = lambda dt, values: np.ravel(values).copy()
        p = CauchyProblem(op, Field.zeros(op.grid), bump_field(op.grid, 1.125),
                          T=0.25, dt=1.0 / 32)
        with pytest.raises(ConvergenceError, match=r"step 1 of 8.*residual.*after \d+ iterations"):
            step_implicit(p)


class TestEuclidean2Stepper:
    # on R^2 each step is CG preconditioned with the Fourier multiplier
    # (I + dt R)^{-1}; a sparse LU of the same system is the reference.  The
    # grid is not square, so a transposed multiplier would be caught.
    @pytest.fixture(scope="class")
    def lap2(self):
        return build_rockland(make_grid(euclidean(2), 2.0, (40, 24)))

    def test_delta_potential_matches_lu(self, lap2):
        g = lap2.grid
        V = regularize_potential(PotentialSpec.dirac_delta(multiplier=80.0), 0.5,
                                 OmegaSchedule.polynomial(), Mollifier(2, 1.5), g)
        p = CauchyProblem(lap2, V, bump_field(g, 1.0, center=(0.3, -0.2)),
                          T=0.25, dt=1.0 / 32)
        assert p.dt_effective * float(V.values.max()) > 1.0
        assert_matches_lu(p)

    def test_sign_changing_potential_matches_lu(self, lap2):
        g = lap2.grid
        raw = Field.from_function(g, lambda x, y: np.cos(2.0 * x) * np.exp(-y * y)
                                  + 0.5 * np.sin(np.pi * y / 2.0))
        dt = 1.0 / 32
        V = raw * (0.5 / (dt * float(-raw.values.min())))
        p = CauchyProblem(lap2, V, bump_field(g, 1.0), T=0.25, dt=dt)
        assert p.dt_effective * float(-V.values.min()) == pytest.approx(0.5)
        assert_matches_lu(p)

    @pytest.mark.parametrize("depth", [32.0, 40.0])
    def test_stability_guard(self, lap2, depth):
        # dt * max V^- = 1 and 1.25
        g = lap2.grid
        p = CauchyProblem(lap2, Field.zeros(g) - depth, bump_field(g, 1.0), T=0.25, dt=1.0 / 32)
        with pytest.raises(StabilityError, match="0.03125"):
            step_implicit(p)

    def test_zero_datum_stays_zero(self, lap2):
        g = lap2.grid
        p = CauchyProblem(lap2, bump_field(g, 1.0), Field.zeros(g), T=0.25, dt=1.0 / 32)
        np.testing.assert_array_equal(step_implicit(p).final.values, 0.0)


class TestStepperRouting:
    # sparse LU only where its fill stays linear: the periodic tridiagonal
    # system on R.  Every other grid is solved by preconditioned CG.
    @pytest.mark.parametrize("group, points, lu_calls", [
        (euclidean(1), (32,), 1),
        (euclidean(2), (16, 10), 0),
        (heisenberg1(), (8, 8, 8), 0),
    ], ids=["r1", "r2", "h1"])
    def test_lu_only_in_one_dimension(self, monkeypatch, group, points, lu_calls):
        calls = []

        def counting_splu(*args, **kwargs):
            calls.append(args)
            return splu(*args, **kwargs)

        monkeypatch.setattr(solve_module, "splu", counting_splu)
        op = build_rockland(make_grid(group, 1.5, points))
        g = op.grid
        step_implicit(CauchyProblem(op, bump_field(g, 1.0), bump_field(g, 1.125),
                                    T=0.125, dt=1.0 / 32))
        assert len(calls) == lu_calls


def dense_duhamel_states(p, n_picard):
    """Picard-Duhamel on a dense eigh of the whole operator: the reference."""
    w, vecs = np.linalg.eigh(p.op.matrix.toarray())
    w = np.maximum(w, 0.0)
    dt, steps = p.dt_effective, p.steps
    decay = np.exp(-dt * w)
    hom = np.empty((steps + 1, w.size))
    hom[0] = vecs.T @ p.u0.values.ravel()
    for k in range(1, steps + 1):
        hom[k] = decay * hom[k - 1]
    coeff = hom.copy()
    for _ in range(n_picard):
        src = (-p.V.values.ravel() * (coeff @ vecs.T)) @ vecs
        new = hom.copy()
        integral = np.zeros(w.size)
        for k in range(1, steps + 1):
            integral = decay * integral + 0.5 * dt * (decay * src[k - 1] + src[k])
            new[k] += integral
        done = np.abs(new - coeff).max() <= 1e-13 * np.abs(new).max()
        coeff = new
        if done:
            break
    return coeff @ vecs.T


class TestDuhamel:
    def test_zero_potential_matches_semigroup(self, lap32):
        g = lap32.grid
        u0 = eigenvector(g, 3)
        p = CauchyProblem(lap32, Field.zeros(g), u0, T=0.5, dt=1.0 / 16)
        traj = solve_duhamel(p, n_picard=0)
        lam = discrete_symbol(g, 3)
        for t, l2 in zip(traj.times, traj.l2):
            assert l2 == pytest.approx(math.exp(-lam * t) * traj.l2[0], rel=1e-10)

    def test_zero_potential_any_depth(self, lap32):
        g = lap32.grid
        u0 = bump_field(g, 1.5)
        p = CauchyProblem(lap32, Field.zeros(g), u0, T=0.5, dt=1.0 / 16)
        a = solve_duhamel(p, n_picard=0)
        b = solve_duhamel(p, n_picard=8)
        np.testing.assert_allclose(b.final.values, a.final.values, atol=1e-14)

    def test_constant_potential_quadrature_order(self, lap32):
        # trapezoid Picard limit differs from the shifted semigroup by O(dt^2)
        g = lap32.grid
        u0 = bump_field(g, 1.5)
        errs = []
        for dt in (1.0 / 16, 1.0 / 32):
            p = CauchyProblem(lap32, Field.zeros(g) + 1.0, u0, T=0.5, dt=dt)
            traj = solve_duhamel(p)
            exact = oracle_expm(p)
            errs.append(np.abs(traj.final.values - exact.final.values).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.5)

    def test_agrees_with_implicit(self, lap32):
        g = lap32.grid
        V = bump_field(g, 2.0, amplitude=1.0)
        u0 = bump_field(g, 1.5, center=(0.5,))
        p = CauchyProblem(lap32, V, u0, T=0.5, dt=1.0 / 32)
        a = solve_duhamel(p)
        b = step_implicit(p)
        err = math.sqrt(np.sum((a.final.values - b.final.values) ** 2) * g.cell_volume)
        assert err <= 10.0 * p.dt_effective

    @pytest.mark.parametrize("group, points", [
        (heisenberg1(), (8, 8, 12)),
        (heisenberg1(), (12, 12, 12)),
        (euclidean(2), (16, 10)),
        (euclidean(1), (64,)),
    ], ids=["h1-8x8x12", "h1-12^3", "r2-16x10", "r1-64"])
    def test_block_eigenbasis_matches_dense(self, group, points):
        op = build_rockland(make_grid(group, 1.5, points))
        g = op.grid
        p = CauchyProblem(op, bump_field(g, 1.0, amplitude=0.8), bump_field(g, 1.125),
                          T=0.25, dt=1.0 / 32)
        traj = solve_duhamel(p, n_picard=8)
        want = dense_duhamel_states(p, n_picard=8)
        assert len(traj.states) == p.steps + 1
        for got, ref in zip(traj.states, want):
            assert np.linalg.norm(got.values.ravel() - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_diverging_iteration_raises(self, lap32):
        g = lap32.grid
        p = CauchyProblem(lap32, Field.zeros(g) + 500.0, bump_field(g, 1.0), T=1.0, dt=1.0 / 16)
        with pytest.raises(ConvergenceError):
            solve_duhamel(p, n_picard=8)

    def test_negative_depth_rejected(self, lap32):
        g = lap32.grid
        p = CauchyProblem(lap32, Field.zeros(g), bump_field(g, 1.0), T=0.1, dt=0.1)
        with pytest.raises(ValueError):
            solve_duhamel(p, n_picard=-1)


class TestOracle:
    def test_initial_state_kept(self, lap32):
        g = lap32.grid
        u0 = bump_field(g, 1.0)
        p = CauchyProblem(lap32, bump_field(g, 2.0), u0, T=0.5, dt=0.1)
        traj = oracle_expm(p)
        np.testing.assert_allclose(traj.states[0].values, u0.values, atol=1e-12)

    def test_zero_potential_matches_semigroup_apply(self, lap32):
        g = lap32.grid
        u0 = bump_field(g, 1.5)
        p = CauchyProblem(lap32, Field.zeros(g), u0, T=0.25, dt=0.25)
        traj = oracle_expm(p)
        ref = semigroup_apply(lap32, 0.25, u0)
        np.testing.assert_allclose(traj.final.values, ref.values, rtol=1e-10, atol=1e-12)

    def test_l2_contraction_for_nonneg_potential(self, lap32):
        g = lap32.grid
        rng = np.random.default_rng(7)
        V = bump_field(g, 2.0, amplitude=3.0)
        for _ in range(10):
            u0 = Field(g, rng.standard_normal(g.shape))
            p = CauchyProblem(lap32, V, u0, T=1.0, dt=0.1)
            traj = oracle_expm(p)
            assert np.all(np.diff(traj.l2) <= 1e-12 * traj.l2[0])

    def test_dof_limit(self, lap32, monkeypatch):
        # the limit is read at call time and checked before R is densified
        g = lap32.grid
        p = CauchyProblem(lap32, Field.zeros(g), bump_field(g, 1.0), T=0.1, dt=0.1)
        monkeypatch.setattr(operators, "SPECTRAL_DOF_LIMIT", 16)
        monkeypatch.setattr(lap32, "matrix", None)
        with pytest.raises(CapabilityError, match="dof <= 16"):
            oracle_expm(p)


class TestConvergence:
    def test_implicit_error_halves_with_dt(self, lap32):
        g = lap32.grid
        V = bump_field(g, 2.0, amplitude=1.0)
        u0 = bump_field(g, 1.5)
        errs = []
        for dt in (1.0 / 32, 1.0 / 64, 1.0 / 128):
            p = CauchyProblem(lap32, V, u0, T=0.5, dt=dt)
            approx = step_implicit(p)
            exact = oracle_expm(p)
            diff = approx.final.values - exact.final.values
            errs.append(math.sqrt(np.sum(diff**2) * g.cell_volume))
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.6 <= coarse / fine <= 2.4


class TestEnergy:
    def test_constant_zero_potential(self, lap32):
        g = lap32.grid
        assert energy(Field.zeros(g) + 5.0, Field.zeros(g), lap32) <= 1e-8

    def test_zero_potential_reduces_to_quad_form(self, lap32):
        g = lap32.grid
        u = bump_field(g, 1.5)
        assert energy(u, Field.zeros(g), lap32) == pytest.approx(lap32.quad_form(u), rel=1e-13)

    def test_unit_potential_unit_mass(self):
        # measure-one box, u = 1: gradient term vanishes, potential term is 1
        grid = make_grid(euclidean(1), 0.5, 16)
        op = build_rockland(grid)
        u = Field.zeros(grid) + 1.0
        assert energy(u, Field.zeros(grid) + 1.0, op) == pytest.approx(1.0, rel=1e-8)

    def test_negative_potential_rejected(self, lap32):
        g = lap32.grid
        with pytest.raises(ValueError, match="Gronwall"):
            energy(bump_field(g, 1.0), Field.zeros(g) - 1.0, lap32)

    def test_monotone_decay_along_implicit_flow(self, lap32):
        g = lap32.grid
        V = bump_field(g, 2.0, amplitude=2.0)
        p = CauchyProblem(lap32, V, bump_field(g, 1.5), T=1.0, dt=1.0 / 50)
        traj = step_implicit(p)
        assert traj.energy is not None
        slack = 1e-10 * traj.energy[0]
        assert np.all(np.diff(traj.energy) <= slack)

    def test_l2_contraction_along_implicit_flow(self, lap32):
        g = lap32.grid
        rng = np.random.default_rng(11)
        V = bump_field(g, 2.0, amplitude=1.0)
        for _ in range(5):
            u0 = Field(g, rng.standard_normal(g.shape))
            traj = step_implicit(CauchyProblem(lap32, V, u0, T=0.5, dt=1.0 / 20))
            assert np.all(np.diff(traj.l2) <= 1e-10 * traj.l2[0])

    def test_energy_absent_for_real_potential(self, lap32):
        g = lap32.grid
        V = Field.from_function(g, lambda x: 2.0 * np.sin(x))
        traj = step_implicit(CauchyProblem(lap32, V, bump_field(g, 1.0), T=0.5, dt=0.1))
        assert traj.energy is None


class TestAprioriRatios:
    def test_gronwall_bound_real_potential(self, lap32):
        # sign-changing V: growth never beats exp(t ||V||_inf)
        g = lap32.grid
        V = Field.from_function(g, lambda x: 2.0 * np.sin(x))
        u0 = bump_field(g, 1.5)
        p = CauchyProblem(lap32, V, u0, T=1.0, dt=1.0 / 64)
        traj = step_implicit(p)
        ratios = apriori_ratios(traj, V, u0, "RealGronwall")
        assert np.all(ratios <= 1.0 + 1e-8)
        assert np.all(np.isfinite(traj.sobolev_nu2))

    def test_gronwall_exact_flow_negative_constant(self, lap32):
        # V = -c: true growth rate is c - lam <= c, so the ratio stays <= 1
        g = lap32.grid
        V = Field.zeros(g) - 0.8
        u0 = bump_field(g, 1.5)
        p = CauchyProblem(lap32, V, u0, T=1.0, dt=1.0 / 16)
        traj = oracle_expm(p)
        ratios = apriori_ratios(traj, V, u0, "RealGronwall")
        assert np.all(ratios <= 1.0 + 1e-12)

    def test_poslinf_contraction_zero_potential(self, lap32):
        g = lap32.grid
        V = Field.zeros(g)
        u0 = bump_field(g, 1.5)
        traj = oracle_expm(CauchyProblem(lap32, V, u0, T=1.0, dt=0.1))
        ratios = apriori_ratios(traj, V, u0, "PosLinf")
        assert np.all(ratios <= 1.0 + 1e-10)

    def test_poslp_needs_large_homogeneous_dimension(self, lap32):
        g = lap32.grid
        V = Field.zeros(g)
        u0 = bump_field(g, 1.0)
        traj = oracle_expm(CauchyProblem(lap32, V, u0, T=0.1, dt=0.1))
        with pytest.raises(ValueError, match="Q > nu"):
            apriori_ratios(traj, V, u0, "PosLp")

    def test_poslp_finite_on_heisenberg(self, sub8):
        g = sub8.grid
        V = bump_field(g, 1.2, amplitude=2.0)
        u0 = bump_field(g, 1.0)
        traj = step_implicit(CauchyProblem(sub8, V, u0, T=0.5, dt=0.05))
        ratios = apriori_ratios(traj, V, u0, "PosLp")
        assert np.all(np.isfinite(ratios))
        assert np.all(ratios <= 10.0)

    def test_zero_datum_gives_zero_ratios(self, lap32):
        g = lap32.grid
        V = Field.zeros(g) + 1.0
        u0 = Field.zeros(g)
        traj = step_implicit(CauchyProblem(lap32, V, u0, T=0.5, dt=0.1))
        for which in ("PosLinf", "RealGronwall"):
            np.testing.assert_array_equal(apriori_ratios(traj, V, u0, which), 0.0)

    def test_unknown_kind_rejected(self, lap32):
        g = lap32.grid
        V = Field.zeros(g)
        u0 = bump_field(g, 1.0)
        traj = oracle_expm(CauchyProblem(lap32, V, u0, T=0.1, dt=0.1))
        with pytest.raises(ValueError):
            apriori_ratios(traj, V, u0, "PosL2")


class TestTrajectoryValidation:
    def test_times_must_increase(self, lap32):
        g = lap32.grid
        f = Field.zeros(g)
        ones = np.ones(3)
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.2, 0.1]), l2=ones, sobolev_nu2=ones,
                       energy=None, state_times=np.array([0.0]), states=(f,))

    def test_series_must_be_finite(self, lap32):
        g = lap32.grid
        f = Field.zeros(g)
        bad = np.array([1.0, np.inf])
        ones = np.ones(2)
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.1]), l2=bad, sobolev_nu2=ones,
                       energy=None, state_times=np.array([0.0]), states=(f,))

    @pytest.mark.parametrize("lengths", [
        dict(l2=3, sobolev_nu2=2, energy=None),
        dict(l2=2, sobolev_nu2=1, energy=None),
        dict(l2=2, sobolev_nu2=2, energy=5),
        dict(l2=3, sobolev_nu2=1, energy=5),
    ], ids=["l2", "sobolev", "energy", "all"])
    def test_series_lengths_must_match_times(self, lap32, lengths):
        f = Field.zeros(lap32.grid)
        series = {name: None if n is None else np.ones(n) for name, n in lengths.items()}
        with pytest.raises(ValueError, match="values for 2 times"):
            Trajectory(times=np.array([0.0, 0.1]), state_times=np.array([0.0]),
                       states=(f,), **series)

    def test_states_must_match_state_times(self, lap32):
        f = Field.zeros(lap32.grid)
        ones = np.ones(2)
        with pytest.raises(ValueError, match="2 states for 1 state times"):
            Trajectory(times=np.array([0.0, 0.1]), l2=ones, sobolev_nu2=ones,
                       energy=None, state_times=np.array([0.0]), states=(f, f))


def record_every_state(monkeypatch):
    """Copies of every state handed to the recorder, in order."""
    seen = []
    push = solve_module._Recorder.push

    def spy(self, u):
        seen.append(np.array(u, copy=True))
        push(self, u)

    monkeypatch.setattr(solve_module._Recorder, "push", spy)
    return seen


def assert_series_per_state(p, traj, seen):
    """The series equal the one-state-at-a-time reductions bit for bit."""
    vol = p.u0.grid.cell_volume
    mat = p.op.matrix
    v = p.V.values.ravel()
    l2, sob, en = [], [], []
    for u in seen:
        quad = max(float(np.sum(u * (mat @ u))) * vol, 0.0)
        l2.append(math.sqrt(max(float(np.sum(u * u)) * vol, 0.0)))
        sob.append(math.sqrt(quad))
        en.append(quad + float(np.sum(v * u * u)) * vol)
    dt = p.dt_effective
    assert len(seen) == p.steps + 1
    assert np.array_equal(traj.times, np.array([k * dt for k in range(p.steps + 1)]))
    assert np.array_equal(traj.l2, np.array(l2))
    assert np.array_equal(traj.sobolev_nu2, np.array(sob))
    if v.min() >= 0.0:
        assert np.array_equal(traj.energy, np.array(en))
    else:
        assert traj.energy is None
    thin = max(1, p.steps // solve_module.STATE_THIN_TARGET)
    kept = [k for k in range(p.steps + 1) if k % thin == 0 or k == p.steps]
    assert np.array_equal(traj.state_times, np.array([k * dt for k in kept]))
    assert len(traj.states) == len(kept)
    for k, f in zip(kept, traj.states):
        assert np.array_equal(f.values.ravel(), seen[k])


def block_rows(p):
    return solve_module._Recorder(p).block.shape[0]


class TestRecorder:
    def random_problem(self, op, T, dt, seed, shift=0.0):
        g = op.grid
        rng = np.random.default_rng(seed)
        V = Field(g, 3.0 * rng.random(g.shape) - shift)
        return CauchyProblem(op, V, Field(g, rng.standard_normal(g.shape)), T=T, dt=dt)

    def test_partial_last_block(self, monkeypatch):
        op = build_rockland(make_grid(euclidean(1), 1.0, 256))
        p = self.random_problem(op, T=1.0, dt=1.0 / 150, seed=1)
        rows = block_rows(p)
        assert rows == 64 and (p.steps + 1) % rows != 0
        seen = record_every_state(monkeypatch)
        assert_series_per_state(p, step_implicit(p), seen)

    def test_one_row_blocks(self, monkeypatch):
        op = build_rockland(make_grid(euclidean(1), 1.0, 256))
        p = self.random_problem(op, T=1.0, dt=1.0 / 100, seed=2)
        monkeypatch.setattr(solve_module, "RECORD_BLOCK_BYTES", 8)
        assert block_rows(p) == 1
        seen = record_every_state(monkeypatch)
        assert_series_per_state(p, step_implicit(p), seen)

    def test_byte_cap_sizes_blocks(self):
        def rows(group, half_width, points, steps):
            op = build_rockland(make_grid(group, half_width, points))
            return block_rows(CauchyProblem(op, Field.zeros(op.grid), Field.zeros(op.grid),
                                            T=1.0, dt=1.0 / steps))
        assert rows(euclidean(1), 1.0, 256, 1000) == 64
        assert rows(euclidean(1), 1.0, 256, 10) == 11
        assert rows(heisenberg1(), 1.5, (16, 16, 32), 100) == 4
        assert rows(euclidean(2), 1.0, 256, 10) == 1

    def test_heisenberg(self, sub8, monkeypatch):
        p = self.random_problem(sub8, T=0.5, dt=1.0 / 40, seed=3)
        seen = record_every_state(monkeypatch)
        assert_series_per_state(p, step_implicit(p), seen)

    def test_sign_changing_potential(self, lap32, monkeypatch):
        p = self.random_problem(lap32, T=0.5, dt=1.0 / 90, seed=4, shift=1.5)
        seen = record_every_state(monkeypatch)
        traj = step_implicit(p)
        assert traj.energy is None
        assert_series_per_state(p, traj, seen)

    @pytest.mark.parametrize("solver", [solve_duhamel, oracle_expm])
    def test_spectral_solvers(self, lap32, solver, monkeypatch):
        p = self.random_problem(lap32, T=0.5, dt=1.0 / 100, seed=5)
        seen = record_every_state(monkeypatch)
        assert_series_per_state(p, solver(p), seen)

    @pytest.mark.parametrize("group, half_width, points", [
        (euclidean(1), 1.0, 256),
        (heisenberg1(), 1.5, 12),
    ], ids=["e1-256", "h1-12^3"])
    def test_quad_form_matches_t0_record(self, group, half_width, points):
        op = build_rockland(make_grid(group, half_width, points))
        u0 = bump_field(op.grid, 0.8)
        V = bump_field(op.grid, 1.0)
        traj = step_implicit(CauchyProblem(op, V, u0, T=0.1, dt=0.1))
        assert math.sqrt(op.quad_form(u0)) == traj.sobolev_nu2[0]
        assert energy(u0, V, op) == traj.energy[0]
