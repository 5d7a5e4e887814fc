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

    def test_step_count_must_be_finite(self, lap32):
        g = lap32.grid
        with pytest.raises(ValueError, match="T/dt must be finite"):
            CauchyProblem(lap32, Field.zeros(g), Field.zeros(g), T=1e300, dt=1e-300)

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

    @pytest.mark.parametrize("dim, points", [(1, 32), (2, 16)], ids=["e1", "e2"])
    def test_keep_states_false_records_the_series_only(self, dim, points):
        # the series are reduced from the block, not from the stored states
        g = make_grid(euclidean(dim), math.pi, points)
        p = CauchyProblem(build_rockland(g), bump_field(g, 1.0, 0.8), bump_field(g, 2.0),
                          T=1.0, dt=1.0 / 50)
        kept, bare = step_implicit(p), step_implicit(p, keep_states=False)
        assert len(kept.states) > 0 and bare.states == () and len(bare.state_times) == 0
        for name in ("times", "l2", "sobolev_nu2", "energy"):
            assert np.array_equal(getattr(bare, name), getattr(kept, name)), name
        with pytest.raises(ValueError, match="keeps no states"):
            bare.final

    # 200 steps keep every 3rd state; the values are V on scattered cells
    @pytest.mark.parametrize("group, points, values, route", [
        (euclidean(1), (64,), [1.0, -0.5], "_periodic_tridiagonal_solver"),
        (euclidean(2), (32, 32), [1.0] * 8, "_woodbury_solver"),
        (euclidean(2), (32, 32), [5.0, -1.0], "_cg_solver"),
        (heisenberg1(), (8, 8, 8), [1.0] * 8, "_woodbury_solver"),
        (heisenberg1(), (8, 8, 8), [5.0, -1.0], "_cg_solver"),
    ], ids=["r1", "r2-woodbury", "r2-cg", "h1-woodbury", "h1-cg"])
    def test_series_false_keeps_the_same_states(self, monkeypatch, group, points, values, route):
        op = build_rockland(make_grid(group, 1.5, points))
        g = op.grid
        v = np.zeros(g.size)
        v[np.arange(len(values)) * (g.size // len(values))] = values
        p = CauchyProblem(op, Field(g, v.reshape(g.shape)), bump_field(g, 1.125),
                          T=1.0, dt=1.0 / 200)
        calls, solver = [], getattr(solve_module, route)
        monkeypatch.setattr(solve_module, route, lambda *args: calls.append(args) or solver(*args))
        full, bare = step_implicit(p), step_implicit(p, series=False)
        assert len(calls) == 2
        assert np.array_equal(bare.times, full.times)
        assert np.array_equal(bare.state_times, full.state_times)
        assert len(bare.states) == 68
        for got, want in zip(bare.states, full.states, strict=True):
            assert np.array_equal(got.values, want.values)
        assert bare.l2 is None and bare.sobolev_nu2 is None and bare.energy is None
        with pytest.raises(ValueError, match="records no norm series"):
            bare.h_nu2
        for which in ("PosLinf", "RealGronwall"):
            with pytest.raises(ValueError, match="records no norm series"):
                apriori_ratios(bare, p.V, p.u0, which)

    def test_neither_states_nor_series_refused(self, lap32):
        g = lap32.grid
        p = CauchyProblem(lap32, Field.zeros(g), bump_field(g, 1.0), T=0.5, dt=0.125)
        with pytest.raises(ValueError, match="its states, its norm series or both"):
            step_implicit(p, keep_states=False, series=False)


def lu_step(p):
    """The backward-Euler step u -> (I + dt(R + V))^{-1} u, by a sparse LU.

    No solver in the package uses SuperLU, so it is an independent reference.
    """
    dt = p.dt_effective
    v = p.V.values.ravel()
    system = sp.identity(v.size, format="csr") + dt * (p.op.matrix + sp.diags(v))
    return splu(system.tocsc()).solve


def lu_backward_euler(p):
    """Every state of backward Euler, each step solved by lu_step."""
    step = lu_step(p)
    states = [p.u0.values.ravel()]
    for _ in range(p.steps):
        states.append(step(states[-1]))
    return states


def assert_matches_lu(p, rtol=1e-10):
    traj = step_implicit(p)
    want = lu_backward_euler(p)
    assert len(traj.states) == len(want) == p.steps + 1
    for got, ref in zip(traj.states, want):
        err = np.linalg.norm(got.values.ravel() - ref) / np.linalg.norm(ref)
        assert err <= rtol


class TestEuclidean1Stepper:
    # on R each step is a LAPACK solve of the tridiagonal part plus a
    # Sherman-Morrison correction for the two wrap-around corners
    @pytest.mark.parametrize("half_width, points", [(1.0, 4), (16.0, 2048)],
                             ids=["4", "2048"])
    def test_matches_lu(self, half_width, points):
        op = build_rockland(make_grid(euclidean(1), half_width, points))
        g = op.grid
        V = Field.from_function(g, lambda x: 2.0 + np.cos(x))
        p = CauchyProblem(op, V, bump_field(g, 0.75 * half_width), T=0.5, dt=1.0 / 32)
        assert_matches_lu(p, rtol=1e-12)

    def test_attractive_well_near_the_guard(self):
        op = build_rockland(make_grid(euclidean(1), 1.0, 256))
        g = op.grid
        dt = 1.0 / 64
        V = Field.from_function(g, lambda x: -0.995 / dt * np.exp(-8.0 * x * x))
        p = CauchyProblem(op, V, bump_field(g, 0.5), T=16 * dt, dt=dt)
        assert 0.99 <= dt * float(-V.values.min()) < 1.0
        assert_matches_lu(p, rtol=1e-12)

    def test_second_neighbour_coupling_refused(self):
        # the fourth-order five-point Laplacian is symmetric and PSD, but
        # not tridiagonal
        g = make_grid(euclidean(1), 1.0, 16)
        row = np.zeros(g.size)
        h2 = g.spacings[0] ** 2
        row[[-2, -1, 0, 1, 2]] = np.array([1.0, -16.0, 30.0, -16.0, 1.0]) / (12.0 * h2)
        mat = np.array([np.roll(row, i) for i in range(g.size)])
        op = operators.DiscreteRockland(g, mat, "five-point Laplacian")
        p = CauchyProblem(op, Field.zeros(g), bump_field(g, 0.5), T=0.25, dt=1.0 / 32)
        with pytest.raises(CapabilityError, match=r"five-point Laplacian .*\[-2, -1, 0, 1, 2\]"):
            step_implicit(p)

    def test_indefinite_system_is_stability_error(self):
        # V = 0 passes the guard, but -Laplacian makes I + dt R indefinite:
        # its diagonal 1 - 2 dt/h^2 is positive, its spectrum reaches 1 - 4 dt/h^2
        op = build_rockland(make_grid(euclidean(1), 1.0, 64))
        g = op.grid
        negated = operators.DiscreteRockland(g, -op.matrix, "negated Laplacian")
        dt = 0.4 * g.spacings[0] ** 2
        p = CauchyProblem(negated, Field.zeros(g), bump_field(g, 0.5), T=4 * dt, dt=dt)
        with pytest.raises(StabilityError, match="not positive definite"):
            step_implicit(p)


class TestHeisenbergStepper:
    # on H1 a potential that is sign-changing or whose support is large is
    # stepped by CG preconditioned with the block resolvent; a sparse LU of
    # the same system is the reference
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

    def test_indefinite_system_is_stability_error(self):
        # V = 0 passes the guard, but a negated sub-Laplacian makes I + dt R
        # indefinite: stepped anyway, the L2 norm went from 0.84 to 4.5e6 in 4 steps
        op = build_rockland(make_grid(heisenberg1(), 1.5, (8, 8, 16)))
        g = op.grid
        negated = operators.DiscreteRockland(g, -op.matrix, "negated sub-Laplacian")
        p = CauchyProblem(negated, Field.zeros(g), bump_field(g, 1.0), T=0.125, dt=1.0 / 32)
        with pytest.raises(StabilityError,
                           match=r"not positive definite .* central frequency k = \d+"):
            step_implicit(p)

    def test_iteration_cap_names_step(self):
        # without the preconditioner CG needs far more iterations than the
        # cap sized for the preconditioned system; a sign-changing V keeps
        # the step on CG
        op = build_rockland(make_grid(heisenberg1(), 1.5, 12))
        op.resolvent = lambda dt, values: np.ravel(values).copy()
        V = Field.from_function(op.grid, lambda a, b, c: np.cos(2.0 * a) * np.exp(-b * b))
        assert float(V.values.min()) < 0.0
        p = CauchyProblem(op, V, bump_field(op.grid, 1.125), T=0.25, dt=1.0 / 32)
        with pytest.raises(ConvergenceError, match=r"step 1 of 8.*residual.*after \d+ iterations"):
            step_implicit(p)


class TestEuclidean2Stepper:
    # on R^2 a potential that is sign-changing or whose support is large is
    # stepped by CG preconditioned with the Fourier multiplier
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

    def test_indefinite_system_is_stability_error(self, lap2):
        # V = 0 passes the guard, but -Laplacian makes I + dt R indefinite:
        # its symbol reaches 1 - 8 dt / h^2 at the highest frequency
        g = lap2.grid
        negated = operators.DiscreteRockland(g, -lap2.matrix, "negated Laplacian")
        dt = 0.4 * g.spacings[0] ** 2
        p = CauchyProblem(negated, Field.zeros(g), bump_field(g, 1.0), T=4 * dt, dt=dt)
        with pytest.raises(StabilityError, match="not positive definite"):
            step_implicit(p)


class TestCgStep:
    # CG starts from the Galerkin projection onto the last states and tracks
    # M d by a recurrence that only the exact resolvent M^{-1} makes exact
    @pytest.fixture
    def cg_calls(self, monkeypatch):
        calls, solver = [], solve_module._cg_solver
        monkeypatch.setattr(solve_module, "_cg_solver",
                            lambda *args: calls.append(args) or solver(*args))
        return calls

    @pytest.mark.parametrize("group, half_width, points, schedule, radius, eps, dt", [
        (euclidean(2), 2.0, 64, OmegaSchedule.polynomial(), 1.5, 0.5, 1.0 / 64),
        (heisenberg1(), 1.5, (8, 8, 16), OmegaSchedule.logarithmic(1), 2.0, 0.25, 1.0 / 32),
    ], ids=["r2", "h1"])
    def test_galerkin_start_saves_resolvent_applies(
            self, monkeypatch, cg_calls, group, half_width, points, schedule, radius, eps, dt):
        # from a zero start both took 6.0 applies per step; from the window
        # 4.44 (R^2, s = 437) and 4.31 (H1, s = 343)
        op = build_rockland(make_grid(group, half_width, points))
        g = op.grid
        V = regularize_potential(PotentialSpec.dirac_delta(), eps, schedule,
                                 Mollifier(g.dim, radius), g)
        p = CauchyProblem(op, V, bump_field(g, 1.0), T=16 * dt, dt=dt)
        applies, resolvent = [], op.resolvent
        monkeypatch.setattr(op, "resolvent",
                            lambda dt, values: applies.append(1) or resolvent(dt, values))
        step_implicit(p, keep_states=False)
        assert len(cg_calls) == 1
        assert len(applies) / p.steps <= 5.0

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_inexact_resolvent_never_returns_a_wrong_state(self, monkeypatch, cg_calls, scale):
        # the recurrence for M d is off when the resolvent is; the exit
        # check's true residual then refuses the state
        op = build_rockland(make_grid(euclidean(2), 2.0, (40, 24)))
        g = op.grid
        raw = Field.from_function(g, lambda x, y: np.cos(2.0 * x) * np.exp(-y * y)
                                  + 0.5 * np.sin(np.pi * y / 2.0))
        dt = 1.0 / 32
        V = raw * (0.5 / (dt * float(-raw.values.min())))
        p = CauchyProblem(op, V, bump_field(g, 1.0), T=0.25, dt=dt)
        exact = step_implicit(p)
        resolvent = op.resolvent
        monkeypatch.setattr(op, "resolvent", lambda dt, values: scale * resolvent(dt, values))
        try:
            scaled = step_implicit(p)
        except ConvergenceError:
            scaled = None
        assert len(cg_calls) == 2
        if scaled is not None:
            for name in ("l2", "sobolev_nu2"):
                np.testing.assert_allclose(getattr(scaled, name), getattr(exact, name),
                                           rtol=1e-12, atol=0.0, err_msg=name)


@pytest.fixture
def woodbury_calls(monkeypatch):
    """The arguments of each _woodbury_solver call that step_implicit makes."""
    calls = []
    factor = solve_module._woodbury_solver

    def counting_factor(*args):
        calls.append(args)
        return factor(*args)

    monkeypatch.setattr(solve_module, "_woodbury_solver", counting_factor)
    return calls


class TestWoodburyStepper:
    # a V >= 0 on a support small enough for the cost model is stepped
    # exactly: the resolvent plus a Cholesky-factored correction on the
    # support, built from the Green's rows (R^2: the Fourier multiplier; H1:
    # the central-frequency blocks)
    @pytest.fixture(scope="class")
    def lap64(self):
        return build_rockland(make_grid(euclidean(2), 2.0, 64))

    @pytest.fixture(scope="class")
    def sub_12_24(self):
        return build_rockland(make_grid(heisenberg1(), 1.5, (12, 12, 24)))

    @pytest.mark.parametrize("geometry, potential, eps", [
        ("r2", PotentialSpec.dirac_delta(multiplier=80.0), 0.25),
        ("r2", PotentialSpec.dirac_delta_squared(multiplier=5.0), 0.2),
        ("h1", PotentialSpec.dirac_delta(multiplier=200.0), 0.6),
        ("h1", PotentialSpec.dirac_delta_squared(multiplier=60.0), 0.6),
    ], ids=["delta", "delta2", "h1-delta", "h1-delta2"])
    def test_series_match_cg_and_lu(self, lap64, sub_12_24, woodbury_calls,
                                    geometry, potential, eps):
        op = lap64 if geometry == "r2" else sub_12_24
        g = op.grid
        V = regularize_potential(potential, eps, OmegaSchedule.polynomial(),
                                 Mollifier(g.dim, 1.5 if geometry == "r2" else 1.4), g)
        u0 = bump_field(g, 1.0, center=(0.3, -0.2, 0.1)[:g.dim])
        p = CauchyProblem(op, V, u0, T=0.25, dt=1.0 / 32)
        v = V.values.ravel()
        assert np.count_nonzero(v) ** 3 <= 3 * p.steps * op.resolvent_flops
        assert p.dt_effective * float(v.max()) >= 10.0
        traj = step_implicit(p)
        assert len(woodbury_calls) == 1
        cg = solve_module._integrate(p, solve_module._cg_solver(p, p.dt_effective, v, 0.0))
        step = lu_step(p)
        lu = solve_module._integrate(p, lambda u, k: step(u))
        for ref in (cg, lu):
            for name in ("l2", "sobolev_nu2"):
                np.testing.assert_allclose(getattr(traj, name), getattr(ref, name),
                                           rtol=1e-12, atol=0.0, err_msg=name)

    def test_error_against_oracle_halves_with_dt(self, woodbury_calls):
        # backward Euler is first order: the exact flow is its dt -> 0 limit
        op = build_rockland(make_grid(euclidean(2), 2.0, 32))
        g = op.grid
        V = regularize_potential(PotentialSpec.dirac_delta(multiplier=20.0), 0.3,
                                 OmegaSchedule.polynomial(), Mollifier(2, 1.5), g)
        u0 = bump_field(g, 1.0, center=(0.3, -0.2))
        errs = []
        for dt in (1.0 / 16, 1.0 / 32, 1.0 / 64):
            p = CauchyProblem(op, V, u0, T=0.25, dt=dt)
            diff = step_implicit(p).final.values - oracle_expm(p).final.values
            errs.append(math.sqrt(np.sum(diff**2) * g.cell_volume))
        assert len(woodbury_calls) == 3
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.6 <= coarse / fine <= 2.4

    def test_zero_potential_is_one_resolvent_per_step(self, lap64, sub_12_24, woodbury_calls):
        for op in (lap64, sub_12_24):
            g = op.grid
            u0 = bump_field(g, 1.0)
            p = CauchyProblem(op, Field.zeros(g), u0, T=1.0 / 16, dt=1.0 / 32)
            want = op.resolvent(p.dt_effective, op.resolvent(p.dt_effective, u0.values))
            np.testing.assert_array_equal(step_implicit(p).final.values.ravel(), want)
        assert len(woodbury_calls) == 2

    def test_one_full_resolvent_per_h1_step(self, sub_12_24, monkeypatch, woodbury_calls):
        # the correction acts on the support's columns of the inverse blocks,
        # not through a second full apply
        g = sub_12_24.grid
        V = regularize_potential(PotentialSpec.dirac_delta(multiplier=200.0), 0.6,
                                 OmegaSchedule.polynomial(), Mollifier(3, 1.4), g)
        p = CauchyProblem(sub_12_24, V, bump_field(g, 1.0), T=0.25, dt=1.0 / 32)
        calls, resolvent = [], sub_12_24.resolvent
        monkeypatch.setattr(sub_12_24, "resolvent",
                            lambda *args: calls.append(args) or resolvent(*args))
        step_implicit(p)
        assert len(woodbury_calls) == 1
        assert len(calls) == p.steps

    def test_indefinite_correction_is_stability_error(self):
        # a negated Laplacian makes the resolvent, and with it I + d G_S d,
        # indefinite; the resolvent's build refuses it before the factor
        op = build_rockland(make_grid(euclidean(2), 1.0, 16))
        g = op.grid
        negated = operators.DiscreteRockland(g, -op.matrix, "negated Laplacian")
        v = np.zeros(g.size)
        v[[0, 5, 40]] = 100.0
        dt = 0.4 * g.spacings[0] ** 2
        p = CauchyProblem(negated, Field(g, v.reshape(g.shape)), bump_field(g, 0.5),
                          T=4 * dt, dt=dt)
        with pytest.raises(StabilityError, match=r"I \+ dt R is not positive definite"):
            step_implicit(p)


OVERFLOW_ROWS = pytest.mark.parametrize("group, points, step", [
    (euclidean(1), (64,), 154),
    (euclidean(2), (16, 10), 155),
    (heisenberg1(), (8, 8, 8), 155),
], ids=["r1", "r2", "h1"])


def assert_overflow_names_step(solver, group, points, step, v_dt):
    """V = -v_dt / dt, where each step multiplies the constant mode by 10."""
    op = build_rockland(make_grid(group, 1.0, points))
    g = op.grid
    dt = 1.0 / 64
    p = CauchyProblem(op, Field.zeros(g) - v_dt / dt, bump_field(g, 0.5), T=400 * dt, dt=dt)
    with pytest.raises(CapabilityError, match=rf"step {step} of 400 \(t = {step * dt:g}\)"):
        solver(p)


class TestOverflow:
    # a state whose norms leave float64 range is a capability limit that
    # names its step, on every integrator and without floating-point
    # warnings (tier-1 turns RuntimeWarning into an error)
    @OVERFLOW_ROWS
    def test_step_implicit_names_step(self, group, points, step):
        # 1 / (1 - 0.9) = 10
        assert_overflow_names_step(step_implicit, group, points, step, 0.9)

    @OVERFLOW_ROWS
    def test_step_implicit_without_series_names_the_next_kept_step(self, group, points, step):
        # the 400 steps keep every 6th state, and only the kept ones are checked
        kept = -(-step // 6) * 6
        assert_overflow_names_step(lambda p: step_implicit(p, series=False),
                                   group, points, kept, 0.9)

    @OVERFLOW_ROWS
    def test_solve_duhamel_names_step(self, group, points, step):
        # (1 + 9/11) / (1 - 9/11) = 10
        assert_overflow_names_step(solve_duhamel, group, points, step, 18.0 / 11.0)

    @OVERFLOW_ROWS
    def test_oracle_expm_names_step(self, group, points, step):
        # exp(log 10) = 10
        assert_overflow_names_step(oracle_expm, group, points, step, math.log(10.0))

    @pytest.mark.parametrize("solver", [step_implicit, solve_duhamel, oracle_expm])
    def test_series_beyond_physical_memory_refused(self, solver):
        # 1e13 steps need 3.2e14 bytes of norm series: refused before any is allocated
        op = build_rockland(make_grid(euclidean(1), 1.0, 4))
        g = op.grid
        p = CauchyProblem(op, Field.zeros(g), Field(g, np.ones(g.shape)), T=1e5, dt=1e-8)
        assert p.steps == 10**13
        with pytest.raises(CapabilityError,
                           match=r"^10000000000000 steps need 320000000000032 bytes of norm"):
            solver(p)

    def test_non_finite_stored_state_names_step(self, lap32):
        # a stored state is checked before the block it sits in is full
        g = lap32.grid
        p = CauchyProblem(lap32, Field.zeros(g), bump_field(g, 1.0), T=0.5, dt=0.125)
        rec = solve_module._Recorder(p)
        assert rec.thin == 1 and len(rec.block) == 5
        rec.push(p.u0.values.ravel())
        with pytest.raises(CapabilityError, match=r"step 1 of 4 \(t = 0.125\)"):
            rec.push(np.full(g.size, np.inf))


class TestStepperRouting:
    # one factorisation where it stays O(n): the periodic tridiagonal
    # system on R.  Every other grid is solved by preconditioned CG.
    @pytest.mark.parametrize("group, points, lu_calls", [
        (euclidean(1), (32,), 1),
        (euclidean(2), (16, 10), 0),
        (heisenberg1(), (8, 8, 8), 0),
    ], ids=["r1", "r2", "h1"])
    def test_lu_only_in_one_dimension(self, monkeypatch, group, points, lu_calls):
        calls = []
        factor = solve_module._periodic_tridiagonal_solver

        def counting_factor(*args):
            calls.append(args)
            return factor(*args)

        monkeypatch.setattr(solve_module, "_periodic_tridiagonal_solver", counting_factor)
        op = build_rockland(make_grid(group, 1.5, points))
        g = op.grid
        step_implicit(CauchyProblem(op, bump_field(g, 1.0), bump_field(g, 1.125),
                                    T=0.125, dt=1.0 / 32))
        assert len(calls) == lu_calls

    # at 4 steps the cost model s^3 <= 3 * 4 * F admits s <= 128 on 64 x 48
    # (F = 5 N log2 N = 177945), s <= 65 on 8^3 (F = 23040) and s <= 125 on
    # H1 8^3 (F = 8 * 5 * 64^2 = 163840)
    @pytest.mark.parametrize("group, points, values, woodbury", [
        (euclidean(2), (64, 48), [1.0] * 128, 1),
        (euclidean(2), (64, 48), [1.0] * 129, 0),
        (euclidean(2), (64, 48), [5.0, -1.0], 0),
        (euclidean(3), (8, 8, 8), [1.0] * 65, 1),
        (euclidean(3), (8, 8, 8), [1.0] * 66, 0),
        (euclidean(1), (64,), [1.0] * 4, 0),
        (heisenberg1(), (8, 8, 8), [1.0] * 125, 1),
        (heisenberg1(), (8, 8, 8), [1.0] * 126, 0),
    ], ids=["r2-s128", "r2-s129", "r2-sign-changing", "r3", "r3-s66", "r1", "h1",
            "h1-s126"])
    def test_woodbury_only_for_a_small_nonnegative_support_on_rd(
            self, woodbury_calls, group, points, values, woodbury):
        op = build_rockland(make_grid(group, 1.5, points))
        g = op.grid
        v = np.zeros(g.size)
        v[np.arange(len(values)) * (g.size // len(values))] = values  # scattered cells
        p = CauchyProblem(op, Field(g, v.reshape(g.shape)), bump_field(g, 1.125),
                          T=1.0 / 8, dt=1.0 / 32)
        assert p.steps == 4
        step_implicit(p)
        assert len(woodbury_calls) == woodbury

    def test_support_above_the_cell_cap_runs_cg(self, monkeypatch, woodbury_calls):
        # the flop rule admits s <= 128 here; a cap of 100 cells sends s = 101 to CG
        monkeypatch.setattr(solve_module, "WOODBURY_MAX_CELLS", 100)
        op = build_rockland(make_grid(euclidean(2), 1.5, (64, 48)))
        g = op.grid
        for s in (100, 101):
            v = np.zeros(g.size)
            v[np.arange(s) * (g.size // s)] = 1.0
            step_implicit(CauchyProblem(op, Field(g, v.reshape(g.shape)),
                                        bump_field(g, 1.125), T=1.0 / 8, dt=1.0 / 32))
        assert len(woodbury_calls) == 1


def dense_duhamel_states(p):
    """The trapezoid Duhamel step on a dense eigh of the whole operator: the reference."""
    w, vecs = np.linalg.eigh(p.op.matrix.toarray())
    decay = np.exp(-p.dt_effective * np.maximum(w, 0.0))
    half_v = 0.5 * p.dt_effective * p.V.values.ravel()
    states = [p.u0.values.ravel()]
    for _ in range(p.steps):
        u = vecs @ (decay * (vecs.T @ ((1.0 - half_v) * states[-1])))
        states.append(u / (1.0 + half_v))
    return states


class TestDuhamel:
    def test_zero_potential_matches_semigroup(self, lap32):
        g = lap32.grid
        u0 = eigenvector(g, 3)
        p = CauchyProblem(lap32, Field.zeros(g), u0, T=0.5, dt=1.0 / 16)
        traj = solve_duhamel(p)
        lam = discrete_symbol(g, 3)
        for t, l2 in zip(traj.times, traj.l2):
            assert l2 == pytest.approx(math.exp(-lam * t) * traj.l2[0], rel=1e-10)

    def test_zero_potential_any_depth(self, lap32):
        # n_picard is accepted and ignored: each step is solved exactly
        g = lap32.grid
        u0 = bump_field(g, 1.5)
        p = CauchyProblem(lap32, Field.zeros(g), u0, T=0.5, dt=1.0 / 16)
        a = solve_duhamel(p, n_picard=0)
        b = solve_duhamel(p, n_picard=8)
        np.testing.assert_array_equal(b.final.values, a.final.values)

    def test_constant_potential_quadrature_order(self, lap32):
        # the trapezoid rule differs from the shifted semigroup by O(dt^2)
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
        traj = solve_duhamel(p)
        want = dense_duhamel_states(p)
        assert len(traj.states) == p.steps + 1
        for got, ref in zip(traj.states, want):
            assert np.linalg.norm(got.values.ravel() - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("v", [32.0, -32.0, 500.0, -500.0])
    def test_step_bound_is_stability_error(self, lap32, v):
        # dt max|V| = 2 and above, where the fixed-point iteration on the
        # trapezoid rule diverges and 1 + dt/2 V may vanish
        g = lap32.grid
        p = CauchyProblem(lap32, Field.zeros(g) + v, bump_field(g, 1.0), T=1.0, dt=1.0 / 16)
        with pytest.raises(StabilityError, match=rf"dt < 2/max\|V\| = {2.0 / abs(v):g}, "
                                                 r"got dt = 0.0625"):
            solve_duhamel(p)

    @pytest.mark.parametrize("v", [31.0, -31.0])
    def test_step_just_inside_the_bound_solves(self, lap32, v):
        g = lap32.grid
        p = CauchyProblem(lap32, Field.zeros(g) + v, bump_field(g, 1.0), T=1.0, dt=1.0 / 16)
        assert len(solve_duhamel(p).times) == 17


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

    @pytest.mark.parametrize("amplitude", [1.0, 0.0], ids=["bump", "zero"])
    def test_gronwall_majorant_past_float_range(self, amplitude):
        # exp(t ||V||_inf) overflows for t > 0.71: the majorant is +inf there
        # and the ratio 0, with no floating-point warning
        g = make_grid(euclidean(1), math.pi, 64)
        V = Field.zeros(g) + 1000.0
        u0 = bump_field(g, 1.5, amplitude=amplitude)
        traj = step_implicit(CauchyProblem(build_rockland(g), V, u0, T=1.0, dt=1.0 / 64))
        ratios = apriori_ratios(traj, V, u0, "RealGronwall")
        past = traj.times * 1000.0 > math.log(np.finfo(float).max)
        assert past.sum() == 19
        np.testing.assert_array_equal(ratios[past], 0.0)
        assert np.all(np.isfinite(ratios)) and np.all(ratios <= 1.0)

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
        (euclidean(2), 1.0, 32),
        (heisenberg1(), 1.5, 12),
    ], ids=["e1-256", "e2-32^2", "h1-12^3"])
    def test_quad_form_matches_t0_record(self, group, half_width, points):
        # every integrator records u0 itself at t = 0, so all agree bit for bit
        op = build_rockland(make_grid(group, half_width, points))
        u0 = bump_field(op.grid, 0.8)
        V = bump_field(op.grid, 1.0)
        l2 = math.sqrt(float(np.sum(u0.flat * u0.flat)) * op.grid.cell_volume)
        p = CauchyProblem(op, V, u0, T=0.1, dt=0.1)
        for solver in (step_implicit, solve_duhamel, oracle_expm):
            traj = solver(p)
            assert traj.l2[0] == l2
            assert math.sqrt(op.quad_form(u0)) == traj.sobolev_nu2[0]
            assert energy(u0, V, op) == traj.energy[0]
