"""Time integrators for u_t + Ru + Vu = 0.

Three routes to the same trajectory: a backward-Euler stepper (the
workhorse), a spectral Duhamel/Picard solver on the operator's
central-frequency eigensystem, and a dense eigendecomposition oracle for
cross-checks on small grids.  All of them record L2, homogeneous
order-nu/2 Sobolev and (for nonnegative V) energy series at every step,
through one recorder that buffers the states and reduces them a block at a
time (at most RECORD_BLOCK_BYTES of states per block).  The block sums are
row-wise reductions of C-contiguous arrays, so each value is bit-equal to
the one-state-at-a-time reduction.

Backward Euler solves I + dt(R + V) once per step.  On R a sparse LU,
factorised once per problem, does that cheaply: the periodic tridiagonal
fill stays linear.  In two or more dimensions the fill grows too fast (about
1.1e7 entries on a 256^2 grid, 1.1e8 on H1 at 32^3), so the system is
solved by conjugate gradients preconditioned with the operator's cached
resolvent (I + dt R)^{-1}: a Fourier multiplier on R^d, central-frequency
blocks on H1.  V is the only part that breaks the translation invariance,
and the preconditioned condition number is at most
(1 + dt max V^+)/(1 - dt max V^-), which also sizes the iteration cap.
SuperLU is imported on the first 1-D solve, not with the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import operators
from .errors import CapabilityError, ConvergenceError, StabilityError
from .groups import Field
from .norms import lp_norm
from .operators import DiscreteRockland, _from_eigenbasis, _to_eigenbasis

PICARD_TOL = 1e-12
CG_TOL = 1e-14
STATE_THIN_TARGET = 64
RECORD_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class CauchyProblem:
    """One regularised Cauchy problem: u_t + Ru + Vu = 0, u(0) = u0."""

    op: DiscreteRockland
    V: Field
    u0: Field
    T: float
    dt: float

    def __post_init__(self):
        if self.V.grid != self.op.grid or self.u0.grid != self.op.grid:
            raise ValueError("operator, potential and initial datum must share one grid")
        if self.T <= 0 or self.dt <= 0:
            raise ValueError("T and dt must be positive")
        if self.dt > self.T:
            raise ValueError(f"dt = {self.dt} exceeds T = {self.T}")

    @property
    def steps(self) -> int:
        # small backoff so T/dt = 4.999999... still means 5 steps
        return max(1, math.ceil(self.T / self.dt - 1e-9))

    @property
    def dt_effective(self) -> float:
        """Uniform step that lands exactly on T."""
        return self.T / self.steps


@dataclass(frozen=True)
class Trajectory:
    """Norm series at every step plus a thinned sequence of states.

    energy is None when the potential takes negative values; the energy
    functional is only defined for V >= 0 and the sign-changing case is
    monitored through Gronwall ratios instead.
    """

    times: np.ndarray
    l2: np.ndarray
    sobolev_nu2: np.ndarray
    energy: np.ndarray | None
    state_times: np.ndarray
    states: tuple[Field, ...]

    def __post_init__(self):
        if self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0):
            raise ValueError("times must increase strictly from 0")
        series = {"l2": self.l2, "sobolev_nu2": self.sobolev_nu2}
        if self.energy is not None:
            series["energy"] = self.energy
        for name, values in series.items():
            if len(values) != len(self.times):
                raise ValueError(
                    f"{name} has {len(values)} values for {len(self.times)} times")
            if not np.all(np.isfinite(values)) or np.any(values < 0):
                raise ValueError(f"{name} series must be finite and nonnegative")
        if len(self.states) != len(self.state_times):
            raise ValueError(
                f"{len(self.states)} states for {len(self.state_times)} state times")

    @property
    def h_nu2(self) -> np.ndarray:
        """The inhomogeneous H^{nu/2} series: l2 + sobolev_nu2."""
        return self.l2 + self.sobolev_nu2

    @property
    def final(self) -> Field:
        return self.states[-1]


class _Recorder:
    # States are copied into a (rows, N) block that is reduced once full.
    # Norms use np.sum (fixed pairwise order), not BLAS dots, so concurrent
    # sweeps are bit-stable across thread counts; each reduced operand must be
    # C-contiguous (K, N), which numpy sums row by row in the order of a 1-D
    # np.sum, so the series equal the one-state-at-a-time values bit for bit.
    def __init__(self, problem: CauchyProblem):
        grid = problem.u0.grid
        self.grid = grid
        self.vol = grid.cell_volume
        self.mat = problem.op.matrix
        self.v_flat = problem.V.values.ravel()
        self.steps = problem.steps
        self.thin = max(1, problem.steps // STATE_THIN_TARGET)
        rows = min(max(RECORD_BLOCK_BYTES // (8 * grid.size), 1),
                   STATE_THIN_TARGET, self.steps + 1)
        self.block = np.empty((rows, grid.size))
        self.k = 0
        self.filled = 0
        self.times = np.arange(self.steps + 1) * problem.dt_effective
        self.l2 = np.empty(self.steps + 1)
        self.sob = np.empty(self.steps + 1)
        self.e = np.empty(self.steps + 1) if self.v_flat.min() >= 0.0 else None
        self.state_times, self.states = [], []

    def push(self, u: np.ndarray):
        """Record u as the state at step self.k (time k * dt_effective)."""
        k = self.k
        self.block[self.filled] = u
        self.filled += 1
        if k % self.thin == 0 or k == self.steps:
            self.state_times.append(self.times[k])
            self.states.append(Field(self.grid, u.reshape(self.grid.shape)))
        self.k += 1
        if self.filled == len(self.block) or k == self.steps:
            self._flush()

    def _flush(self):
        u = self.block[:self.filled]
        span = slice(self.k - self.filled, self.k)
        self.filled = 0
        self.l2[span] = np.sqrt(np.sum(u * u, axis=1) * self.vol)
        ru = np.ascontiguousarray((self.mat @ u.T).T)
        quad = np.sum(u * ru, axis=1) * self.vol
        quad[quad < 0.0] = 0.0  # rounding may leave a tiny negative residue
        self.sob[span] = np.sqrt(quad)
        if self.e is not None:
            self.e[span] = quad + np.sum(self.v_flat * u * u, axis=1) * self.vol

    def build(self) -> Trajectory:
        return Trajectory(
            times=self.times,
            l2=self.l2,
            sobolev_nu2=self.sob,
            energy=self.e,
            state_times=np.array(self.state_times),
            states=tuple(self.states),
        )


def step_implicit(p: CauchyProblem) -> Trajectory:
    """Backward Euler: u^{n+1} = (I + dt(R + V))^{-1} u^n.

    Unconditionally contractive for V >= 0, which is what makes the discrete
    energy inequality hold step by step.  For sign-changing V the factor is
    only defined when dt * max(V^-) < 1.  One-dimensional grids solve each
    step by sparse LU, all others by preconditioned CG (see the module
    docstring).
    """
    dt = p.dt_effective
    v_flat = p.V.values.ravel()
    v_minus = max(0.0, -float(v_flat.min()))
    if v_minus > 0.0 and dt * v_minus >= 1.0:
        raise StabilityError(
            f"backward Euler needs dt < 1/max(V^-) = {1.0 / v_minus:.6g}, got dt = {dt:.6g}")
    if p.op.grid.dim == 1:
        solve = _lu_solver(p, dt, v_flat)
    else:
        solve = _cg_solver(p, dt, v_flat, v_minus)
    rec = _Recorder(p)
    u = p.u0.values.ravel().astype(float)
    rec.push(u)
    for k in range(1, p.steps + 1):
        u = solve(u, k)
        rec.push(u)
    return rec.build()


def splu(matrix):
    """SuperLU factorisation of a CSC matrix, importing scipy.sparse.linalg on first use."""
    from scipy.sparse.linalg import splu as superlu
    return superlu(matrix)


def _lu_solver(p: CauchyProblem, dt: float, v_flat: np.ndarray):
    system = sp.identity(v_flat.size, format="csr") + dt * (p.op.matrix + sp.diags(v_flat))
    try:
        lu = splu(system.tocsc())
    except RuntimeError as exc:
        raise StabilityError(f"implicit system could not be factorised: {exc}") from exc
    return lambda u, k: lu.solve(u)


def _cg_solver(p: CauchyProblem, dt: float, v_flat: np.ndarray, v_minus: float):
    """CG on I + dt(R + V), preconditioned with M = I + dt R.

    M^{-1}(I + dt(R + V)) = I + dt M^{-1} V has its spectrum in
    [1 - dt max V^-, 1 + dt max V^+] because M >= I, so kappa is at most
    their ratio.  From x0 = 0 the residual then obeys
    |r_k| / |b| <= 2 sqrt(kappa |M|) ((sqrt(kappa) - 1)/(sqrt(kappa) + 1))^k,
    with |M| bounded by its largest absolute row sum (Gershgorin).  The cap
    is the k that guarantees CG_TOL in exact arithmetic, using
    log(1/rho) >= 2/sqrt(kappa).  Inner products use np.sum, as _Recorder
    does, so trajectories are bit-stable across thread counts.
    """
    op = p.op
    mat = op.matrix
    dt_v = dt * v_flat
    kappa = (1.0 + dt * max(float(v_flat.max()), 0.0)) / (1.0 - dt * v_minus)
    m_norm = 1.0 + dt * float(abs(mat).sum(axis=1).max())
    cap = math.ceil(0.5 * math.sqrt(kappa)
                    * math.log(2.0 * math.sqrt(kappa * m_norm) / CG_TOL))

    def solve(b: np.ndarray, k: int) -> np.ndarray:
        x = np.zeros_like(b)
        b_norm = math.sqrt(float(np.sum(b * b)))
        if b_norm == 0.0:
            return x
        r = b.copy()
        z = op.resolvent(dt, r)
        d = z
        rz = float(np.sum(r * z))
        for _ in range(cap):
            q = d + dt * (mat @ d) + dt_v * d
            alpha = rz / float(np.sum(d * q))
            x += alpha * d
            r -= alpha * q
            residual = math.sqrt(float(np.sum(r * r))) / b_norm
            if residual <= CG_TOL:
                return x
            z = op.resolvent(dt, r)
            rz_next = float(np.sum(r * z))
            d = z + (rz_next / rz) * d
            rz = rz_next
        raise ConvergenceError(
            f"preconditioned CG stalled at step {k} of {p.steps}: relative residual "
            f"{residual:.3e} > {CG_TOL:g} after {cap} iterations")

    return solve


def solve_duhamel(p: CauchyProblem, n_picard: int = 8) -> Trajectory:
    """Picard iteration on u(t) = e^{-tR}u0 - int_0^t e^{-(t-s)R} (V u)(s) ds.

    The iterates are kept as coefficients in the operator's eigenbasis, one
    set per central frequency (``DiscreteRockland.eigensystem``), where the
    semigroup is diagonal.  V u is formed in physical space, with the FFTs
    and block products batched over all time steps.  The time integral is a
    trapezoid rule on the solver's own dt-grid, accumulated by the one-step
    recurrence I_k = e^{-dt R} I_{k-1} + dt/2 (e^{-dt R} f_{k-1} + f_k).
    Iteration stops early once the relative sup-over-t L2 update drops below
    PICARD_TOL.
    """
    if n_picard < 0:
        raise ValueError("n_picard must be nonnegative")
    w, vecs = p.op.eigensystem()
    n_c = p.op.grid.points[-1]
    dt = p.dt_effective
    steps = p.steps
    # Parseval weights: frequencies 0 < k < n_c/2 also stand for n_c - k
    mult = np.full((w.shape[0], 1, 1), 2.0)
    mult[0] = 1.0
    if n_c % 2 == 0:
        mult[-1] = 1.0
    c0 = _to_eigenbasis(vecs, p.u0.values.reshape(1, -1, n_c))[:, :, 0]
    decay = np.exp(-dt * w)
    hom = np.empty(w.shape + (steps + 1,), dtype=complex)
    hom[..., 0] = c0
    for k in range(1, steps + 1):
        hom[..., k] = decay * hom[..., k - 1]

    potential = p.V.values.reshape(1, -1, n_c)
    coeff = hom.copy()
    rel_update = 0.0
    for _ in range(n_picard):
        src = _to_eigenbasis(vecs, -potential * _from_eigenbasis(vecs, coeff, n_c))
        new = np.empty_like(coeff)
        new[..., 0] = c0
        integral = np.zeros_like(c0)
        for k in range(1, steps + 1):
            integral = decay * integral + 0.5 * dt * (decay * src[..., k - 1] + src[..., k])
            new[..., k] = hom[..., k] + integral
        num = float(np.max(np.sqrt(np.sum(mult * np.abs(new - coeff) ** 2, axis=(0, 1)))))
        den = float(np.max(np.sqrt(np.sum(mult * np.abs(new) ** 2, axis=(0, 1)))))
        rel_update = num / den if den > 0.0 else 0.0
        coeff = new
        if rel_update <= PICARD_TOL:
            break
    if rel_update > 1.0:
        raise ConvergenceError(
            f"Picard iteration is diverging: relative update {rel_update:.3g} "
            f"after {n_picard} sweeps; shorten T or shrink the potential")

    phys = _from_eigenbasis(vecs, coeff, n_c)
    rec = _Recorder(p)
    for k in range(steps + 1):
        rec.push(phys[k].ravel())
    return rec.build()


def oracle_expm(p: CauchyProblem) -> Trajectory:
    """Exact flow e^{-t(R + V)}u0 by dense eigendecomposition.

    Brute force and independent of the steppers above, so it serves as the
    convergence reference.  Grids above ``SPECTRAL_DOF_LIMIT`` dof are
    refused.
    """
    n = p.u0.values.size
    limit = operators.SPECTRAL_DOF_LIMIT
    if n > limit:
        raise CapabilityError(
            f"dense oracle needs dof <= {limit}, grid has {n}; use a smaller grid")
    ham = p.op.matrix.toarray() + np.diag(p.V.values.ravel())
    ham = 0.5 * (ham + ham.T)
    w, vecs = np.linalg.eigh(ham)
    c0 = vecs.T @ p.u0.values.ravel()
    dt = p.dt_effective
    rec = _Recorder(p)
    for k in range(p.steps + 1):
        rec.push(vecs @ (np.exp(-k * dt * w) * c0))
    return rec.build()


def energy(u: Field, V: Field, op: DiscreteRockland) -> float:
    """E(u) = ||R^{1/2} u||_{L2}^2 + ||V^{1/2} u||_{L2}^2, for V >= 0."""
    if u.grid != op.grid or V.grid != op.grid:
        raise ValueError("field, potential and operator must share one grid")
    if float(V.values.min()) < 0.0:
        raise ValueError(
            "energy is defined for nonnegative potentials only; monitor "
            "sign-changing V through apriori_ratios(..., 'RealGronwall')")
    quad = op.quad_form(u)
    return quad + float(np.sum(V.values * u.values * u.values)) * u.grid.cell_volume


_RATIO_KINDS = ("PosLinf", "PosLp", "RealGronwall")


def apriori_ratios(traj: Trajectory, V: Field, u0: Field, which: str,
                   nu: int = 2) -> np.ndarray:
    """Measured norm divided by its a-priori majorant, per recorded time.

    PosLinf:      ||u(t)||_{H^{nu/2}} / [(1 + ||V||_inf) ||u0||_{H^{nu/2}}]
    PosLp:        same numerator over
                  ||u0||_{H^{nu/2}} (1 + ||V||_{2Q/nu}) (1 + ||V||_{Q/nu})^{1/2},
                  requires Q > nu
    RealGronwall: ||u(t)||_{L2} / [exp(t ||V||_inf) ||u0||_{L2}]

    The u0 norms of the first two are read off the trajectory's t = 0 record.
    A zero initial datum gives identically zero ratios.
    """
    if which not in _RATIO_KINDS:
        raise ValueError(f"which must be one of {_RATIO_KINDS}, got {which!r}")
    if which == "RealGronwall":
        bound = np.exp(traj.times * float(np.abs(V.values).max())) * lp_norm(u0, 2)
        return _safe_ratio(traj.l2, bound)
    if which == "PosLp":
        Q = V.grid.group.Q
        if Q <= nu:
            raise ValueError(f"PosLp majorant needs Q > nu, got Q = {Q}, nu = {nu}")
        bracket = (1.0 + lp_norm(V, 2.0 * Q / nu)) * math.sqrt(1.0 + lp_norm(V, Q / nu))
    else:
        bracket = 1.0 + float(np.abs(V.values).max())
    h_nu2 = traj.h_nu2
    return _safe_ratio(h_nu2, np.full_like(h_nu2, bracket * h_nu2[0]))


def _safe_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num)
    mask = den > 0.0
    out[mask] = num[mask] / den[mask]
    return out
