"""Time integrators for u_t + Ru + Vu = 0.

Three routes to the same trajectory: a backward-Euler stepper (the
workhorse), a trapezoid-rule Duhamel stepper that applies e^{-dt R} through
``operators.spectral_map``, and a dense eigendecomposition oracle for
cross-checks on small grids.  Each one only builds its step map
u^k = advance(u^{k-1}, k); one loop runs it and, by default, records L2,
homogeneous order-nu/2 Sobolev and (for nonnegative V) energy series at
every step, through one recorder that buffers the states and reduces them a
block at a time (at most RECORD_BLOCK_BYTES of states per block), and keeps
about STATE_THIN_TARGET thinned states.  The block sums are row-wise
reductions of C-contiguous arrays, so each value is bit-equal to the
one-state-at-a-time reduction.  Callers of backward Euler ask for what they
read: an existence sweep for the series only (keep_states=False), a
uniqueness or consistency sweep, which reads the L2 distance between
thinned states, for the states only (series=False), which skips the
recorder: no state is copied and no norm is reduced but one sum(u*u) per
kept state.  `gradedheat solve`, the demos and the Duhamel and oracle
routes record both.  A step count whose series alone exceed the physical
memory is refused as a CapabilityError before any of them is allocated,
with or without series.

Backward Euler solves I + dt(R + V) once per step, by one of three routes
chosen from the problem alone.  On R that system is periodic tridiagonal,
and positive definite under the stability guard: a rank-one
Sherman-Morrison correction takes off the two wrap-around corners, LAPACK
dpttrf factorises the tridiagonal rest once per problem, and each step is
one dpttrs plus the correction, all O(n).  In two or more dimensions a
direct factorisation fills in too fast (about 1.1e7 entries on a 256^2
grid, 1.1e8 on H1 at 32^3).  There V is the only part that breaks the
invariance of M = I + dt R (under every grid translation on R^d, along the
central axis c on H1), whose inverse is the operator's cached resolvent: a
Fourier multiplier on R^d, central-frequency blocks on H1.

A V >= 0 supported on s of the cells is a rank-s correction to M, and the
Woodbury identity solves the step exactly: an s x s positive definite
system built from the Green's rows of M between the cells of the support
(``DiscreteRockland.support_resolvent``), factorised once per problem by
LAPACK dpptrf; each step is one resolvent apply, one dpptrs (2 s^2 flops)
and M^{-1} of a vector supported on the s cells, which on H1 reads only the
support's columns of the inverse blocks, with no tolerance and no
iteration.  The mollified delta and delta^2 nets
shrink onto such supports as eps falls.  The cost model picks this route
iff its factor, s^3/3 flops, costs no more than one resolvent apply per
step: s^3 <= WOODBURY_FLOPS_RATIO * steps * F, with F the operator's
``resolvent_flops`` (5 N log2 N on R^d, 8 (n_c/2 + 1) m^2 on H1).  CG
spent 6-10 applies per step on these problems when the ratio was chosen and
spends about 4-5 from its Galerkin start, so the factor is still repaid
within the run.  A second clause, s <= WOODBURY_MAX_CELLS, keeps the
packed factor (4 s^2 bytes) under 256 MiB and its bits independent of the
BLAS thread count (see _woodbury_solver).

Every other problem (a sign-changing V, a larger support) is solved by
conjugate gradients preconditioned with M^{-1}; the preconditioned
condition number is at most (1 + dt max V^+)/(1 - dt max V^-), which also
sizes the iteration cap.  Each step solves the same system for the last
state, so CG starts from the Galerkin projection of the solution onto the
span of the last _CG_WINDOW states (the projection start for successive
right-hand sides), read off their inner products with no resolvent apply.
Since the resolvent is M^{-1} exactly, M d is carried by recurrence, and an
iteration costs one resolvent apply and no sparse product; one sparse
product at exit checks the true residual b - A x, which a resolvent that is
not M^{-1} fails (see _cg_solver).  The window keeps _CG_WINDOW + 1 states
of each CG problem alive, 16.8 MB per state on a 64 x 64 x 512 grid.

scipy.linalg.lapack is imported on the first 1-D or Woodbury solve or H1
resolvent, not with the package.  A state whose norms leave float64 range
is reported as a CapabilityError naming the step, found where the recorder
already reads the states: at each stored state and each block of norms.
Without series only the kept states are read, and the error names the first
kept step at or after the overflow (at most thin - 1 steps later): every
step map carries a non-finite state forward, and the last state is always
kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators
from .errors import CapabilityError, ConvergenceError, StabilityError
from .groups import Field
from .norms import lp_norm
from .operators import DiscreteRockland

CG_TOL = 1e-14
# a V >= 0 on s cells is stepped by Woodbury iff s^3 <= WOODBURY_FLOPS_RATIO
# * steps * resolvent_flops (its s^3/3-flop factor costs at most one apply per
# step) and s <= WOODBURY_MAX_CELLS
WOODBURY_FLOPS_RATIO = 3
WOODBURY_MAX_CELLS = 8192
STATE_THIN_TARGET = 64
RECORD_BLOCK_BYTES = 1 << 18
# CG starts from the Galerkin projection onto this many last states.  Resolvent
# applies per step on the CG eps of e2_existence (1/2, 1/4) and h1_existence
# (0.25): 4.12, 4.81, 5.25 with 3 states; 3.81, 4.28, 5.19 with 4; 3.59, 4.19,
# 4.62 with 5; 3.44, 4.16, 4.62 with 6 and 3.44, 4.28, 4.62 with 8
_CG_WINDOW = 5


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
        if not math.isfinite(self.T / self.dt):
            raise ValueError(f"T/dt must be finite, got T = {self.T}, dt = {self.dt}")
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
    """Norm series at every step plus a thinned sequence of states, or one of the two.

    energy is None when the potential takes negative values; the energy
    functional is only defined for V >= 0 and the sign-changing case is
    monitored through Gronwall ratios instead.  A trajectory solved with
    series=False records no series: l2, sobolev_nu2 and energy are None.
    """

    times: np.ndarray
    l2: np.ndarray | None
    sobolev_nu2: np.ndarray | None
    energy: np.ndarray | None
    state_times: np.ndarray
    states: tuple[Field, ...]

    def __post_init__(self):
        if self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0):
            raise ValueError("times must increase strictly from 0")
        series = {"l2": self.l2, "sobolev_nu2": self.sobolev_nu2, "energy": self.energy}
        for name, values in series.items():
            if values is None:
                continue
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
        _require_series(self)
        return self.l2 + self.sobolev_nu2

    @property
    def final(self) -> Field:
        if not self.states:
            raise ValueError("the trajectory keeps no states (solved with keep_states=False)")
        return self.states[-1]


def _require_series(traj: Trajectory):
    if traj.l2 is None or traj.sobolev_nu2 is None:
        raise ValueError("the trajectory records no norm series (solved with series=False)")


class _Recorder:
    # States are copied into a (rows, N) block that is reduced once full.
    # Norms use np.sum (fixed pairwise order), not BLAS dots, so concurrent
    # sweeps are bit-stable across thread counts; each reduced operand must be
    # C-contiguous (K, N), which numpy sums row by row in the order of a 1-D
    # np.sum, so the series equal the one-state-at-a-time values bit for bit.
    def __init__(self, problem: CauchyProblem, keep_states: bool = True):
        _check_series_fit(problem.steps)
        grid = problem.u0.grid
        self.grid = grid
        self.vol = grid.cell_volume
        self.mat = problem.op.matrix
        self.v_flat = problem.V.values.ravel()
        self.steps = problem.steps
        self.thin = max(1, problem.steps // STATE_THIN_TARGET)
        self.keep_states = keep_states
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
        self.k += 1
        if self.keep_states and (k % self.thin == 0 or k == self.steps):
            if not np.all(np.isfinite(u)):
                self._flush()  # raises, naming the first step out of range
            self.state_times.append(self.times[k])
            self.states.append(Field(self.grid, u.reshape(self.grid.shape)))
        if self.filled == len(self.block) or k == self.steps:
            self._flush()

    def _flush(self):
        u = self.block[:self.filled]
        start = self.k - self.filled
        self.filled = 0
        with np.errstate(over="ignore", invalid="ignore"):
            l2 = np.sqrt(np.sum(u * u, axis=1) * self.vol)
            ru = np.ascontiguousarray((self.mat @ u.T).T)
            quad = np.sum(u * ru, axis=1) * self.vol
            quad[quad < 0.0] = 0.0  # rounding may leave a tiny negative residue
            e = (None if self.e is None
                 else quad + np.sum(self.v_flat * u * u, axis=1) * self.vol)
        finite = np.isfinite(l2) & np.isfinite(quad)
        if e is not None:
            finite &= np.isfinite(e)
        if not finite.all():
            k = start + int(np.argmin(finite))
            raise _overflow(k, self.steps, self.times[k])
        span = slice(start, self.k)
        self.l2[span] = l2
        self.sob[span] = np.sqrt(quad)
        if e is not None:
            self.e[span] = e

    def build(self) -> Trajectory:
        return Trajectory(
            times=self.times,
            l2=self.l2,
            sobolev_nu2=self.sob,
            energy=self.e,
            state_times=np.array(self.state_times),
            states=tuple(self.states),
        )


def _check_series_fit(steps: int):
    """Refuse a step count whose norm series alone exceed the physical memory."""
    memory = operators._physical_memory()
    series_bytes = 32 * (steps + 1)  # times, l2, sobolev_nu2 and energy
    if memory is not None and memory < series_bytes:
        raise CapabilityError(
            f"{steps} steps need {series_bytes} bytes of norm series, more than the "
            f"{memory} bytes of physical memory; lengthen dt or shorten T")


def _overflow(k: int, steps: int, t: float) -> CapabilityError:
    return CapabilityError(
        f"the state's norms leave float64 range at step {k} of {steps} "
        f"(t = {t:.6g}); shorten T or weaken the potential")


def _integrate(p: CauchyProblem, advance, keep_states: bool = True,
               series: bool = True) -> Trajectory:
    """The trajectory of u = advance(u, k), k = 1 .. p.steps, from u0.

    With series, the recorder reduces the norm series of every state and
    reports a state that overflows, at each stored state and each block of
    norms.  Without series, only every thin-th state and the last one are
    kept, thin = max(1, p.steps // STATE_THIN_TARGET), with no copy and no
    reduction of the others; a kept state whose sum(u*u) is not finite is
    reported as a CapabilityError naming its step.  The steppers carry a
    non-finite state forward (CG returns NaN for a non-finite right-hand
    side), and the last state is always kept, so an overflow is never
    missed, only named at the first kept step at or after it.  Either way
    the steps raise no floating-point warning, and a step count whose
    series would not fit the physical memory is refused up front.
    """
    u = p.u0.values.ravel().astype(float)
    if series:
        rec = _Recorder(p, keep_states)
        rec.push(u)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, p.steps + 1):
                u = advance(u, k)
                rec.push(u)
        return rec.build()
    _check_series_fit(p.steps)
    steps, grid = p.steps, p.u0.grid
    thin = max(1, steps // STATE_THIN_TARGET)
    times = np.arange(steps + 1) * p.dt_effective
    kept, states = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            if k:
                u = advance(u, k)
            if k % thin == 0 or k == steps:
                if not math.isfinite(np.sum(u * u)):
                    raise _overflow(k, steps, times[k])
                kept.append(k)
                states.append(Field(grid, u.reshape(grid.shape)))
    return Trajectory(times=times, l2=None, sobolev_nu2=None, energy=None,
                      state_times=times[kept], states=tuple(states))


def step_implicit(p: CauchyProblem, keep_states: bool = True,
                  series: bool = True) -> Trajectory:
    """Backward Euler: u^{n+1} = (I + dt(R + V))^{-1} u^n.

    Unconditionally contractive for V >= 0, which is what makes the discrete
    energy inequality hold step by step.  For sign-changing V the factor is
    only defined when dt * max(V^-) < 1.  One-dimensional grids solve each
    step by a periodic tridiagonal LAPACK solve.  On R^d with d >= 2 and on
    H1, a V >= 0 on s <= WOODBURY_MAX_CELLS cells with
    s^3 <= WOODBURY_FLOPS_RATIO * steps * F, F the operator's
    resolvent_flops, is solved exactly by the resolvent plus a
    Cholesky-factored correction on its support: one resolvent apply, two
    triangular solves of size s and the resolvent of the correction, read
    from the support's columns on H1, per step.  V = 0 takes one
    resolvent apply per step.  All other problems run preconditioned CG
    (see the module docstring).  The route reads only the problem, never
    the cores, and the Woodbury factor has the same bits at any BLAS thread
    count, so its series do not depend on the worker count or the CPU
    affinity.  keep_states=False records the norm series only, as an
    existence sweep asks; series=False keeps the thinned states only, with
    no norm series, as uniqueness and consistency ask (see _integrate).
    Asking for neither is a ValueError.
    """
    if not (keep_states or series):
        raise ValueError("a trajectory needs its states, its norm series or both")
    dt = p.dt_effective
    v_flat = p.V.values.ravel()
    v_minus = max(0.0, -float(v_flat.min()))
    if v_minus > 0.0 and dt * v_minus >= 1.0:
        raise StabilityError(
            f"backward Euler needs dt < 1/max(V^-) = {1.0 / v_minus:.6g}, got dt = {dt:.6g}")
    if p.op.grid.dim == 1:
        return _integrate(p, _periodic_tridiagonal_solver(p, dt, v_flat), keep_states, series)
    s = np.count_nonzero(v_flat)
    if (v_minus == 0.0 and s <= WOODBURY_MAX_CELLS
            and s**3 <= WOODBURY_FLOPS_RATIO * p.steps * p.op.resolvent_flops):
        return _integrate(p, _woodbury_solver(p, dt, v_flat), keep_states, series)
    return _integrate(p, _cg_solver(p, dt, v_flat, v_minus), keep_states, series)


def splu(matrix):
    """SuperLU factorisation of a CSC matrix, importing scipy.sparse.linalg on first use."""
    # no solver calls it; kept for the benchmark's tracer, which wraps it by name
    from scipy.sparse.linalg import splu as superlu
    return superlu(matrix)


def _periodic_tridiagonal_solver(p: CauchyProblem, dt: float, v_flat: np.ndarray):
    """Each step of backward Euler on R: A = I + dt(R + V), periodic tridiagonal.

    A has diagonal a, off-diagonal b (b[i] = A[i, i+1]) and the corners
    c = A[0, n-1] = A[n-1, 0].  With beta = a[0] and w = beta e_0 - c e_{n-1},
    T = A + w w^T / beta is tridiagonal: the corners cancel, and beta and
    c^2 / beta join the first and last diagonal entries.  LAPACK dpttrf
    factorises T once; each step is one dpttrs and the Sherman-Morrison
    correction A^{-1} y = T^{-1} y + z (w . T^{-1} y) / (beta - w . z), with
    z = T^{-1} w.  A is positive definite iff beta > 0, T is positive
    definite and beta - w . z > 0, which the stability guard ensures for a
    PSD R; where any of them fails, StabilityError is raised.  An R with any
    other stencil is refused.  scipy.linalg.lapack is imported on the first
    call, not with the package.
    """
    from scipy.linalg.lapack import dpttrf, dpttrs

    mat = p.op.matrix
    n = v_flat.size
    coo = mat.tocoo()
    offsets = np.unique((coo.col - coo.row)[coo.data != 0] % n)
    offsets = np.where(offsets > n // 2, offsets - n, offsets)
    if np.any(np.abs(offsets) > 1):
        raise CapabilityError(
            f"the 1-D stepper needs a periodic tridiagonal R (stencil offsets -1, 0, 1); "
            f"{p.op.name} has stencil offsets {sorted(offsets.tolist())}")
    a = 1.0 + dt * (mat.diagonal() + v_flat)
    b = dt * mat.diagonal(1)
    c = dt * float(mat.diagonal(n - 1)[0])
    beta = float(a[0])
    w = np.zeros(n)
    w[0], w[-1] = beta, -c
    a[0] += beta  # beta <= 0 leaves a[0] <= 0, where dpttrf stops at row 1
    a[-1] += c * c / beta if beta > 0.0 else 0.0
    d, e, info = dpttrf(a, b)  # T = L diag(d) L^T, e the subdiagonal of L
    if info == 0:
        z = dpttrs(d, e, w)[0]
        denom = beta - (beta * float(z[0]) - c * float(z[-1]))
    if info != 0 or denom <= 0.0:
        raise StabilityError(
            "implicit system could not be factorised: I + dt(R + V) is not positive definite")
    z /= denom

    buf = np.empty(n)

    def solve(u: np.ndarray, k: int) -> np.ndarray:
        y = dpttrs(d, e, u)[0]
        # y += (w . y) z with no temporary, in the same operations and order
        np.multiply(z, beta * float(y[0]) - c * float(y[-1]), out=buf)
        np.add(y, buf, out=y)
        return y

    return solve


def _woodbury_solver(p: CauchyProblem, dt: float, v_flat: np.ndarray):
    """Each step of backward Euler for V >= 0, exact on the support S of V.

    With M = I + dt R, P the injection of S's s cells and d = sqrt(dt V_S),
    I + dt(R + V) = M + P d^2 P^T, and the Woodbury identity gives
    (I + dt(R + V))^{-1} u = y - M^{-1} P d C^{-1} d y_S, with y = M^{-1} u and
    C = I + d G_S d, G_S = P^T M^{-1} P the operator's Green's rows between
    the cells of S.  C is positive definite because M^{-1} is; its packed
    upper triangle is written a chunk of Green's rows at a time, and LAPACK
    dpptrf factorises it once per problem (info != 0 is a StabilityError).
    Each step is one resolvent apply, one dpptrs and M^{-1} P of the
    correction, which ``DiscreteRockland.support_resolvent`` applies: on
    R^d with the bits of a resolvent apply, on H1 by the support's
    columns of the inverse blocks, gathered once with the Green's rows.
    The upper packed routines run dtpsv and ddot, which OpenBLAS runs on
    the calling thread (ddot up to 10000 elements, so for s <=
    WOODBURY_MAX_CELLS): their bits do not depend on the BLAS thread
    count, and they wake no BLAS threads to spin against numpy's on H1.
    The lower packed dpptrf threads its dspr, which made an H1 solve
    outside a sweep pool about twice as slow; dpotrf's blocked factor
    changes bits with the thread count from s = 128 on.
    scipy.linalg.lapack is imported on the first call, not with the
    package.
    """
    from scipy.linalg.lapack import dpptrf, dpptrs

    op = p.op
    support = np.flatnonzero(v_flat)
    s = support.size
    if s == 0:
        return lambda u, k: op.resolvent(dt, u)
    d = np.sqrt(dt * v_flat[support])
    scattered_resolvent, green_rows = op.support_resolvent(dt, support)
    # C is symmetric: row i of its lower triangle is column i of its packed upper triangle
    packed = np.empty(s * (s + 1) // 2)
    i = at = 0
    for rows in green_rows:
        rows *= d
        rows *= d[i:i + len(rows), None]
        for row in rows:
            row[i] += 1.0
            packed[at:at + i + 1] = row[:i + 1]
            at += i + 1
            i += 1
    factor, info = dpptrf(s, packed, lower=0, overwrite_ap=1)
    if info != 0:
        raise StabilityError(
            "implicit system could not be factorised: the Woodbury matrix I + d G_S d "
            "is not positive definite")

    def solve(u: np.ndarray, k: int) -> np.ndarray:
        y = op.resolvent(dt, u)
        w = dpptrs(s, factor, d * y[support], lower=0)[0]
        y -= scattered_resolvent(d * w)
        return y

    return solve


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The inner product by a reduction that calls no BLAS, so its bits do not
    depend on the BLAS thread count."""
    return float(np.einsum("i,i->", a, b))


def _cg_solver(p: CauchyProblem, dt: float, v_flat: np.ndarray, v_minus: float):
    """CG on A = I + dt(R + V), preconditioned with M = I + dt R.

    M^{-1} A = I + dt M^{-1} V has its spectrum in
    [1 - dt max V^-, 1 + dt max V^+] because M >= I, so kappa is at most
    their ratio.  The A-norm error then obeys
    |e_k|_A <= 2 rho^k |e_0|_A, rho = (sqrt(kappa) - 1)/(sqrt(kappa) + 1),
    and from |e_0|_A <= |x*|_A the residual obeys
    |r_k| / |b| <= 2 sqrt(kappa |M|) rho^k, with |M| bounded by its largest
    absolute row sum (Gershgorin).  The cap is the k that guarantees CG_TOL
    in exact arithmetic, using log(1/rho) >= 2/sqrt(kappa).

    Start.  The step's right-hand side is the last state, and the stored
    states satisfy A u^{j+1} = u^j (to CG_TOL), so CG starts from the
    A-orthogonal projection x0 of x* = A^{-1} b onto the span of the last
    _CG_WINDOW states.  Its K x K Galerkin system is read off the inner
    products of the K + 1 stored states, with no resolvent apply, and is
    solved by lstsq; r0 = b - A x0 is one sparse product.  Since 0 lies in
    the span, |x* - x0|_A <= |x*|_A, so the cap's bound still holds.  The
    window keeps K + 1 states alive per CG problem (16.8 MB per state on a
    64 x 64 x 512 grid); it holds the returned states themselves, which are
    never written to, as a trajectory keeps views of them.

    Iteration.  The resolvent applies M^{-1} exactly, so with z_k = M^{-1} r_k
    and d_k = z_k + beta_k d_{k-1}, M d_k = r_k + beta_k M d_{k-1}: the
    product A d = M d + dt V d needs no sparse product, and V is applied on
    its support only.  One resolvent apply per iteration is the whole cost.

    Exit check.  The recurrence is exact only when the resolvent is.  Once
    the recursive residual meets CG_TOL, b - A x is evaluated once with one
    sparse product; if it exceeds
    CG_TOL |b| + gamma_w (|M|_inf + dt max|V|) |x|, the rounding bound of
    that product (gamma_w = w u / (1 - w u), w the nonzeros in a row of R
    plus the three other terms of a row of b - A x), CG goes on from that
    residual within the same cap.  So a resolvent that is not M^{-1} ends in
    ConvergenceError, never in a wrong state.  Inner products use _dot, as
    the recorder's norms use np.sum, so trajectories are bit-stable across
    thread counts.
    """
    op = p.op
    mat = op.matrix
    support = np.flatnonzero(v_flat)
    dt_v = dt * v_flat[support]
    kappa = (1.0 + dt * max(float(v_flat.max()), 0.0)) / (1.0 - dt * v_minus)
    m_norm = 1.0 + dt * float(abs(mat).sum(axis=1).max())
    cap = math.ceil(0.5 * math.sqrt(kappa)
                    * math.log(2.0 * math.sqrt(kappa * m_norm) / CG_TOL))
    w = int(np.diff(mat.indptr).max()) + 3
    unit = np.finfo(float).eps / 2.0
    slack = w * unit / (1.0 - w * unit) * (m_norm + dt * float(np.abs(v_flat).max()))
    # the last states, each the right-hand side of the next, with their Gram matrix
    states: list[np.ndarray] = []
    gram = np.empty((_CG_WINDOW + 1, _CG_WINDOW + 1))
    r, d, md, q, work = (np.empty(v_flat.size) for _ in range(5))

    def residual(b: np.ndarray, x: np.ndarray) -> float:
        """r = b - A x by one sparse product; returns |r|."""
        np.multiply(mat @ x, dt, out=r)
        np.add(r, x, out=r)
        r[support] += dt_v * x[support]
        np.subtract(b, r, out=r)
        return math.sqrt(_dot(r, r))

    def start(b: np.ndarray) -> np.ndarray:
        """x0, the Galerkin start, with r = b - A x0."""
        if not states or states[-1] is not b:
            states[:] = [b]
            gram[0, 0] = _dot(b, b)
        m = len(states) - 1  # basis states[1:], their images states[:-1]
        if m == 0:
            np.copyto(r, b)
            return np.zeros_like(b)
        c = np.linalg.lstsq(gram[1:m + 1, :m], gram[1:m + 1, m], rcond=None)[0]
        x = states[1] * c[0]
        for ci, state in zip(c[1:], states[2:]):
            np.multiply(state, ci, out=work)
            x += work
        residual(b, x)
        return x

    def keep(x: np.ndarray) -> np.ndarray:
        if len(states) > _CG_WINDOW:
            del states[0]
            gram[:_CG_WINDOW, :_CG_WINDOW] = gram[1:, 1:].copy()
        states.append(x)
        last = len(states) - 1
        for i, state in enumerate(states):
            gram[last, i] = gram[i, last] = _dot(x, state)
        return x

    def solve(b: np.ndarray, k: int) -> np.ndarray:
        b_norm = math.sqrt(_dot(b, b))
        if b_norm == 0.0:
            return np.zeros_like(b)
        if not math.isfinite(b_norm):
            # u left float64 range: pass that on for the recorder to report
            return np.full_like(b, np.nan)
        x = start(b)
        tol = CG_TOL * b_norm
        r_norm = math.sqrt(_dot(r, r))
        if r_norm <= tol:
            return keep(x)
        fresh = True
        for _ in range(cap):
            if fresh:
                z = op.resolvent(dt, r)
                np.copyto(d, z)
                np.copyto(md, r)
                rz = _dot(r, z)
                fresh = False
            np.copyto(q, md)
            q[support] += dt_v * d[support]
            alpha = rz / _dot(d, q)
            np.multiply(d, alpha, out=work)
            x += work
            np.multiply(q, alpha, out=work)
            np.subtract(r, work, out=r)
            r_norm = math.sqrt(_dot(r, r))
            if r_norm <= tol:
                r_norm = residual(b, x)
                if r_norm <= tol + slack * math.sqrt(_dot(x, x)):
                    return keep(x)
                fresh = True
                continue
            z = op.resolvent(dt, r)
            rz_next = _dot(r, z)
            beta = rz_next / rz
            np.multiply(d, beta, out=d)
            np.add(d, z, out=d)
            np.multiply(md, beta, out=md)
            np.add(md, r, out=md)
            rz = rz_next
        raise ConvergenceError(
            f"preconditioned CG stalled at step {k} of {p.steps}: relative residual "
            f"{r_norm / b_norm:.3e} > {CG_TOL:g} after {cap} iterations")

    return solve


def solve_duhamel(p: CauchyProblem, n_picard: int | None = None) -> Trajectory:
    """Trapezoid rule on u(t) = e^{-tR}u0 - int_0^t e^{-(t-s)R} (V u)(s) ds.

    On the solver's own dt-grid the rule reads
    u_k = e^{-dt R}(u_{k-1} - dt/2 V u_{k-1}) - dt/2 V u_k, and V is
    diagonal, so each step is solved for u_k exactly:
    u_k = (1 + dt/2 V)^{-1} e^{-dt R}((1 - dt/2 V) u_{k-1}).
    e^{-dt R} is diagonal in the operator's eigenbasis, one set of
    eigenvectors per central frequency (``DiscreteRockland.eigensystem``).
    The rule is refused with StabilityError unless dt max|V| < 2, where
    (1 + dt/2 V) is positive and the fixed-point iteration on the rule
    converges (its error map is lower triangular with diagonal -dt/2 V).
    n_picard is accepted and ignored; the benchmark's workload passes it.
    """
    dt = p.dt_effective
    v_flat = p.V.values.ravel()
    v_max = float(np.abs(v_flat).max())
    if dt * v_max >= 2.0:
        raise StabilityError(f"the trapezoid Duhamel step needs dt < 2/max|V| = "
                             f"{2.0 / v_max:.6g}, got dt = {dt:.6g}")
    decay = operators.spectral_map(p.op, lambda w: np.exp(-dt * w))
    before, after = 1.0 - 0.5 * dt * v_flat, 1.0 + 0.5 * dt * v_flat
    return _integrate(p, lambda u, k: decay(before * u) / after)


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
    return _integrate(p, lambda u, k: vecs @ (np.exp(-k * dt * w) * c0))


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
    _require_series(traj)
    if which == "RealGronwall":
        # past exp's range the majorant is +inf and the ratio 0 (nan for a
        # zero datum, where the ratio is 0 as well)
        with np.errstate(over="ignore", invalid="ignore"):
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
