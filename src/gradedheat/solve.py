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
``resolvent_flops`` (5 N log2 N on R^d; on H1 4 (n_c/2 + 1) m^2 for
real blocks, 8 (n_c/2 + 1) m^2 for complex ones).  CG spends two
resolvent applies per step and 2.3-3.6 products with the support's
Green's matrix, each a fraction of an apply, and the rule still splits
the eps of the benchmark sweeps where their timings cross (on H1 between
s^3 = 2.1 and 11.5 steps * F).  A second clause,
s <= WOODBURY_MAX_CELLS, keeps the packed factor (4 s^2 bytes) under
256 MiB and its bits independent of the BLAS thread count (see
_woodbury_solver).

Every other problem (a sign-changing V, a larger support) is solved by
conjugate gradients on the support S of V (the capacitance-matrix method):
the step is x = M^{-1} b + M^{-1} P e for the s values e on S that solve
(I + dt V_S G_S) e = -dt V_S (M^{-1} b)_S, G_S the Green's matrix of M
between the cells of S.  CG runs in the G_S inner product, where that
system is positive definite whenever I + dt(R + V) is, so under the
stability guard; it is CG on I + dt(R + V) preconditioned with M^{-1}, and
its condition number is at most (1 + dt max V^+)/(1 - dt max V^-), which
also sizes the iteration cap.  Each iteration makes one product with G_S,
which ``DiscreteRockland.support_green`` computes on the cells alone (a
box convolution on R^d, the support's sub-blocks on H1), and every
vector of the iteration has length s; each step adds one resolvent apply
for M^{-1} b and one for M^{-1} P e.  Where S covers more than half the
grid, S is the whole grid: CG steps from its start x0 by M^{-1} e, with no
apply for M^{-1} b or the correction, and one resolvent apply per
iteration.  Each step solves the same system for a new right-hand side,
so CG starts from the Galerkin projection onto the last _CG_WINDOW
solutions, read off their stored images with no product.  One product
with R (``DiscreteRockland.product``: a CSR product on H1, the stencil on
R^d) at exit checks the true residual b - A x, which a resolvent that
is not M^{-1} fails (see _cg_solver), and hands R x to the recorder for
the state's Sobolev norm.  The window keeps 3 _CG_WINDOW vectors of
length s alive per CG problem, or, on the whole grid, _CG_WINDOW states
and their images A x (16.8 MB per vector on a 64 x 64 x 512 grid).

The LAPACK routines of the 1-D and Woodbury steps are numpy's own, bound
through ctypes on the first factorisation (``gradedheat._lapack``): a
sweep on R^d imports no scipy module.  A state whose norms leave float64 range
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

from . import _lapack, operators
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
# CG starts from the Galerkin projection onto this many last solutions.
# Products with G_S per step on the CG eps of e2_existence (1/2, 1/4) and
# h1_existence (0.25): 2.44, 3.09, 4.12 with 3 solutions; 2.44, 2.94, 3.62
# with 4; 2.28, 2.94, 3.56 with 5; 2.28, 2.91, 3.56 with 6 and 2.31, 2.78,
# 3.56 with 8
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
        self.op = problem.op
        self.v_flat = problem.V.values.ravel()
        self.steps = problem.steps
        self.thin = max(1, problem.steps // STATE_THIN_TARGET)
        self.keep_states = keep_states
        rows = min(max(RECORD_BLOCK_BYTES // (8 * grid.size), 1),
                   STATE_THIN_TARGET, self.steps + 1)
        self.block = np.empty((rows, grid.size))
        # R u of the states whose step handed it over (allocated on the first),
        # and which ones those are
        self.products: np.ndarray | None = None
        self.known = np.zeros(rows, dtype=bool)
        self.k = 0
        self.filled = 0
        self.times = np.arange(self.steps + 1) * problem.dt_effective
        self.l2 = np.empty(self.steps + 1)
        self.sob = np.empty(self.steps + 1)
        self.e = np.empty(self.steps + 1) if self.v_flat.min() >= 0.0 else None
        self.state_times, self.states = [], []

    def push(self, u: np.ndarray, ru: np.ndarray | None = None):
        """Record u, with R u if the step computed it, as the state at step self.k."""
        k = self.k
        self.block[self.filled] = u
        if ru is not None:
            if self.products is None:
                self.products = np.empty_like(self.block)
            self.products[self.filled] = ru
            self.known[self.filled] = True
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
        missing = np.flatnonzero(~self.known[:self.filled])
        self.known[:] = False
        start = self.k - self.filled
        self.filled = 0
        with np.errstate(over="ignore", invalid="ignore"):
            l2 = np.sqrt(np.sum(u * u, axis=1) * self.vol)
            # a row of a block product has its vector's bits: a handed R u has these
            if missing.size == len(u):
                ru = self.op.product(u)
            else:
                ru = self.products[:len(u)]
                if missing.size:
                    ru[missing] = self.op.product(u[missing])
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
               series: bool = True, product=None) -> Trajectory:
    """The trajectory of u = advance(u, k), k = 1 .. p.steps, from u0.

    product(u), if given, is R u for the state advance just returned, or
    None; the recorder takes it instead of its own product with R.

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
                rec.push(u, product and product(u))
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
    resolvent apply per step.  All other problems run CG on the support of
    V, or on the whole grid where V covers more than half of it: two
    resolvent applies per step and one product with the Green's matrix
    between the support's cells per iteration, or one resolvent apply per
    iteration on the whole grid, and one product with R per step, whose
    R u the recorder takes (see the module docstring).  The route reads
    only the problem, never
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
    solve, product = _cg_solver(p, dt, v_flat, v_minus)
    return _integrate(p, solve, keep_states, series, product)


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
    other stencil is refused (``DiscreteRockland.periodic_tridiagonal``).
    The step solves in place on a buffer it owns and returns it, so each
    state it returns is overwritten by the next step; the recorder and
    Field copy what they keep.
    """
    n = v_flat.size
    diagonal, upper, corner = p.op.periodic_tridiagonal()
    a = 1.0 + dt * (diagonal + v_flat)
    b = dt * upper
    c = dt * corner
    beta = float(a[0])
    z = np.zeros(n)
    z[0], z[-1] = beta, -c  # w, which dpttrs below turns into T^{-1} w
    a[0] += beta  # beta <= 0 leaves a[0] <= 0, where dpttrf stops at row 1
    a[-1] += c * c / beta if beta > 0.0 else 0.0
    info = _lapack.dpttrf(a, b)  # T = L diag(a) L^T, b the subdiagonal of L
    if info == 0:
        _lapack.dpttrs(a, b, z)()
        denom = beta - (beta * float(z[0]) - c * float(z[-1]))
    if info != 0 or denom <= 0.0:
        raise StabilityError(
            "implicit system could not be factorised: I + dt(R + V) is not positive definite")
    z /= denom

    y, buf = np.empty(n), np.empty(n)
    solve_in_place = _lapack.dpttrs(a, b, y)

    def solve(u: np.ndarray, k: int) -> np.ndarray:
        if u is not y:
            np.copyto(y, u)
        solve_in_place()
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
    """
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
    if _lapack.dpptrf(packed, s) != 0:
        raise StabilityError(
            "implicit system could not be factorised: the Woodbury matrix I + d G_S d "
            "is not positive definite")
    w = np.empty(s)
    solve_in_place = _lapack.dpptrs(packed, s, w)

    def solve(u: np.ndarray, k: int) -> np.ndarray:
        y = op.resolvent(dt, u)
        np.multiply(d, y[support], out=w)
        solve_in_place()
        y -= scattered_resolvent(d * w)
        return y

    return solve


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The inner product by a reduction that calls no BLAS, so its bits do not
    depend on the BLAS thread count."""
    return float(np.einsum("i,i->", a, b))


def _cg_solver(p: CauchyProblem, dt: float, v_flat: np.ndarray, v_minus: float):
    """(solve, product): CG for A = I + dt(R + V) on the support S of V.

    solve(b, k) is the step map; product(u) is R u as the exit check
    computed it for the state u that solve last returned, else None.

    Support coordinates.  With M = I + dt R, P the injection of S's s cells,
    G_S = P^T M^{-1} P and V' = dt V_S, every x = y + M^{-1} P e with
    y = M^{-1} b has A x - b = P (T e - f), T = I + V' G_S and f = -V' y_S.
    T is self-adjoint in the G_S inner product <u, w> = u . G_S w, and
    <e, T e> = z^T A z for z = M^{-1} P e, so CG runs on T e = f in that
    inner product: the residual, the direction d and its image T d all have
    length s, and each iteration makes one product G_S r
    (``DiscreteRockland.support_green``); G_S d follows by recurrence.  The
    iterates are those of CG on A preconditioned with M^{-1} from the
    corresponding start, whose residual lies on S.  When 2s > N, S is the
    whole grid and the unknown is the step from the start x0: x = x0 + M^{-1} e,
    f = b - A x0, G_S = M^{-1}, and y and the final M^{-1} P e are not
    applied (the images G_S d, summed, are the step).

    Cap.  M^{-1} A = I + dt M^{-1} V has its spectrum in
    [1 - dt max V^-, 1 + dt max V^+] because M >= I, so kappa is at most
    their ratio, and the A-norm error obeys
    |z_k|_A <= 2 rho^k |z_0|_A, rho = (sqrt(kappa) - 1)/(sqrt(kappa) + 1).
    The start is at least as close as e = 0: x = 0 on the whole grid, whose
    error |x*|_A is at most |b| / sqrt(lambda_min A), and x = y on S, whose
    error y - x* = A^{-1} dt V y, |y| <= |b|, is at most dt max|V| times
    that.  So |r_k| / |b| <= 2 c sqrt(kappa |M|) rho^k, c = 1 on the whole
    grid and max(1, dt max|V|) on S, with |M| bounded by its largest
    absolute row sum (Gershgorin).  The cap is the k that guarantees CG_TOL
    in exact arithmetic, using log(1/rho) >= 2/sqrt(kappa).

    Start.  Each solution e_j keeps its images G_S e_j and T e_j (on the
    whole grid x_j, x_j and A x_j, the last from the exit check), and CG
    starts from the Galerkin projection of e* = T^{-1} f onto the span of the
    last _CG_WINDOW solutions: the K x K system <e_i, T e_j> c = <e_i, f> is
    read off the stored images and solved by lstsq, and r0 = f - sum c_j T e_j,
    with no product.  0 lies in the span, so the cap's bound holds.

    Exit check.  The recurrences are exact only when the resolvent is.
    Once the recursive residual meets CG_TOL, x is formed and b - A x is
    evaluated once with one product with R, whose R x the recorder takes for
    x's Sobolev norm; if it exceeds CG_TOL |b| + gamma_w (|M|_inf +
    dt max|V|) |x|, the rounding bound of that product (gamma_w =
    w u / (1 - w u), w the entries in a row of R plus the three other
    terms of a row of b - A x), CG goes on from its part on S within the
    same cap.  A resolvent that is not M^{-1} leaves a residual off S, or
    a wrong one on it, so it ends in ConvergenceError, never in a wrong
    state.  Inner products use _dot, as the recorder's norms use np.sum, so
    trajectories are bit-stable across thread counts.
    """
    op = p.op
    n = v_flat.size
    support = np.flatnonzero(v_flat)
    whole = 2 * support.size > n
    cells = slice(None) if whole else support
    dt_v = dt * v_flat[cells]
    v_abs = float(np.abs(v_flat).max())
    kappa = (1.0 + dt * max(float(v_flat.max()), 0.0)) / (1.0 - dt * v_minus)
    m_norm = 1.0 + dt * op.row_sum_bound()
    start_bound = 1.0 if whole else max(1.0, dt * v_abs)
    cap = math.ceil(0.5 * math.sqrt(kappa) * math.log(
        2.0 * math.sqrt(kappa * m_norm) * start_bound / CG_TOL))
    w = op.row_width() + 3
    unit = np.finfo(float).eps / 2.0
    slack = w * unit / (1.0 - w * unit) * (m_norm + dt * v_abs)
    if whole:
        def green(values: np.ndarray) -> np.ndarray:
            return op.resolvent(dt, values)
    else:
        green = op.support_green(dt, support)
        scattered_resolvent = op.support_resolvent(dt, support)[0]
    # the last solutions, each with its two images, and their Galerkin matrix
    window: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    galerkin = np.empty((_CG_WINDOW, _CG_WINDOW))
    r, d, gd, td, work = (np.empty_like(dt_v) for _ in range(5))
    full = np.empty(n)
    last: list[np.ndarray | None] = [None, None]

    def start(f: np.ndarray) -> np.ndarray:
        """The Galerkin start, with r = f - T of it."""
        np.copyto(r, f)
        m = len(window)
        if m == 0:
            return np.zeros_like(f)
        rhs = [_dot(probe, f) for _, probe, _ in window]
        c = np.linalg.lstsq(galerkin[:m, :m], rhs, rcond=None)[0]
        sol = window[0][0] * c[0]
        for ci, (basis, _, _) in zip(c[1:], window[1:]):
            np.multiply(basis, ci, out=work)
            sol += work
        for ci, (_, _, image) in zip(c, window):
            np.multiply(image, ci, out=work)
            np.subtract(r, work, out=r)
        return sol

    def keep(basis: np.ndarray, probe: np.ndarray, image: np.ndarray):
        if len(window) == _CG_WINDOW:
            del window[0]
            galerkin[:-1, :-1] = galerkin[1:, 1:].copy()
        window.append((basis, probe, image))
        last_row = len(window) - 1
        for i, (_, _, image_i) in enumerate(window):
            galerkin[last_row, i] = galerkin[i, last_row] = _dot(probe, image_i)

    def residual(b: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """(R x, A x, |b - A x|) by one product with R; full = b - A x."""
        rx = op.product(x)
        ax = rx * dt
        ax += x
        ax[cells] += dt_v * x[cells]
        np.subtract(b, ax, out=full)
        return rx, ax, math.sqrt(_dot(full, full))

    def solve(b: np.ndarray, k: int) -> np.ndarray:
        b_norm = math.sqrt(_dot(b, b))
        if b_norm == 0.0:
            return np.zeros_like(b)
        if not math.isfinite(b_norm):
            # u left float64 range: pass that on for the recorder to report
            return np.full_like(b, np.nan)
        tol = CG_TOL * b_norm
        if whole:
            f = b
        else:
            y = op.resolvent(dt, b)
            f = -dt_v * y[support]
        sol = start(f)
        r_norm = math.sqrt(_dot(r, r))
        fresh = True
        iterations = 0
        while True:
            if r_norm <= tol:
                if whole:
                    x = sol
                else:
                    x = scattered_resolvent(sol)
                    g_sol = x[support]
                    x += y
                rx, ax, r_norm = residual(b, x)
                if r_norm <= tol + slack * math.sqrt(_dot(x, x)):
                    if whole:
                        keep(x, x, ax)
                    else:
                        keep(sol, g_sol, sol + dt_v * g_sol)
                    last[:] = x, rx
                    return x
                np.copyto(r, full[cells])
                fresh = True
            if iterations == cap:
                raise ConvergenceError(
                    f"preconditioned CG stalled at step {k} of {p.steps}: relative residual "
                    f"{r_norm / b_norm:.3e} > {CG_TOL:g} after {cap} iterations")
            iterations += 1
            if fresh:
                gr = green(r)
                np.copyto(d, r)
                np.copyto(gd, gr)
                rg = _dot(r, gr)
                fresh = False
            np.multiply(gd, dt_v, out=td)
            np.add(td, d, out=td)
            alpha = rg / _dot(gd, td)
            np.multiply(gd if whole else d, alpha, out=work)
            sol += work
            np.multiply(td, alpha, out=work)
            np.subtract(r, work, out=r)
            r_norm = math.sqrt(_dot(r, r))
            if r_norm <= tol:
                continue
            gr = green(r)
            rg_next = _dot(r, gr)
            beta = rg_next / rg
            np.multiply(d, beta, out=d)
            np.add(d, r, out=d)
            np.multiply(gd, beta, out=gd)
            np.add(gd, gr, out=gd)
            rg = rg_next

    def product(u: np.ndarray) -> np.ndarray | None:
        return last[1] if u is last[0] else None

    return solve, product


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
