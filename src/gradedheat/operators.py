"""Discrete Rockland operators: Laplacians, sub-Laplacians, spectral calculus.

Both operators are assembled as sparse symmetric positive semidefinite
matrices acting on C-order raveled grid values:

* ``build_euclidean_laplacian`` is the negative Laplacian with the compact
  3-point stencil (-1, 2, -1)/h^2 per axis and periodic wraparound.

* ``build_heisenberg_sublaplacian`` is R = -(X^2 + Y^2) for the left-invariant
  frame X = d_a - (b/2) d_c, Y = d_b + (a/2) d_c.  X and Y are discretised
  with centred first differences and squared as matrices; since the
  coefficient of d_c is constant along the c-axis, both are exactly
  antisymmetric and R = X^T X + Y^T Y is positive semidefinite by
  construction.

Both operators are 2-homogeneous under the group dilations (nu = 2).

Fractional powers and the heat semigroup go through a dense symmetric
eigendecomposition that is computed lazily, cached on the operator and
guarded by ``SPECTRAL_DOF_LIMIT``.  Tiny negative eigenvalues (within
-1e-10 * lambda_max) are clamped to zero; the zero eigenvalue uses the
convention 0**0 = 1 so that fractional powers fix constants for s = 0.

The resolvent (I + dt R)^{-1} uses the central-variable Fourier structure
instead: the coefficients of both operators do not depend on the last grid
axis (c on H1), so a real FFT along that axis splits I + dt R into one
dense Hermitian (n_a n_b) x (n_a n_b) block per frequency -- on H1 the
discrete counterpart of the twisted Laplacians.  The blocks are read off
the assembled matrix, inverted once per dt and cached on the operator; the
backward-Euler stepper on H1 uses them as its CG preconditioner.
"""

from __future__ import annotations

import threading

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from gradedheat.errors import CapabilityError
from gradedheat.groups import Field, Grid

__all__ = [
    "SPECTRAL_DOF_LIMIT",
    "DiscreteRockland",
    "build_euclidean_laplacian",
    "build_heisenberg_sublaplacian",
    "build_rockland",
    "fractional_power",
    "semigroup_apply",
]

# Dense eigendecompositions above this dof count are refused.
SPECTRAL_DOF_LIMIT = 6000

_EIG_CLAMP_REL = 1e-10


class DiscreteRockland:
    """Sparse symmetric PSD operator on a grid, with a cached spectrum."""

    def __init__(self, grid: Grid, matrix, name: str, nu: int = 2):
        matrix = sp.csr_matrix(matrix)
        if matrix.shape != (grid.size, grid.size):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match grid size {grid.size}"
            )
        scale = abs(matrix).max() or 1.0
        skew = abs(matrix - matrix.T).max()
        if skew > 1e-12 * scale:
            raise ValueError(f"operator matrix is not symmetric (relative skew {skew/scale:.2e})")
        self.grid = grid
        self.matrix = matrix
        self.name = name
        self.nu = nu
        self._lock = threading.Lock()
        self._eigensystem: tuple[np.ndarray, np.ndarray] | None = None
        self._resolvents: dict[float, np.ndarray] = {}

    def __repr__(self):
        return f"DiscreteRockland({self.name}, dof={self.grid.size}, nu={self.nu})"

    def apply(self, f: Field) -> Field:
        """Matrix-vector product R f."""
        self._check_field(f)
        return Field(self.grid, (self.matrix @ f.flat).reshape(self.grid.shape))

    def quad_form(self, f: Field) -> float:
        """<R f, f> in l2 weighted by the cell volume; clamped at zero."""
        self._check_field(f)
        v = f.flat
        q = float(v @ (self.matrix @ v)) * self.grid.cell_volume
        # exact value is >= 0; rounding may leave a tiny negative residue
        return max(q, 0.0)

    def eigensystem(self, dof_limit: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Clamped eigenvalues (ascending) and orthonormal eigenvectors.

        The decomposition is computed once and cached; concurrent callers
        share the cached copy.
        """
        limit = SPECTRAL_DOF_LIMIT if dof_limit is None else dof_limit
        if self.grid.size > limit:
            raise CapabilityError(
                f"spectral decomposition needs {self.grid.size} dof but the limit is "
                f"{limit}; use a smaller grid or raise dof_limit"
            )
        with self._lock:
            if self._eigensystem is None:
                w, v = scipy.linalg.eigh(self.matrix.toarray())
                lam_max = max(float(w[-1]), 0.0)
                floor = -_EIG_CLAMP_REL * (lam_max or 1.0)
                if float(w[0]) < floor:
                    raise ValueError(
                        f"operator {self.name} is not positive semidefinite: "
                        f"min eigenvalue {w[0]:.3e} vs max {lam_max:.3e}"
                    )
                w = np.maximum(w, 0.0)
                w.setflags(write=False)
                v.setflags(write=False)
                self._eigensystem = (w, v)
            return self._eigensystem

    def resolvent(self, dt: float, values) -> np.ndarray:
        """(I + dt R)^{-1} applied to grid values; returns a flat array.

        One real FFT along the last axis, one batched block product, one
        inverse FFT.  The inverted blocks are built on the first call for
        each dt and cached; concurrent callers share them.
        """
        n_c = self.grid.points[-1]
        return _apply_central_blocks(self._resolvent_blocks(dt),
                                     np.reshape(values, (-1, n_c)))

    def _resolvent_blocks(self, dt: float) -> np.ndarray:
        if not dt > 0:
            raise ValueError(f"resolvent step must be positive, got {dt}")
        with self._lock:
            inverse = self._resolvents.get(dt)
            if inverse is None:
                blocks = _central_blocks(self.matrix, self.grid.points[-1])
                probe = np.random.default_rng(0).standard_normal(self.grid.size)
                want = self.matrix @ probe
                got = _apply_central_blocks(blocks, probe.reshape(blocks.shape[1], -1))
                if np.linalg.norm(got - want) > 1e-10 * np.linalg.norm(want):
                    raise CapabilityError(
                        f"operator {self.name} is not invariant under translations "
                        "along the last grid axis; its resolvent has no block form")
                blocks *= dt
                idx = np.arange(blocks.shape[1])
                blocks[:, idx, idx] += 1.0
                inverse = np.linalg.inv(blocks)
                inverse.setflags(write=False)
                self._resolvents[dt] = inverse
            return inverse

    def _check_field(self, f: Field):
        if f.grid != self.grid:
            raise ValueError("field grid does not match operator grid")


def _central_blocks(matrix, n_c: int) -> np.ndarray:
    """The blocks B_k of the matrix under a real FFT along the last axis.

    The rows at c = 0 hold the coupling A_m[p, q] of column (p, 0) to
    (q, m); translation invariance along c repeats it at every c, so
    B_k = sum_m A_m exp(2 pi i k m / n_c) for k = 0 .. n_c // 2.
    """
    n_ab = matrix.shape[0] // n_c
    rows = matrix[::n_c].tocoo()
    q, m = np.divmod(rows.col, n_c)
    offsets, which = np.unique(m, return_inverse=True)
    coupling = np.zeros((offsets.size, n_ab, n_ab))
    np.add.at(coupling, (which, rows.row, q), rows.data)
    k = np.arange(n_c // 2 + 1)
    phases = np.exp(2j * np.pi * (np.outer(k, offsets) % n_c) / n_c)
    return np.tensordot(phases, coupling, axes=1)


def _apply_central_blocks(blocks: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Apply per-frequency blocks to values shaped (n_a n_b, n_c)."""
    n_c = values.shape[1]
    spectrum = np.fft.rfft(values, axis=1)
    spectrum = np.matmul(blocks, spectrum.T[:, :, None])[:, :, 0]
    return np.fft.irfft(spectrum.T, n=n_c, axis=1).ravel()


def _shift(n: int):
    """Periodic forward shift: (S u)[i] = u[i+1 mod n]."""
    return sp.eye(n, k=1, format="csr") + sp.eye(n, k=1 - n, format="csr")


def _second_difference(n: int, h: float):
    s = _shift(n)
    return (2.0 * sp.eye(n) - s - s.T) / h**2


def _centered_difference(n: int, h: float):
    s = _shift(n)
    return (s - s.T) / (2.0 * h)


def _embed(mats) -> sp.csr_matrix:
    """Kronecker chain matching C-order ravel of the grid axes."""
    out = mats[0]
    for m in mats[1:]:
        out = sp.kron(out, m, format="csr")
    return sp.csr_matrix(out)


def _axis_operator(grid: Grid, axis: int, mat1d) -> sp.csr_matrix:
    mats = [sp.identity(n, format="csr") for n in grid.points]
    mats[axis] = mat1d
    return _embed(mats)


def _coordinate_diagonal(grid: Grid, axis: int) -> sp.dia_matrix:
    vals = np.broadcast_to(grid.broadcast_axes()[axis], grid.shape).ravel()
    return sp.diags(vals)


def build_euclidean_laplacian(grid: Grid) -> DiscreteRockland:
    """Negative Laplacian on R^d with periodic 3-point stencils."""
    if not grid.group.is_abelian:
        raise ValueError(f"grid group is {grid.group}, expected a euclidean group")
    R = sp.csr_matrix((grid.size, grid.size))
    for axis, (n, h) in enumerate(zip(grid.points, grid.spacings)):
        R = R + _axis_operator(grid, axis, _second_difference(n, h))
    return DiscreteRockland(grid, R, name=f"laplacian_{grid.group}", nu=2)


def build_heisenberg_sublaplacian(grid: Grid) -> DiscreteRockland:
    """Negative sub-Laplacian -(X^2 + Y^2) on the first Heisenberg group."""
    if grid.group.kind != "heisenberg1":
        raise ValueError(f"grid group is {grid.group}, expected heisenberg1")
    D = [
        _axis_operator(grid, axis, _centered_difference(n, h))
        for axis, (n, h) in enumerate(zip(grid.points, grid.spacings))
    ]
    a_diag = _coordinate_diagonal(grid, 0)
    b_diag = _coordinate_diagonal(grid, 1)
    X = D[0] - 0.5 * b_diag @ D[2]
    Y = D[1] + 0.5 * a_diag @ D[2]
    R = -(X @ X + Y @ Y)
    R = (R + R.T) * 0.5
    return DiscreteRockland(grid, R, name="sublaplacian_heisenberg1", nu=2)


def build_rockland(grid: Grid) -> DiscreteRockland:
    """The canonical positive Rockland operator for the grid's group."""
    if grid.group.is_abelian:
        return build_euclidean_laplacian(grid)
    return build_heisenberg_sublaplacian(grid)


def fractional_power(op: DiscreteRockland, s_over_nu: float, f: Field,
                     dof_limit: int | None = None) -> Field:
    """Apply R**(s/nu) spectrally.  Requires s/nu >= 0; 0**0 is taken as 1."""
    if s_over_nu < 0:
        raise ValueError(f"fractional exponent must be >= 0, got {s_over_nu}")
    op._check_field(f)
    w, v = op.eigensystem(dof_limit)
    coeff = v.T @ f.flat
    out = v @ (w**s_over_nu * coeff)
    return Field(op.grid, out.reshape(op.grid.shape))


def semigroup_apply(op: DiscreteRockland, t: float, f: Field,
                    dof_limit: int | None = None) -> Field:
    """Apply the heat semigroup exp(-t R) spectrally.  Requires t >= 0."""
    if t < 0:
        raise ValueError(f"semigroup time must be >= 0, got {t}")
    op._check_field(f)
    w, v = op.eigensystem(dof_limit)
    coeff = v.T @ f.flat
    out = v @ (np.exp(-t * w) * coeff)
    return Field(op.grid, out.reshape(op.grid.shape))
