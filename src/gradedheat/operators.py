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

The spectral calculus uses the central-variable Fourier structure: the
coefficients of both operators do not depend on the last grid axis (c on
H1), so a real FFT along that axis splits R into one dense Hermitian
(n_a n_b) x (n_a n_b) block per frequency -- on H1 the discrete counterpart
of the twisted Laplacians.  The blocks are read off the assembled matrix
and checked against it on a fixed probe; an operator that varies along the
last axis is refused with ``CapabilityError``.

* ``eigensystem`` diagonalises the blocks in one batched ``eigh``, computed
  lazily, cached on the operator and guarded by ``SPECTRAL_DOF_LIMIT`` on
  the block size.  Tiny negative eigenvalues (within -1e-10 * lambda_max)
  are clamped to zero.  ``semigroup_apply`` and ``fractional_power`` apply
  g(R) as rfft along the last axis, v^H, g(w), v, irfft; the zero
  eigenvalue uses the convention 0**0 = 1 so that fractional powers fix
  constants for s = 0.

* ``resolvent`` applies (I + dt R)^{-1}, built once per dt and cached.  On
  H1 it inverts the blocks of I + dt R.  On R^d the Laplacian is invariant
  under every grid translation, so the resolvent is the Fourier multiplier
  1/(1 + dt lambda), lambda the real FFT of R's row at the origin, applied by
  one rfftn / multiply / irfftn.  The backward-Euler stepper uses it as its
  CG preconditioner on every grid of dimension two or more.
"""

from __future__ import annotations

import threading

import numpy as np
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

# Dense eigendecompositions above this size are refused: per central-frequency
# block in DiscreteRockland.eigensystem, the whole grid in solve.oracle_expm.
# Both read it when called, so a change to it applies to the next call.
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
        # np.sum (fixed pairwise order) as in the solvers' norm series, so the
        # value matches their t = 0 record bit for bit
        q = float(np.sum(v * (self.matrix @ v))) * self.grid.cell_volume
        # exact value is >= 0; rounding may leave a tiny negative residue
        return max(q, 0.0)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Clamped eigenvalues and orthonormal eigenvectors, per central frequency.

        Returns w of shape (n_c // 2 + 1, m) and v of shape (n_c // 2 + 1, m, m),
        m = size / n_c: block k of R under a real FFT along the last axis is
        v[k] diag(w[k]) v[k]^H.  Each frequency 0 < k < n_c / 2 stands for
        itself and n_c - k, so its eigenvalues occur twice in the spectrum
        of R.  The decomposition is computed once and cached; concurrent
        callers share the cached copy.  Blocks larger than
        ``SPECTRAL_DOF_LIMIT`` (read at call time) are refused with
        ``CapabilityError`` before any block is built.
        """
        block = self.grid.size // self.grid.points[-1]
        if block > SPECTRAL_DOF_LIMIT:
            raise CapabilityError(
                f"spectral decomposition needs {block}-dof blocks but the limit is "
                f"{SPECTRAL_DOF_LIMIT}; use a smaller grid"
            )
        with self._lock:
            if self._eigensystem is None:
                w, v = np.linalg.eigh(self._checked_blocks())
                lam_max = max(float(w.max()), 0.0)
                floor = -_EIG_CLAMP_REL * (lam_max or 1.0)
                if float(w.min()) < floor:
                    raise ValueError(
                        f"operator {self.name} is not positive semidefinite: "
                        f"min eigenvalue {w.min():.3e} vs max {lam_max:.3e}"
                    )
                w = np.maximum(w, 0.0)
                w.setflags(write=False)
                v.setflags(write=False)
                self._eigensystem = (w, v)
            return self._eigensystem

    def resolvent(self, dt: float, values) -> np.ndarray:
        """(I + dt R)^{-1} applied to grid values; returns a flat array.

        On R^d one rfftn, one multiply and one irfftn; on H1 one real FFT
        along the last axis, one batched block product and one inverse FFT.
        The multiplier or the inverted blocks are built on the first call
        for each dt and cached; concurrent callers share them.
        """
        inverse = self._resolvent_blocks(dt)
        if self.grid.group.is_abelian:
            return _apply_multiplier(inverse, values, self.grid.shape)
        return _apply_central_blocks(inverse, np.reshape(values, (-1, self.grid.points[-1])))

    def _resolvent_blocks(self, dt: float) -> np.ndarray:
        """The cached inverse of I + dt R: a multiplier on R^d, blocks on H1."""
        if not dt > 0:
            raise ValueError(f"resolvent step must be positive, got {dt}")
        with self._lock:
            inverse = self._resolvents.get(dt)
            if inverse is None:
                if self.grid.group.is_abelian:
                    inverse = 1.0 / (1.0 + dt * self._checked_symbol())
                else:
                    blocks = self._checked_blocks()
                    blocks *= dt
                    idx = np.arange(blocks.shape[1])
                    blocks[:, idx, idx] += 1.0
                    inverse = np.linalg.inv(blocks)
                inverse.setflags(write=False)
                self._resolvents[dt] = inverse
            return inverse

    def _checked_blocks(self) -> np.ndarray:
        """The central-frequency blocks of R, verified against R on a probe."""
        blocks = _central_blocks(self.matrix, self.grid.points[-1])
        self._check_invariance(
            lambda x: _apply_central_blocks(blocks, x.reshape(blocks.shape[1], -1)),
            "along the last grid axis; it has no central-frequency block form")
        return blocks

    def _checked_symbol(self) -> np.ndarray:
        """The Fourier symbol of R on an abelian grid, verified on a probe.

        A translation-invariant R acts as the correlation with its row at
        the origin, whose real FFT is then real since R is symmetric.
        """
        shape = self.grid.shape
        row = self.matrix[[0]].toarray().reshape(shape)
        symbol = np.fft.rfftn(row, axes=range(len(shape))).real
        self._check_invariance(lambda x: _apply_multiplier(symbol, x, shape),
                               "of the grid; it is no Fourier multiplier")
        return symbol

    def _check_invariance(self, apply, what: str):
        """Refuse a structured form of R that disagrees with R on a fixed probe."""
        probe = np.random.default_rng(0).standard_normal(self.grid.size)
        want = self.matrix @ probe
        if np.linalg.norm(apply(probe) - want) > 1e-10 * np.linalg.norm(want):
            raise CapabilityError(
                f"operator {self.name} is not invariant under translations {what}")

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


def _apply_multiplier(multiplier: np.ndarray, values, shape: tuple[int, ...]) -> np.ndarray:
    """Apply a real Fourier multiplier on the rfftn grid to values of ``shape``."""
    axes = range(len(shape))
    spectrum = np.fft.rfftn(np.reshape(values, shape), axes=axes)
    spectrum *= multiplier
    return np.fft.irfftn(spectrum, s=shape, axes=axes).ravel()


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


def fractional_power(op: DiscreteRockland, s_over_nu: float, f: Field) -> Field:
    """Apply R**(s/nu) spectrally.  Requires s/nu >= 0; 0**0 is taken as 1."""
    if s_over_nu < 0:
        raise ValueError(f"fractional exponent must be >= 0, got {s_over_nu}")
    return _spectral_apply(op, lambda w: w**s_over_nu, f)


def semigroup_apply(op: DiscreteRockland, t: float, f: Field) -> Field:
    """Apply the heat semigroup exp(-t R) spectrally.  Requires t >= 0."""
    if t < 0:
        raise ValueError(f"semigroup time must be >= 0, got {t}")
    return _spectral_apply(op, lambda w: np.exp(-t * w), f)


def _spectral_apply(op: DiscreteRockland, g, f: Field) -> Field:
    """g(R) f for a function g of the eigenvalues."""
    op._check_field(f)
    w, v = op.eigensystem()
    n_c = op.grid.points[-1]
    coeff = _to_eigenbasis(v, f.values.reshape(1, -1, n_c))
    out = _from_eigenbasis(v, g(w)[:, :, None] * coeff, n_c)
    return Field(op.grid, out.reshape(op.grid.shape))


def _to_eigenbasis(v: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Coefficients (K, m, S) in the eigenbasis v of S real fields (S, m, n_c).

    rfft along the last axis, then v[k]^H per frequency, computed as
    conj(v[k]^T conj(x)) so that the transposed view of v is not copied.
    """
    spectrum = np.fft.rfft(values, axis=-1).transpose(2, 1, 0)
    return np.matmul(v.transpose(0, 2, 1), spectrum.conj()).conj()


def _from_eigenbasis(v: np.ndarray, coeff: np.ndarray, n_c: int) -> np.ndarray:
    """Inverse of ``_to_eigenbasis``: real fields (S, m, n_c) from coefficients."""
    return np.fft.irfft(np.matmul(v, coeff).transpose(2, 1, 0), n=n_c, axis=-1)
