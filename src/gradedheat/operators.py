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
last axis is refused with ``CapabilityError``, and so are blocks above
``SPECTRAL_DOF_LIMIT`` dof and a block set whose peak, with the blocks the
operator already caches, exceeds the physical memory, before any block is
built.  The resolvent's peak is one block set and the coupling table the
blocks are summed from; the eigensystem's is two block sets.

* ``eigensystem`` diagonalises the blocks in one batched ``eigh``, computed
  lazily and cached on the operator.  Tiny negative eigenvalues (within
  -1e-10 * lambda_max) are clamped to zero.  ``spectral_map`` applies g(R)
  as rfft along the last axis, v^H, g(w), v, irfft; ``semigroup_apply``
  and the Duhamel stepper take g(R) from it and from nowhere else.

* ``resolvent`` applies (I + dt R)^{-1}, built once per dt and cached.  On
  H1 each block of I + dt R is factorised by LAPACK zpotrf and inverted by
  zpotri in place, n^3 flops a block, and its lower triangle is mirrored.
  scipy's OpenBLAS is held at one thread meanwhile, so the inverse has the
  same bits at any BLAS thread count and wakes no threads to spin against
  a sweep's workers.  On R^d the Laplacian is invariant under every grid
  translation, so the resolvent is the Fourier multiplier 1/(1 + dt lambda),
  lambda the real FFT of R's row at the origin, applied by one rfft, the
  complex passes in place, a multiply and one irfft, with the bits of
  rfftn / multiply / irfftn.  An I + dt R that is not positive definite (a
  zpotrf info naming the central frequency on H1, a 1 + dt lambda <= 0 on
  R^d) is a ``StabilityError``.  ``resolvent_flops`` states the flops of
  one apply.  The backward-Euler stepper uses the resolvent as its CG
  preconditioner on every grid of dimension two or more, and as the
  (I + dt R)^{-1} of its Woodbury step.  scipy.linalg.lapack is imported on
  the first H1 resolvent, not with the package.

* ``support_resolvent`` maps values on given cells to the flat
  (I + dt R)^{-1} of their scatter: on R^d the scatter and the multiplier,
  with the bits of ``resolvent``; on H1 the product with the cells' columns
  of the inverse blocks, gathered once, 8 (n_c/2 + 1) m u flops for u
  distinct (a, b) columns instead of 8 (n_c/2 + 1) m^2.  It also yields the
  rows of the Green's matrix G = (I + dt R)^{-1} between the cells, a chunk
  at a time, read off the cached resolvent with no solve; ``green_rows``
  yields those alone.  On R^d G is translation invariant: G[x, y] is the
  multiplier's irfftn at x - y.  On H1 it is invariant along c only:
  G[(p, c), (q, c')] is the irfft of the inverse blocks' entries B_k[p, q]
  over k, taken at c - c' mod n_c, so a chunk costs one length-n_c irfft
  per pair of its (a, b) columns, read from the same gather.  The Woodbury
  step samples G on the support of V this way, and applies its correction
  by the column product.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading

import numpy as np
import scipy.sparse as sp

from gradedheat.errors import CapabilityError, StabilityError
from gradedheat.groups import Field, Grid

__all__ = [
    "SPECTRAL_DOF_LIMIT",
    "DiscreteRockland",
    "build_euclidean_laplacian",
    "build_heisenberg_sublaplacian",
    "build_rockland",
    "semigroup_apply",
    "spectral_map",
]

# Dense matrices above this size are refused: per central-frequency block in
# DiscreteRockland (eigensystem, H1 resolvent), the whole grid in
# solve.oracle_expm.
# Both read it when called, so a change to it applies to the next call.
SPECTRAL_DOF_LIMIT = 6000

_EIG_CLAMP_REL = 1e-10
# bytes of one chunk of green_rows, and of the table an H1 chunk is read from
_GREEN_CHUNK_BYTES = 1 << 20


def openblas_thread_setter(extension: str):
    """openblas_set_num_threads_local of the OpenBLAS an extension module links, or None.

    Loading the extension resolves the symbol in the library it links.  The
    setter returns the count it replaces.  It sets openblas_set_num_threads'
    count, which is the calling thread's in an OpenMP build but the whole
    process's in the pthreads builds numpy and scipy ship.  A BLAS that does
    not export it (MKL, Accelerate, OpenBLAS before 0.3.27) gives None.
    """
    try:
        setter = ctypes.CDLL(extension).openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = ctypes.c_int
    return setter


@functools.cache
def _lapack_thread_setter():
    """The thread setter of the OpenBLAS scipy.linalg.lapack links, or None."""
    from scipy.linalg import _flapack
    return openblas_thread_setter(_flapack.__file__)


# where the count is the process's, two holds at once would restore each
# other's counts out of order
_LAPACK_THREADS_LOCK = threading.Lock()


def _physical_memory() -> int | None:
    """The bytes of physical memory, or None where the platform does not report them."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return memory if memory > 0 else None


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
        ``SPECTRAL_DOF_LIMIT`` are refused (``_checked_blocks``).
        """
        with self._lock:
            if self._eigensystem is None:
                w, v = np.linalg.eigh(self._checked_blocks(copies=2))
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

        On R^d the bits of one rfftn, one multiply and one irfftn
        (``_apply_multiplier``); on H1 one real FFT along the last axis, one
        batched block product and one inverse FFT.
        The multiplier or the inverted blocks are built on the first call
        for each dt and cached; concurrent callers share them.  H1 blocks
        larger than ``SPECTRAL_DOF_LIMIT`` are refused (``_checked_blocks``),
        and an I + dt R that is not positive definite is a StabilityError.
        """
        inverse = self._resolvent_blocks(dt)
        if self.grid.group.is_abelian:
            return _apply_multiplier(inverse, values, self.grid.shape)
        return _apply_central_blocks(inverse, np.reshape(values, (-1, self.grid.points[-1])))

    @property
    def resolvent_flops(self) -> float:
        """The flops of one ``resolvent`` apply, the unit of the steppers' cost model.

        5 N log2 N for the rfftn / irfftn pair on R^d; 8 (n_c / 2 + 1) m^2
        for the complex block products on H1, m = N / n_c, whose FFTs along
        c are the smaller term.
        """
        n = self.grid.size
        if self.grid.group.is_abelian:
            return 5.0 * n * math.log2(n)
        n_c = self.grid.points[-1]
        return 8.0 * (n_c // 2 + 1) * (n // n_c) ** 2

    def support_resolvent(self, dt: float, cells: np.ndarray):
        """(apply, rows) for G = (I + dt R)^{-1} and distinct flat grid indices cells.

        apply(values) is the flat G x for the x that holds values on cells and
        zero elsewhere: on R^d that scatter and ``resolvent``'s multiplier,
        with its bits; on H1 the product with the cells' columns of the
        inverse blocks, gathered here once (module docstring).  rows yields
        G[cells][:, cells] a chunk of rows at a time (``green_rows``), on H1
        from the same gather.
        """
        inverse = self._resolvent_blocks(dt)
        if self.grid.group.is_abelian:
            shape = self.grid.shape
            scattered = np.zeros(self.grid.size)

            def apply(values) -> np.ndarray:
                scattered[cells] = values
                return _apply_multiplier(inverse, scattered, shape)

            return apply, _multiplier_green_rows(inverse, cells, shape)
        n_c = self.grid.points[-1]
        column, c = np.divmod(cells, n_c)
        columns, q = np.unique(column, return_inverse=True)
        gathered = np.take(inverse, columns, axis=2)
        scattered = np.zeros((columns.size, n_c))

        def apply(values) -> np.ndarray:
            scattered[q, c] = values
            return _apply_central_blocks(gathered, scattered)

        return apply, _block_green_rows(gathered, columns, q, c, n_c)

    def green_rows(self, dt: float, cells: np.ndarray):
        """Yield G[cells][:, cells] for G = (I + dt R)^{-1}, a chunk of rows at a time.

        cells are distinct flat grid indices; each chunk is
        G[cells[i:j]][:, cells] for the next row range, and the chunks cover
        cells in order.  G is read off the cached resolvent (module
        docstring), with no solve, and is exactly the matrix that
        ``resolvent`` applies.  For ascending cells, as np.flatnonzero gives
        them, a chunk, and on H1 the table it is read from, takes at most
        about _GREEN_CHUNK_BYTES, besides the columns ``support_resolvent``
        gathers.
        """
        return self.support_resolvent(dt, cells)[1]

    def _resolvent_blocks(self, dt: float) -> np.ndarray:
        """The cached inverse of I + dt R: a multiplier on R^d, blocks on H1."""
        if not dt > 0:
            raise ValueError(f"resolvent step must be positive, got {dt}")
        with self._lock:
            inverse = self._resolvents.get(dt)
            if inverse is None:
                if self.grid.group.is_abelian:
                    shifted = 1.0 + dt * self._checked_symbol()
                    lowest = float(shifted.min())
                    if not lowest > 0.0:
                        raise StabilityError(
                            f"I + dt R is not positive definite at dt = {dt:g}: "
                            f"the multiplier 1 + dt lambda reaches {lowest:.6g}")
                    inverse = 1.0 / shifted
                else:
                    inverse = self._checked_blocks(copies=1)
                    inverse *= dt
                    idx = np.arange(inverse.shape[1])
                    inverse[:, idx, idx] += 1.0
                    _invert_in_place(inverse, dt)
                inverse.setflags(write=False)
                self._resolvents[dt] = inverse
            return inverse

    def _checked_blocks(self, copies: int) -> np.ndarray:
        """The central-frequency blocks of R, verified against R on a probe.

        Blocks larger than ``SPECTRAL_DOF_LIMIT`` (read at call time), and
        a build whose peak with the blocks the operator already caches
        exceeds the physical memory, are refused with ``CapabilityError``
        before any block is built.  The peak is the larger of the caller's
        copies of the block set (one for the in-place resolvent, two for
        the eigensystem) and one set with the coupling table the blocks are
        summed from (``_central_blocks``).
        """
        n_c = self.grid.points[-1]
        block = self.grid.size // n_c
        if block > SPECTRAL_DOF_LIMIT:
            raise CapabilityError(
                f"dense central-frequency blocks of {block} dof exceed the limit of "
                f"{SPECTRAL_DOF_LIMIT}; use a smaller grid")
        # the operator keeps its eigensystem and each dt's inverse blocks
        cached = sum(inverse.nbytes for inverse in self._resolvents.values())
        if self._eigensystem is not None:
            cached += sum(part.nbytes for part in self._eigensystem)
        offsets = np.unique(self.matrix[::n_c].indices % n_c).size
        block_set = (n_c // 2 + 1) * block**2 * 16  # complex128
        need = max(copies * block_set, block_set + offsets * block**2 * 16) + cached
        memory = _physical_memory()
        if memory is not None and need > memory:
            held = f" with the {cached} bytes this operator caches" if cached else ""
            what = "the resolvent" if copies == 1 else "the eigensystem"
            raise CapabilityError(
                f"{n_c // 2 + 1} dense central-frequency blocks of {block} dof for {what} "
                f"need {need} bytes{held}, more than the {memory} bytes of physical memory; "
                f"use a smaller grid")
        blocks = _central_blocks(self.matrix, n_c)
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
    B_k = sum_m A_m exp(2 pi i k m / n_c) for k = 0 .. n_c // 2.  The
    coupling table is complex, so the product makes no complex copy of it.
    """
    n_ab = matrix.shape[0] // n_c
    rows = matrix[::n_c].tocoo()
    q, m = np.divmod(rows.col, n_c)
    offsets, which = np.unique(m, return_inverse=True)
    coupling = np.zeros((offsets.size, n_ab, n_ab), dtype=complex)
    np.add.at(coupling, (which, rows.row, q), rows.data)
    k = np.arange(n_c // 2 + 1)
    phases = np.exp(2j * np.pi * (np.outer(k, offsets) % n_c) / n_c)
    return np.tensordot(phases, coupling, axes=1)


def _invert_in_place(blocks: np.ndarray, dt: float):
    """Invert Hermitian positive definite blocks in place by LAPACK zpotrf and zpotri.

    A C-order block is the transpose, so the conjugate, of the Fortran matrix
    LAPACK sees, so the upper triangle LAPACK writes is the block's lower
    triangle; it is mirrored into the upper.  scipy's OpenBLAS is held at one
    thread meanwhile and gets its count back after, also after a failure.  A
    block with no Cholesky factor is a StabilityError naming its central
    frequency.
    """
    from scipy.linalg.lapack import zpotrf, zpotri

    upper = ~np.tri(blocks.shape[1], dtype=bool)
    setter = _lapack_thread_setter()
    with _LAPACK_THREADS_LOCK:
        before = None if setter is None else setter(1)
        try:
            for k, block in enumerate(blocks):
                factor, info = zpotrf(block.T, lower=0, clean=0, overwrite_a=1)
                if info == 0:
                    info = zpotri(factor, lower=0, overwrite_c=1)[1]
                if info != 0:
                    raise StabilityError(
                        f"I + dt R is not positive definite at dt = {dt:g}: its block at "
                        f"central frequency k = {k} has no Cholesky factor (LAPACK info {info})")
                np.copyto(block, block.T.conj(), where=upper)
        finally:
            if before is not None:
                setter(before)


def _multiplier_green_rows(multiplier: np.ndarray, cells: np.ndarray, shape):
    """G[cells][:, cells] a chunk of rows at a time, G the multiplier's (module docstring)."""
    s = cells.size
    if s == 0:
        return
    origin = np.zeros(math.prod(shape))
    origin[0] = 1.0
    green = _apply_multiplier(multiplier, origin, shape)
    coords = np.unravel_index(cells, shape)
    rows = max(1, _GREEN_CHUNK_BYTES // (8 * s))
    for start in range(0, s, rows):
        chunk = slice(start, start + rows)
        # the flat index of x_i - x_j, C order, one axis at a time
        index = np.zeros((min(rows, s - start), s), dtype=np.intp)
        for x, n in zip(coords, shape):
            index *= n
            diff = x[chunk, None] - x
            diff %= n
            index += diff
        yield green[index]


def _block_green_rows(gathered: np.ndarray, columns: np.ndarray, q: np.ndarray,
                      c: np.ndarray, n_c: int):
    """G[cells][:, cells] a chunk of rows at a time from the cells' gathered columns.

    gathered[k, p, j] is B_k[p, columns[j]]; cell i sits at column columns[q[i]]
    and at c[i] along the last axis (module docstring).
    """
    s = c.size
    rows = max(1, _GREEN_CHUNK_BYTES // (8 * n_c * max(columns.size, 1)))
    for start in range(0, s, rows):
        chunk = slice(start, start + rows)
        first, last = int(q[chunk].min()), int(q[chunk].max()) + 1
        table = np.fft.irfft(gathered[:, columns[first:last]], n=n_c, axis=0)
        shift = c[chunk, None] - c
        shift %= n_c
        yield table[shift, q[chunk, None] - first, q]


def _apply_central_blocks(blocks: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Apply per-frequency blocks to values shaped (n_a n_b, n_c)."""
    spectrum = np.fft.rfft(values, axis=1).T[:, :, None]
    return _from_eigenbasis(blocks, spectrum, values.shape[1]).ravel()


def _apply_multiplier(multiplier: np.ndarray, values, shape: tuple[int, ...]) -> np.ndarray:
    """Apply a real Fourier multiplier on the rfftn grid to values of ``shape``.

    One complex array carries the spectrum through every pass: rfft along
    the last axis, then the complex passes in place, in the order of
    np.fft.rfftn (axes d-2 .. 0) and np.fft.irfftn (axes 0 .. d-2), so the
    bits equal those of rfftn / multiply / irfftn.
    """
    spectrum = np.fft.rfft(np.reshape(values, shape), axis=-1)
    inner = range(len(shape) - 1)
    for axis in reversed(inner):
        np.fft.fft(spectrum, axis=axis, out=spectrum)
    spectrum *= multiplier
    for axis in inner:
        np.fft.ifft(spectrum, axis=axis, out=spectrum)
    return np.fft.irfft(spectrum, n=shape[-1], axis=-1).ravel()


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


def semigroup_apply(op: DiscreteRockland, t: float, f: Field) -> Field:
    """Apply the heat semigroup exp(-t R) spectrally.  Requires t >= 0."""
    if t < 0:
        raise ValueError(f"semigroup time must be >= 0, got {t}")
    op._check_field(f)
    decay = spectral_map(op, lambda w: np.exp(-t * w))
    return Field(op.grid, decay(f.values).reshape(op.grid.shape))


def spectral_map(op: DiscreteRockland, g):
    """The map of flat grid values x to flat g(R) x, g a function of the eigenvalues.

    g(w) is evaluated once, on the cached eigensystem.  v[k]^H x is computed
    as conj(v[k]^T conj(x)) so that the transposed view of v is not copied.
    """
    w, v = op.eigensystem()
    n_c = op.grid.points[-1]
    gw = g(w)[:, :, None]

    def apply(values) -> np.ndarray:
        spectrum = np.fft.rfft(np.reshape(values, (1, -1, n_c)), axis=-1).transpose(2, 1, 0)
        coeff = gw * np.matmul(v.transpose(0, 2, 1), spectrum.conj()).conj()
        return _from_eigenbasis(v, coeff, n_c).ravel()

    return apply


def _from_eigenbasis(v: np.ndarray, coeff: np.ndarray, n_c: int) -> np.ndarray:
    """Real fields (S, m, n_c) from the blocks v[k] @ coeff[k], coeff shaped (K, m, S)."""
    return np.fft.irfft(np.matmul(v, coeff).transpose(2, 1, 0), n=n_c, axis=-1)
