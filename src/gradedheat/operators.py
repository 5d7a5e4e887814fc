"""Discrete Rockland operators: Laplacians, sub-Laplacians, spectral calculus.

Both operators are symmetric positive semidefinite and act on C-order
raveled grid values:

* ``build_euclidean_laplacian`` is the negative Laplacian with the compact
  3-point stencil (-1, 2, -1)/h^2 per axis and periodic wraparound.  It is
  its stencil, with no matrix: its product has the bits of the CSR product
  of the matrix the stencil defines, and that CSR matrix is a view built on
  first access (``_Laplacian``).  Building it and stepping with it import
  no scipy module.

* ``build_heisenberg_sublaplacian`` is R = -(X^2 + Y^2) for the left-invariant
  frame X = d_a - (b/2) d_c, Y = d_b + (a/2) d_c.  X and Y are discretised
  with centred first differences and squared as matrices; since the
  coefficient of d_c is constant along the c-axis, both are exactly
  antisymmetric and R = X^T X + Y^T Y is positive semidefinite by
  construction.  It is assembled as a scipy.sparse CSR matrix, which is
  imported with its first build, not with the package.

Both operators are 2-homogeneous under the group dilations (nu = 2).

The spectral calculus uses the central-variable Fourier structure: the
coefficients of both operators do not depend on the last grid axis (c on
H1), so a real FFT along that axis splits R into one dense Hermitian
(n_a n_b) x (n_a n_b) block B_k per frequency -- on H1 the discrete
counterpart of the twisted Laplacians.  The blocks are read off the
CSR matrix (on R^d its view) and checked against R on a fixed probe; an
operator that
varies along the last axis is refused with ``CapabilityError``, and so are
blocks above ``SPECTRAL_DOF_LIMIT`` dof and a block set whose peak, with
the blocks the operator already caches, exceeds the physical memory, before
any block is built.  The resolvent's peak is one block set and the coupling
table the blocks are summed from; the eigensystem's is the larger of two
block sets and that.

The blocks are real where the grid's first two axes are the same.  The
swap S of a and b, with c reversed, maps X to Y and Y to X, so the
sub-Laplacian satisfies S B_k S = conj(B_k).  In the basis U = Q D of
swap-symmetric and swap-antisymmetric pairs (Q real orthonormal, D = 1 on
the symmetric and i on the antisymmetric ones) every U^H B_k U is real
symmetric, and the blocks are built in it as float64: half the bytes of
complex ones, and half the flops in every product, which takes the complex
spectrum's real and imaginary parts as two rows of one real product.  U
is applied as an O(m) gather on the way in and out.  Whether S is a
symmetry is checked on the coupling the blocks are summed from, not
assumed from the grid; where it is not (a and b of different lengths or
widths, a potential that tells them apart), the blocks stay complex in the
identity basis and the same code runs on them.  The swap basis is an
interim: Harper chains, which would replace the dense blocks, take it with
them.

* ``eigensystem`` diagonalises the blocks in one batched ``eigh``, computed
  lazily and cached on the operator, real in the swap basis.  Tiny
  negative eigenvalues (within -1e-10 * lambda_max) are clamped to zero.
  ``spectral_map`` applies g(R) as rfft along the last axis, U^H, v^H,
  g(w), v, U, irfft; ``semigroup_apply`` and the Duhamel stepper take g(R)
  from it and from nowhere else.

* ``resolvent`` applies (I + dt R)^{-1}, built once per dt and cached.  On
  H1 each block of I + dt R is factorised by LAPACK dpotrf and inverted by
  dpotri in place (zpotrf and zpotri for complex blocks), n^3 real or
  complex flops a block, and its lower triangle is mirrored.  scipy's
  OpenBLAS is held at one thread meanwhile, so the inverse has the same
  bits at any BLAS thread count and wakes no threads to spin against a
  sweep's workers.  On R^d the Laplacian is invariant under every grid
  translation, so the resolvent is the Fourier multiplier 1/(1 + dt lambda),
  lambda the real FFT of R's row at the origin, applied by one rfft, the
  complex passes in place, a multiply and one irfft, with the bits of
  rfftn / multiply / irfftn.  An I + dt R that is not positive definite (a
  potrf info naming the central frequency on H1, a 1 + dt lambda <= 0 on
  R^d) is a ``StabilityError``.  ``resolvent_flops`` states the flops of
  one apply.  The backward-Euler stepper uses the resolvent as its CG
  preconditioner on every grid of dimension two or more, and as the
  (I + dt R)^{-1} of its Woodbury step.  scipy.linalg.lapack is imported on
  the first H1 resolvent, not with the package; the multiplier on R^d needs
  no scipy module.

* ``support_resolvent`` maps values on given cells to the flat
  (I + dt R)^{-1} of their scatter: on R^d the scatter and the multiplier,
  with the bits of ``resolvent``; on H1 the product with the cells' columns
  of the inverse blocks, gathered once as the rows they are the conjugate
  transposes of, 4 (n_c/2 + 1) m u flops for u
  (a, b) columns instead of 4 (n_c/2 + 1) m^2 (8 for complex blocks).  In
  the swap basis the columns are those of the cells with their swaps, at
  most twice as many; a support symmetric under the swap, as the
  mollified delta nets are, adds none.  It also yields the rows of the
  Green's matrix G = (I + dt R)^{-1} between the cells, a chunk at a time,
  read off the cached resolvent with no solve; ``green_rows`` yields those
  alone.  On R^d G is translation invariant: G[x, y] is the multiplier's
  irfftn at x - y.  On H1 it is invariant along c only: G[(p, c), (q, c')]
  is the irfft of the inverse blocks' entries B_k[p, q] over k, taken at
  c - c' mod n_c, so a chunk costs one length-n_c irfft per pair of its
  (a, b) columns, read from the same gather and rotated back to the
  identity basis.  The Woodbury step samples G on the support of V this
  way, and applies its correction by the column product.  When the columns
  are all of them, the gather is the cached inverse itself; any other
  gather is refused, like a block build, when its bytes with the cached
  blocks exceed the physical memory.

* ``support_green`` maps values on given cells to G[cells][:, cells] times
  them, the resolvent of their scatter read on the cells, computing only
  what the cells need.  On R^d it is the circular convolution with G's
  column at the origin on a box around the cells: on each axis the cells
  span a periodic arc of b points (a support that wraps the boundary is no
  wider), and a side of the smallest 5-smooth L >= 2b - 1 sees every
  difference of two cells once; where L would not be below the axis length
  the whole axis is taken.  At 256^2 a support of 7209 cells took 0.36 ms
  against 0.63 ms for a resolvent apply.  On H1 it is the product with the
  cells' u x u sub-blocks B_k^{-1}[columns][:, columns], gathered once into
  one C-ordered array, and an irfft of those u columns, 4 (n_c/2 + 1) u^2
  flops (8 for complex blocks), the columns taken as in
  ``support_resolvent``.  The CG step of backward Euler runs
  on the support of V with it.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading

import numpy as np

from gradedheat._lapack import openblas_thread_setter
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


def _sparse():
    """scipy.sparse, imported on first use: by the H1 operator and the CSR views only."""
    import scipy.sparse
    return scipy.sparse


@functools.cache
def _lapack_thread_setter():
    """The thread setter of the OpenBLAS scipy.linalg.lapack links, or None.

    Only H1's dpotrf/dpotri (``_invert_in_place``) still run in scipy's
    OpenBLAS; the steps' LAPACK runs in numpy's (``gradedheat._lapack``).
    """
    from scipy.linalg import _flapack
    try:
        return openblas_thread_setter(ctypes.CDLL(_flapack.__file__))
    except OSError:
        return None


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


class _PlainBasis:
    """The identity: complex blocks act on the spectrum as it is.

    The operand of a block product is the spectrum of the u columns as one
    complex row per central frequency, (K, 1, u), K = n_c/2 + 1.
    """

    def closure(self, columns: np.ndarray) -> np.ndarray:
        return columns

    def restricted(self, columns: np.ndarray) -> "_PlainBasis":
        return self

    def into(self, spectrum: np.ndarray) -> np.ndarray:
        """The operand (K, 1, u) of the spectrum (u, K)."""
        return np.ascontiguousarray(spectrum.T)[:, None, :]

    def out_of(self, y: np.ndarray) -> np.ndarray:
        """The spectrum (m, K) of a block product (K, 1, m)."""
        return y[:, 0, :].T

    def rows_out_of(self, gathered: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """B[:, columns][rows] for the gathered rows B[columns] of Hermitian blocks B."""
        return gathered[:, :, rows].conj().transpose(0, 2, 1)

    def times_adjoint(self, x: np.ndarray) -> np.ndarray:
        return x


class _SwapBasis:
    """The unitary U in which the blocks of a swap-symmetric operator are real.

    S swaps the first two grid axes of the (a, b) columns, and maps a set of
    columns, listed in ascending order, onto itself: partner[p] is S p.
    Column p of U is e_p where S p = p, (e_p + e_Sp)/sqrt 2 where p < S p and
    i (e_Sp - e_p)/sqrt 2 where p > S p (odd): U = Q D, Q the real orthonormal
    basis of swap-symmetric and swap-antisymmetric pairs, D = diag(1, i) on
    them.  For a Hermitian B with S B S = conj(B), Q^T B Q has a real
    diagonal and an imaginary off-diagonal part in that split, so U^H B U is
    real symmetric.  Row p of U holds U[p, p] = diag[p] and U[p, S p] =
    pair[p], each real or imaginary, so U^H x and U y read two float entries
    per float entry, an O(m) gather over the K = n_c/2 + 1 central
    frequencies.  The operand of a block product is U^H x as two float rows
    per central frequency, its real and imaginary parts, (K, 2, u), which the
    real blocks take in one real product.
    """

    def __init__(self, partner: np.ndarray, frequencies: int):
        p = np.arange(partner.size)
        fixed = p == partner
        self.partner, self.frequencies = partner, frequencies
        self.odd = p > partner
        r = math.sqrt(0.5)
        self.diag = np.where(fixed, 1.0, np.where(self.odd, -1j * r, r))
        self.pair = np.where(fixed, 0.0, np.where(self.odd, r, 1j * r))
        # U^H[p, p] and U^H[p, S p]
        self._adjoint_diag, self._adjoint_pair = self.diag.conj(), self.pair[partner].conj()

    # built on first use: an operator whose blocks are refused never needs them
    @functools.cached_property
    def _into(self):
        return self._pair_gather(self._adjoint_diag, self._adjoint_pair, into=True)

    @functools.cached_property
    def _out_of(self):
        return self._pair_gather(self.diag, self.pair, into=False)

    def _pair_gather(self, diag: np.ndarray, pair: np.ndarray, into: bool):
        """Flat float indices and factors of x -> diag x + pair x[partner], row by row.

        A factor a or i a times a complex entry (x_re, x_im) is (a x_re,
        a x_im) or (-a x_im, a x_re): the entries complex multiplication
        would give, as the other part of the factor is zero.  into reads
        complex (u, K) and writes float rows (K, 2, u); otherwise it reads
        float rows (K, 2, m) and writes complex (m, K).
        """
        u, k = self.partner.size, self.frequencies
        gathers = []
        for rows, factor in ((np.arange(u), diag), (self.partner, pair)):
            imaginary = (factor.imag != 0.0)[:, None]
            scale = np.where(imaginary, factor.imag[:, None] * [-1.0, 1.0], factor.real[:, None])
            part = np.where(imaginary, [1, 0], [0, 1])
            if into:
                index = (rows * k + np.arange(k)[:, None, None]) * 2 + part.T
                scale = scale.T
            else:
                index = (np.arange(k)[None, :, None] * 2 + part[:, None]) * u + rows[:, None, None]
                scale = scale[:, None]
            # spelt out in full: a multiply broadcast over two axes ran 5x slower
            gathers.append((index, np.ascontiguousarray(np.broadcast_to(scale, index.shape))))
        return gathers

    @staticmethod
    def _gather(values: np.ndarray, gathers) -> np.ndarray:
        flat = values.view(float).reshape(-1)
        (first, first_scale), (second, second_scale) = gathers
        out = flat.take(first)
        out *= first_scale
        term = flat.take(second)
        term *= second_scale
        out += term
        return out

    def closure(self, columns: np.ndarray) -> np.ndarray:
        """The ascending columns with their swaps, the least set S maps onto itself."""
        return np.union1d(columns, self.partner[columns])

    def restricted(self, columns: np.ndarray) -> "_SwapBasis":
        """The basis of the ascending columns, a set S maps onto itself."""
        return _SwapBasis(np.searchsorted(columns, self.partner[columns]), self.frequencies)

    def into(self, spectrum: np.ndarray) -> np.ndarray:
        """The operand U^H x (K, 2, u) of the spectrum x (u, K), C-ordered."""
        return self._gather(spectrum, self._into)

    def out_of(self, y: np.ndarray) -> np.ndarray:
        """The spectrum U y (m, K) of a block product y (K, 2, m), C-ordered."""
        return self._gather(y, self._out_of).view(complex)[:, :, 0]

    def rows_out_of(self, gathered: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """(U M)[rows] for M = T[:, columns], each row a full column set.

        gathered holds the rows T[columns] of the real symmetric blocks T.
        """
        columns = gathered.transpose(0, 2, 1)
        at = (slice(None), None)
        return (self.diag[rows][at] * columns[:, rows]
                + self.pair[rows][at] * columns[:, self.partner[rows]])

    def times_adjoint(self, x: np.ndarray) -> np.ndarray:
        """x U^H: the row vectors x times U^H."""
        return self._adjoint_diag * x + self.pair.conj() * x[..., self.partner]

    def orthogonal(self):
        """Q, the real part of the basis change: U = Q D, as a CSR matrix."""
        p = np.arange(self.partner.size)
        fixed = p == self.partner
        r = math.sqrt(0.5)
        values = np.concatenate([np.where(fixed, 1.0, np.where(self.odd, -r, r)),
                                 np.where(fixed, 0.0, r)])
        return _sparse().csr_matrix(
            (values, (np.concatenate([p, self.partner]), np.concatenate([p, p]))),
            shape=(p.size, p.size))


def _block_basis(rows, points) -> _PlainBasis | _SwapBasis:
    """The swap basis where the coupling rows are symmetric under S, else the identity.

    rows are the rows at c = 0, A_m[p, q] = rows[p, q n_c + m].  S swaps the
    first two axes of the (a, b) columns where they have the same length.
    S B_k S = conj(B_k) at every central frequency k iff S A_m S = A_{-m} at
    every offset m, which is checked here, to one rounding of the largest
    coupling, before any block is built.
    """
    lead, n_c = points[:-1], points[-1]
    if len(lead) < 2 or lead[0] != lead[1]:
        return _PlainBasis()
    swap = np.arange(math.prod(lead)).reshape(lead).swapaxes(0, 1).ravel()
    column, offset = np.divmod(np.arange(rows.shape[1]), n_c)
    mirrored = rows[swap][:, swap[column] * n_c + (-offset) % n_c]
    scale = abs(rows).max()
    if abs(mirrored - rows).max() > np.finfo(float).eps * scale:
        return _PlainBasis()
    return _SwapBasis(swap, n_c // 2 + 1)


class DiscreteRockland:
    """Symmetric PSD operator on a grid, with a cached spectrum.

    Built from a sparse matrix, which it holds as CSR.  Its solvers read it
    through ``product``, ``periodic_tridiagonal``, ``row_sum_bound`` and
    ``row_width``; the Laplacian on R^d gives them from its stencil
    (``_Laplacian``).
    """

    def __init__(self, grid: Grid, matrix, name: str, nu: int = 2):
        matrix = _sparse().csr_matrix(matrix)
        if matrix.shape != (grid.size, grid.size):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match grid size {grid.size}"
            )
        scale = abs(matrix).max() or 1.0
        skew = abs(matrix - matrix.T).max()
        if skew > 1e-12 * scale:
            raise ValueError(f"operator matrix is not symmetric (relative skew {skew/scale:.2e})")
        self.matrix = matrix
        self._setup(grid, name, nu)

    def _setup(self, grid: Grid, name: str, nu: int):
        self.grid = grid
        self.name = name
        self.nu = nu
        self._lock = threading.Lock()
        self._eigensystem: tuple[np.ndarray, np.ndarray] | None = None
        self._resolvents: dict[float, np.ndarray] = {}

    def __repr__(self):
        return f"DiscreteRockland({self.name}, dof={self.grid.size}, nu={self.nu})"

    @functools.cached_property
    def _basis(self) -> _PlainBasis | _SwapBasis:
        """The basis of the central-frequency blocks (``_block_basis``)."""
        return _block_basis(self.matrix[::self.grid.points[-1]], self.grid.points)

    def product(self, values: np.ndarray) -> np.ndarray:
        """R x for flat grid values x (N,), or for each row of a C-ordered block (k, N).

        A CSR product sums each row from zero in ascending column order, for
        one vector or a block, so a row of a block has the bits of its
        vector's product.
        """
        if values.ndim == 1:
            return self.matrix @ values
        return np.ascontiguousarray((self.matrix @ values.T).T)

    def apply(self, f: Field) -> Field:
        """Matrix-vector product R f."""
        self._check_field(f)
        return Field(self.grid, self.product(f.flat).reshape(self.grid.shape))

    def quad_form(self, f: Field) -> float:
        """<R f, f> in l2 weighted by the cell volume; clamped at zero."""
        self._check_field(f)
        v = f.flat
        # np.sum (fixed pairwise order) as in the solvers' norm series, so the
        # value matches their t = 0 record bit for bit
        q = float(np.sum(v * self.product(v))) * self.grid.cell_volume
        # exact value is >= 0; rounding may leave a tiny negative residue
        return max(q, 0.0)

    def periodic_tridiagonal(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(R[i, i], R[i, i + 1], R[0, n - 1]) of a periodic tridiagonal R on a 1-D grid.

        An R with any other stencil is a CapabilityError.
        """
        mat = self.matrix
        n = self.grid.size
        coo = mat.tocoo()
        offsets = np.unique((coo.col - coo.row)[coo.data != 0] % n)
        offsets = np.where(offsets > n // 2, offsets - n, offsets)
        if np.any(np.abs(offsets) > 1):
            raise CapabilityError(
                f"the 1-D stepper needs a periodic tridiagonal R (stencil offsets -1, 0, 1); "
                f"{self.name} has stencil offsets {sorted(offsets.tolist())}")
        return mat.diagonal(), mat.diagonal(1), float(mat.diagonal(n - 1)[0])

    def row_sum_bound(self) -> float:
        """The largest absolute row sum of R, a bound on its norm (Gershgorin)."""
        return float(abs(self.matrix).sum(axis=1).max())

    def row_width(self) -> int:
        """The most entries a row of R stores."""
        return int(np.diff(self.matrix.indptr).max())

    def _origin_row(self) -> np.ndarray:
        """Row 0 of R, shaped like the grid."""
        return self.matrix[[0]].toarray().reshape(self.grid.shape)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Clamped eigenvalues and orthonormal eigenvectors, per central frequency.

        Returns w of shape (n_c // 2 + 1, m) and v of shape (n_c // 2 + 1, m, m),
        m = size / n_c: block k of R under a real FFT along the last axis is
        U v[k] diag(w[k]) v[k]^H U^H, U the blocks' basis (module docstring):
        the swap basis, with v real, where S B_k S = conj(B_k), else the
        identity, with v complex.  Each frequency 0 < k < n_c / 2 stands for
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
        (``_apply_multiplier``); on H1 one real FFT along the last axis, the
        basis change, one batched block product, its inverse and one inverse
        FFT.
        The multiplier or the inverted blocks are built on the first call
        for each dt and cached; concurrent callers share them.  H1 blocks
        larger than ``SPECTRAL_DOF_LIMIT`` are refused (``_checked_blocks``),
        and an I + dt R that is not positive definite is a StabilityError.
        """
        inverse = self._resolvent_blocks(dt)
        if self.grid.group.is_abelian:
            return _apply_multiplier(inverse, values, self.grid.shape)
        basis = self._basis
        return _apply_central_blocks(inverse, np.reshape(values, (-1, self.grid.points[-1])),
                                     basis, basis)

    @property
    def resolvent_flops(self) -> float:
        """The flops of one ``resolvent`` apply, the unit of the steppers' cost model.

        5 N log2 N for the rfftn / irfftn pair on R^d.  On H1, m = N / n_c,
        the block products: 4 (n_c / 2 + 1) m^2 for real blocks, one real
        product with the spectrum's real and imaginary parts, and
        8 (n_c / 2 + 1) m^2 for complex ones; the FFTs along c and the
        basis change are the smaller terms.
        """
        n = self.grid.size
        if self.grid.group.is_abelian:
            return 5.0 * n * math.log2(n)
        n_c = self.grid.points[-1]
        per_entry = 4.0 if isinstance(self._basis, _SwapBasis) else 8.0
        return per_entry * (n_c // 2 + 1) * (n // n_c) ** 2

    def support_resolvent(self, dt: float, cells: np.ndarray):
        """(apply, rows) for G = (I + dt R)^{-1} and distinct flat grid indices cells.

        apply(values) is the flat G x for the x that holds values on cells and
        zero elsewhere: on R^d that scatter and ``resolvent``'s multiplier,
        with its bits; on H1 the product with the cells' columns of the
        inverse blocks, gathered here once (module docstring).  rows yields
        G[cells][:, cells] a chunk of rows at a time (``green_rows``), on H1
        from the same gather.
        """
        if self.grid.group.is_abelian:
            inverse = self._resolvent_blocks(dt)
            shape = self.grid.shape
            scattered = np.zeros(self.grid.size)

            def apply(values) -> np.ndarray:
                scattered[cells] = values
                return _apply_multiplier(inverse, scattered, shape)

            return apply, _multiplier_green_rows(inverse, cells, shape)
        n_c = self.grid.points[-1]
        gathered, columns, q, c = self._support_columns(dt, cells, square=False)
        scattered = np.zeros((columns.size, n_c))
        basis = self._basis
        local = basis.restricted(columns)

        def apply(values) -> np.ndarray:
            scattered[q, c] = values
            return _apply_central_blocks(gathered, scattered, local, basis)

        return apply, _block_green_rows(gathered, basis, columns, q, c, n_c)

    def support_green(self, dt: float, cells: np.ndarray):
        """The map of values on distinct flat grid indices cells to G x on the cells.

        G = (I + dt R)^{-1} and x holds the values on cells and zero
        elsewhere, so the map is G[cells][:, cells], applied computing only
        what the cells need: on R^d a circular convolution on a box that
        holds the cells, on H1 a product with the cells' sub-blocks of the
        inverse blocks (module docstring).
        """
        if self.grid.group.is_abelian:
            return _multiplier_support_green(self._resolvent_blocks(dt), cells, self.grid.shape)
        n_c = self.grid.points[-1]
        sub, columns, q, c = self._support_columns(dt, cells, square=True)
        scattered = np.zeros((columns.size, n_c))
        flat = q * n_c + c
        local = self._basis.restricted(columns)

        def apply(values) -> np.ndarray:
            scattered[q, c] = values
            return _apply_central_blocks(sub, scattered, local, local)[flat]

        return apply

    def _support_columns(self, dt: float, cells: np.ndarray, square: bool):
        """(blocks, columns, q, c): the cells' columns of the H1 inverse blocks.

        columns are the (a, b) columns of the cells with, in the swap basis,
        their swaps, the least set the basis change maps onto itself (at
        most twice as many); cell i sits in column columns[q[i]] and at c[i]
        along the last axis.  blocks[k] is B_k^{-1}[columns], the rows whose
        conjugate transposes are the columns B_k^{-1}[:, columns], or with
        square B_k^{-1}[columns][:, columns], B_k^{-1} the cached inverse in
        the blocks' basis; when the columns are all of them it is the cached
        inverse itself, with no copy.  A gather whose bytes, with the blocks
        the operator caches, exceed the physical memory is refused with
        CapabilityError before it is made.
        """
        inverse = self._resolvent_blocks(dt)
        column, c = np.divmod(cells, self.grid.points[-1])
        columns = self._basis.closure(np.unique(column))
        q = np.searchsorted(columns, column)
        k, m = inverse.shape[:2]
        u = columns.size
        if u == m:
            return inverse, columns, q, c
        self._check_memory((u if square else m) * u * k * inverse.itemsize,
                           f"{u} of the {m} columns of {k} inverse blocks")
        if square:
            # one gather of the flat entries: indexing the two axes at once
            # returns a strided copy, on which a batched product ran 9x slower
            entries = (columns[:, None] * m + columns).ravel()
            sub = np.take(inverse.reshape(k, m * m), entries, axis=1).reshape(k, u, u)
            return sub, columns, q, c
        return np.take(inverse, columns, axis=1), columns, q, c

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
        """The central-frequency blocks of R in their basis, verified against R on a probe.

        Blocks larger than ``SPECTRAL_DOF_LIMIT`` (read at call time), and
        a build whose peak with the blocks the operator already caches
        exceeds the physical memory, are refused with ``CapabilityError``
        before any block is built.  A block set is float64 in the swap basis
        and complex128 in the identity.  The peak is the larger of the
        caller's copies of the block set (one for the in-place resolvent,
        two for the eigensystem) and one set with the coupling table the
        blocks are summed from, offsets x m x m complex or twice as many
        float64 (``_central_blocks``).
        """
        n_c = self.grid.points[-1]
        block = self.grid.size // n_c
        if block > SPECTRAL_DOF_LIMIT:
            raise CapabilityError(
                f"dense central-frequency blocks of {block} dof exceed the limit of "
                f"{SPECTRAL_DOF_LIMIT}; use a smaller grid")
        basis = self._basis
        offsets = np.unique(self.matrix[::n_c].indices % n_c).size
        itemsize = 8 if isinstance(basis, _SwapBasis) else 16
        block_set = (n_c // 2 + 1) * block**2 * itemsize
        self._check_memory(
            max(copies * block_set, block_set + offsets * block**2 * 16),
            f"{n_c // 2 + 1} dense central-frequency blocks of {block} dof for "
            + ("the resolvent" if copies == 1 else "the eigensystem"))
        blocks = _central_blocks(self.matrix, n_c, basis)
        self._check_invariance(
            lambda x: _apply_central_blocks(blocks, x.reshape(block, -1), basis, basis),
            "along the last grid axis; it has no central-frequency block form")
        return blocks

    def _check_memory(self, build: int, what: str):
        """Refuse a build of that many bytes whose peak, with the blocks the operator
        already caches (its eigensystem and each dt's inverse blocks), exceeds the
        physical memory: CapabilityError naming what, before any of it is made."""
        cached = sum(inverse.nbytes for inverse in self._resolvents.values())
        if self._eigensystem is not None:
            cached += sum(part.nbytes for part in self._eigensystem)
        need = build + cached
        memory = _physical_memory()
        if memory is not None and need > memory:
            held = f" with the {cached} bytes this operator caches" if cached else ""
            raise CapabilityError(
                f"{what} need {need} bytes{held}, more than the {memory} bytes of "
                f"physical memory; use a smaller grid")

    def _checked_symbol(self) -> np.ndarray:
        """The Fourier symbol of R on an abelian grid, verified on a probe.

        A translation-invariant R acts as the correlation with its row at
        the origin, whose real FFT is then real since R is symmetric.
        """
        shape = self.grid.shape
        symbol = np.fft.rfftn(self._origin_row(), axes=range(len(shape))).real
        self._check_invariance(lambda x: _apply_multiplier(symbol, x, shape),
                               "of the grid; it is no Fourier multiplier")
        return symbol

    def _check_invariance(self, apply, what: str):
        """Refuse a structured form of R that disagrees with R on a fixed probe."""
        probe = np.random.default_rng(0).standard_normal(self.grid.size)
        want = self.product(probe)
        if np.linalg.norm(apply(probe) - want) > 1e-10 * np.linalg.norm(want):
            raise CapabilityError(
                f"operator {self.name} is not invariant under translations {what}")

    def _check_field(self, f: Field):
        if f.grid != self.grid:
            raise ValueError("field grid does not match operator grid")


def _central_blocks(matrix, n_c: int, basis) -> np.ndarray:
    """The blocks B_k of the matrix under a real FFT along the last axis, in the basis.

    The rows at c = 0 hold the coupling A_m[p, q] of column (p, 0) to
    (q, m); translation invariance along c repeats it at every c, so
    B_k = sum_m A_m exp(i theta_km), theta_km = 2 pi k m / n_c, for
    k = 0 .. n_c // 2.  The canonical rows hold each (p, q, m) once, so the
    coupling table is filled by assignment.  In the identity basis the
    table is complex, so the product makes no complex copy of it.  In the
    swap basis U = Q D (``_SwapBasis``) the rows are rotated to
    A'_m = Q^T A_m Q first, and U^H B_k U = sum_m Re(exp(i theta_km) D^H A'_m D)
    is cos(theta_km) A'_m on the entries between two symmetric or two
    antisymmetric columns and -/+ sin(theta_km) A'_m between a symmetric row
    and an antisymmetric column or the reverse: each entry of A'_m goes to
    one of two float64 tables, one summed with the cosines and one with the
    sines.  The imaginary part that drops out vanishes where
    S A_m S = A_{-m} (``_block_basis``).
    """
    n_ab = matrix.shape[0] // n_c
    rows = matrix[::n_c]
    rows.sum_duplicates()
    real = isinstance(basis, _SwapBasis)
    if real:
        sp = _sparse()
        rotation = basis.orthogonal()
        rows = (rotation.T @ rows @ sp.kron(rotation, sp.identity(n_c), format="csr")).tocsr()
    rows = rows.tocoo()
    q, m = np.divmod(rows.col, n_c)
    offsets, which = np.unique(m, return_inverse=True)
    angles = 2 * np.pi * (np.outer(np.arange(n_c // 2 + 1), offsets) % n_c) / n_c
    if real:
        odd = basis.odd
        cross = odd[rows.row] != odd[q]
        coupling = np.zeros((2 * offsets.size, n_ab, n_ab))
        coupling[which + offsets.size * cross, rows.row, q] = np.where(
            cross & ~odd[rows.row], -rows.data, rows.data)
        phases = np.hstack([np.cos(angles), np.sin(angles)])
    else:
        coupling = np.zeros((offsets.size, n_ab, n_ab), dtype=complex)
        coupling[which, rows.row, q] = rows.data
        phases = np.exp(1j * angles)
    return np.tensordot(phases, coupling, axes=1)


def _invert_in_place(blocks: np.ndarray, dt: float):
    """Invert symmetric or Hermitian positive definite blocks in place by LAPACK potrf and potri.

    dpotrf and dpotri for float64 blocks, zpotrf and zpotri for complex
    ones.  A C-order block is the transpose, so the conjugate, of the
    Fortran matrix LAPACK sees, so the upper triangle LAPACK writes is the
    block's lower triangle; it is mirrored into the upper.  scipy's OpenBLAS
    is held at one thread meanwhile and gets its count back after, also
    after a failure.  A block with no Cholesky factor is a StabilityError
    naming its central frequency.
    """
    from scipy.linalg import lapack

    prefix = "z" if np.iscomplexobj(blocks) else "d"
    potrf, potri = getattr(lapack, prefix + "potrf"), getattr(lapack, prefix + "potri")
    upper = ~np.tri(blocks.shape[1], dtype=bool)
    setter = _lapack_thread_setter()
    with _LAPACK_THREADS_LOCK:
        before = None if setter is None else setter(1)
        try:
            for k, block in enumerate(blocks):
                factor, info = potrf(block.T, lower=0, clean=0, overwrite_a=1)
                if info == 0:
                    info = potri(factor, lower=0, overwrite_c=1)[1]
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
    green = _multiplier_green(multiplier, shape).ravel()
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


def _multiplier_green(multiplier: np.ndarray, shape) -> np.ndarray:
    """G[x, 0] for every x, shaped like the grid: the multiplier's irfftn."""
    origin = np.zeros(math.prod(shape))
    origin[0] = 1.0
    return _apply_multiplier(multiplier, origin, shape).reshape(shape)


def _multiplier_support_green(multiplier: np.ndarray, cells: np.ndarray, shape):
    """The map v -> G[cells][:, cells] v for the multiplier's G, on a box around the cells.

    On each axis the cells' coordinates lie on a periodic arc of b points
    (the complement of the widest gap between them, so a support that wraps
    the boundary is no wider), and the coordinate differences between cells
    lie in [-(b - 1), b - 1].  A circular convolution of side L >= 2b - 1
    sees each of them once, so on the L-box, with G[x - y] at the offsets of
    |x - y| <= L // 2, it equals G on the cells.  L is the smallest 5-smooth
    number >= 2b - 1, or the axis length n where that is not below n.  The
    box kernel is symmetric, so its spectrum is a real multiplier.
    """
    green = _multiplier_green(multiplier, shape)
    box, local, offsets = [], [], []
    for x, n in zip(np.unravel_index(cells, shape), shape):
        ticks = np.unique(x)
        gaps = np.diff(ticks, append=ticks[0] + n)
        widest = int(np.argmax(gaps))
        extent = n - int(gaps[widest]) + 1
        side = min(_five_smooth(2 * extent - 1), n)
        box.append(side)
        local.append((x - ticks[(widest + 1) % ticks.size]) % n)
        t = np.arange(side)
        offsets.append(np.where(t <= side // 2, t, t - side) % n)
    box = tuple(box)
    kernel = np.fft.rfftn(green[np.ix_(*offsets)]).real
    flat = np.ravel_multi_index(local, box)
    scattered = np.zeros(math.prod(box))

    def apply(values) -> np.ndarray:
        scattered[flat] = values
        return _apply_multiplier(kernel, scattered, box)[flat]

    return apply


def _five_smooth(n: int) -> int:
    """The smallest 2^i 3^j 5^k >= n, a fast FFT length."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _block_green_rows(gathered: np.ndarray, basis, columns: np.ndarray, q: np.ndarray,
                      c: np.ndarray, n_c: int):
    """G[cells][:, cells] a chunk of rows at a time from the cells' gathered rows.

    gathered[k, j, p] is B_k[columns[j], p] in the blocks' basis, the
    conjugate of B_k[p, columns[j]], and the columns are a set it maps onto
    itself; cell i sits at column
    columns[q[i]] and at c[i] along the last axis (module docstring).  The
    entries of a chunk's rows of B_k are (U B_k U^H)[rows][:, columns].
    """
    s = c.size
    local = basis.restricted(columns)
    rows = max(1, _GREEN_CHUNK_BYTES // (8 * n_c * max(columns.size, 1)))
    for start in range(0, s, rows):
        chunk = slice(start, start + rows)
        first, last = int(q[chunk].min()), int(q[chunk].max()) + 1
        spectrum = local.times_adjoint(basis.rows_out_of(gathered, columns[first:last]))
        table = np.fft.irfft(spectrum, n=n_c, axis=0)
        shift = c[chunk, None] - c
        shift %= n_c
        yield table[shift, q[chunk, None] - first, q]


def _block_product(blocks: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The rows z[k] conj(blocks[k]), (blocks[k]^H z[k]^T)^T, for an operand z (``_SwapBasis``).

    For Hermitian or real symmetric blocks, and for their gathered rows, the
    rows of the product of the blocks (or of their columns) with z.  The
    operand's rows meet the blocks in their own layout: real blocks take the
    real and imaginary parts as two rows, (K, 2, u), in one real product,
    which ran 1.6-1.8x as fast at m = 1024 and 1 BLAS thread as the blocks
    times those parts as two columns, and 14x as fast at 2 threads.
    """
    if np.iscomplexobj(blocks):
        return np.matmul(z.conj(), blocks).conj()
    return np.matmul(z, blocks)


def _apply_central_blocks(blocks: np.ndarray, values: np.ndarray, into, out_of) -> np.ndarray:
    """Apply per-frequency blocks to values shaped (u, n_c); a flat (m, n_c) result.

    blocks (K, u, m) are Hermitian blocks or their rows at the values' u
    columns, whose conjugate transposes are the columns applied
    (``_block_product``).  The blocks act in a basis: into is the basis of
    the u columns the values sit in, out_of that of the m rows
    (``_SwapBasis``).
    """
    spectrum = into.into(np.fft.rfft(values, axis=1))
    return _from_spectrum(out_of.out_of(_block_product(blocks, spectrum)), values.shape[1])


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


class _Laplacian(DiscreteRockland):
    """The negative Laplacian on R^d as its periodic (2d + 1)-point stencil, with no matrix.

    Row x holds the sum over the axes, in axis order from zero, of
    2 (1/h_a^2) on the diagonal, and -(1/h_a^2) at x - e_a and x + e_a,
    periodically: the entries of the CSR matrix that summed one 3-point
    difference (2, -1, -1)/h^2 per axis, which scipy divides as the
    product with 1/h^2.  ``product`` has that matrix's bits.  A CSR row is
    summed from zero in ascending column order.  On a row off the grid's
    boundary the columns ascend through x - s_a for a = 0 .. d-1 (s_a the
    C-order strides), x, then x + s_a for a = d-1 .. 0, so the flat range
    [s_0, N - s_0) is 2d + 1 products and sums of contiguous shifted slices
    in that order, the first added to zero so that a -0 turns to +0 as in
    the CSR sum.  On a row at the first or last point of an axis both
    neighbours along it sit on one side, in one of 3^d - 1 boundary orders,
    and the flat shifts of the other axes wrap to the wrong row; those
    rows, the shell, are then overwritten by sums as a CSR matrix would
    make them, from a table of their columns sorted in each row.  At 256^2
    a product took as long as a CSR product, at 64^3 twice as long; the
    CSR matrix itself is a view built on first access (``matrix``), for
    the tests, the oracle and the spectral calculus.
    """

    def __init__(self, grid: Grid):
        self._setup(grid, f"laplacian_{grid.group}", 2)
        inverse = [1.0 / h**2 for h in grid.spacings]
        diagonal = 0.0
        for c in inverse:
            diagonal += 2.0 * c
        self._diagonal, self._off = diagonal, [-c for c in inverse]
        points, d = grid.points, grid.dim
        strides = [math.prod(points[a + 1:]) for a in range(d)]
        start, stop = strides[0], grid.size - strides[0]
        self._inner = (Ellipsis, slice(start, stop))
        self._inner_terms = (
            [((Ellipsis, slice(start - s, stop - s)), c) for s, c in zip(strides, self._off)]
            + [(self._inner, diagonal)]
            + [((Ellipsis, slice(start + s, stop + s)), c)
               for s, c in reversed(list(zip(strides, self._off)))])
        edge = np.ones(points, dtype=bool)
        edge[tuple(slice(1, n - 1) for n in points)] = False
        self._shell = np.flatnonzero(edge)
        self._shell_columns, self._shell_values = self._rows(self._shell)

    def _rows(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(columns, values), each (2d + 1, len(rows)): the rows' entries, columns ascending."""
        points = self.grid.points
        x = np.array(np.unravel_index(rows, points))
        columns, values = [rows], [np.full(rows.size, self._diagonal)]
        for axis, n in enumerate(points):
            for step in (-1, 1):
                moved = x.copy()
                moved[axis] = (moved[axis] + step) % n
                columns.append(np.ravel_multi_index(moved, points))
                values.append(np.full(rows.size, self._off[axis]))
        columns, values = np.array(columns), np.array(values)
        order = np.argsort(columns, axis=0)
        return np.take_along_axis(columns, order, 0), np.take_along_axis(values, order, 0)

    @functools.cached_property
    def matrix(self):
        """R as a CSR matrix, built from the stencil on first access."""
        columns, values = self._rows(np.arange(self.grid.size))
        width = len(columns)
        return _sparse().csr_matrix(
            (values.T.ravel(), columns.T.ravel(), np.arange(0, width * self.grid.size + 1, width)),
            shape=(self.grid.size, self.grid.size))

    def product(self, values: np.ndarray) -> np.ndarray:
        """R x for flat grid values x (N,), or for each row of a C-ordered block (k, N).

        The bits of the CSR product (class docstring).
        """
        out = np.empty(values.shape)
        total = out[self._inner]
        term = np.empty(total.shape)
        (first, c), *rest = self._inner_terms
        np.multiply(values[first], c, out=total)
        total += 0.0
        for source, c in rest:
            np.multiply(values[source], c, out=term)
            total += term
        columns, coefficients = self._shell_columns, self._shell_values
        shell = np.take(values, columns[0], axis=-1)
        shell *= coefficients[0]
        shell += 0.0
        for column, c in zip(columns[1:], coefficients[1:]):
            term = np.take(values, column, axis=-1)
            term *= c
            shell += term
        out[..., self._shell] = shell
        return out

    def periodic_tridiagonal(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(R[i, i], R[i, i + 1], R[0, n - 1]) on a 1-D grid."""
        n, off = self.grid.size, self._off[0]
        return np.full(n, self._diagonal), np.full(n - 1, off), off

    def row_sum_bound(self) -> float:
        """The largest absolute row sum of R, summed as scipy sums a CSR row."""
        rows = np.vstack([[abs(c) for _, c in self._inner_terms], abs(self._shell_values.T)])
        width = rows.shape[1]
        return float(np.add.reduceat(rows.ravel(), np.arange(0, rows.size, width)).max())

    def row_width(self) -> int:
        return len(self._inner_terms)

    def _origin_row(self) -> np.ndarray:
        row = np.zeros(self.grid.size)
        columns, values = self._rows(np.zeros(1, dtype=np.intp))
        row[columns[:, 0]] = values[:, 0]
        return row.reshape(self.grid.shape)


def _shift(n: int):
    """Periodic forward shift: (S u)[i] = u[i+1 mod n]."""
    sp = _sparse()
    return sp.eye(n, k=1, format="csr") + sp.eye(n, k=1 - n, format="csr")


def _centered_difference(n: int, h: float):
    s = _shift(n)
    return (s - s.T) / (2.0 * h)


def _embed(mats):
    """Kronecker chain matching C-order ravel of the grid axes, as CSR."""
    sp = _sparse()
    out = mats[0]
    for m in mats[1:]:
        out = sp.kron(out, m, format="csr")
    return sp.csr_matrix(out)


def _axis_operator(grid: Grid, axis: int, mat1d):
    mats = [_sparse().identity(n, format="csr") for n in grid.points]
    mats[axis] = mat1d
    return _embed(mats)


def _coordinate_diagonal(grid: Grid, axis: int):
    vals = np.broadcast_to(grid.broadcast_axes()[axis], grid.shape).ravel()
    return _sparse().diags(vals)


def build_euclidean_laplacian(grid: Grid) -> DiscreteRockland:
    """Negative Laplacian on R^d with periodic 3-point stencils (``_Laplacian``)."""
    if not grid.group.is_abelian:
        raise ValueError(f"grid group is {grid.group}, expected a euclidean group")
    return _Laplacian(grid)


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

    g(w) is evaluated once, on the cached eigensystem, whose eigenvectors
    act in the blocks' basis: x is taken into it after the FFT and back
    before the inverse FFT.
    """
    w, v = op.eigensystem()
    basis = op._basis
    n_c = op.grid.points[-1]
    gw = g(w)[:, None, :]

    def apply(values) -> np.ndarray:
        spectrum = basis.into(np.fft.rfft(np.reshape(values, (-1, n_c)), axis=1))
        coeff = _block_product(v, spectrum)
        coeff *= gw
        return _from_spectrum(basis.out_of(np.matmul(coeff, v.transpose(0, 2, 1))), n_c)

    return apply


def _from_spectrum(spectrum: np.ndarray, n_c: int) -> np.ndarray:
    """The flat real field (m, n_c) whose rfft along the last axis is spectrum, (m, K)."""
    return np.fft.irfft(spectrum, n=n_c, axis=1).ravel()
