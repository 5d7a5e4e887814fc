"""The LAPACK routines of the steps, bound through ctypes to the OpenBLAS numpy links.

Backward Euler calls four LAPACK routines: dpttrf and dpttrs for the
periodic tridiagonal step on R (solve._periodic_tridiagonal_solver), and
the upper packed dpptrf and dpptrs of the Woodbury step
(solve._woodbury_solver).  The OpenBLAS that numpy's wheels bundle is ILP64
and exports them, as scipy_<name>_64_ from numpy 2.0 on (scipy-openblas64)
and as <name>_64_ in the 1.x wheels (openblas64_).  Loading numpy's linalg
extension with ctypes resolves them in the library it links, so binding
them imports no module and loads no second BLAS.

A numpy built against another BLAS (MKL, Accelerate, an LP64 OpenBLAS)
exports neither spelling.  There the same four routines are bound from the
capsules of scipy.linalg.cython_lapack, LP64 and in scipy's OpenBLAS: one
calling convention, every argument by reference, with 32-bit integers and
no hidden length after a character argument.  Where scipy cannot provide
them either, the first factorisation is refused with CapabilityError.  The
routines are bound on first use, under a lock, and numpy's and scipy's give
the same bits.

A factorisation runs once per problem; a solve is a function of no
arguments that solves in place on a buffer its caller owns, with its
argument block built once.  Every argument is a ctypes byref object, made
here from an array whose dtype, layout and size are checked first, and a
call hands it over with no conversion.  So the routines' argtypes are left
undeclared: declaring them cost 0.7 us a call, a fifth of a 1-D step, and
without them a step at n = 256 costs less than scipy.linalg.lapack's,
which copies its right-hand side.

The module also owns numpy's OpenBLAS thread setter,
openblas_set_num_threads_local, with which the sweep pool caps the library
(harness._capped_pool).  The factorisations and solves here run on the
calling thread at any count: dpttrf and dpttrs call no BLAS, and the upper
packed routines run dtpsv and ddot, which OpenBLAS keeps on the calling
thread up to 10000 elements (solve.WOODBURY_MAX_CELLS is below that).
"""

from __future__ import annotations

import ctypes
import functools
import threading
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError

# the ILP64 spellings of numpy's bundled OpenBLAS: numpy >= 2.0, then the 1.x wheels
_SPELLINGS = ("scipy_{}_64_", "{}_64_")
_NAMES = ("dpttrf", "dpttrs", "dpptrf", "dpptrs")
_UPPER = ctypes.c_char(b"U")


class _Routines(NamedTuple):
    integer: type  # the ctypes type of a LAPACK INTEGER
    lengths: tuple  # the hidden lengths after one character argument, by value
    dpttrf: ctypes._CFuncPtr
    dpttrs: ctypes._CFuncPtr
    dpptrf: ctypes._CFuncPtr
    dpptrs: ctypes._CFuncPtr


def openblas_thread_setter(library: ctypes.CDLL):
    """openblas_set_num_threads_local of the OpenBLAS a loaded library links, or None.

    Loading an extension module resolves the symbol in the library it links.
    The setter returns the count it replaces.  It sets
    openblas_set_num_threads' count, which is the calling thread's in an
    OpenMP build but the whole process's in the pthreads builds numpy and
    scipy ship.  A BLAS that does not export it (MKL, Accelerate, OpenBLAS
    before 0.3.27) gives None.
    """
    try:
        setter = library.openblas_set_num_threads_local
    except AttributeError:
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = ctypes.c_int
    return setter


@functools.cache
def _library() -> ctypes.CDLL | None:
    """numpy's linalg extension, whose handle resolves the BLAS numpy links; None if unloadable."""
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (OSError, AttributeError):
        return None


@functools.cache
def thread_setter():
    """The thread setter of the OpenBLAS numpy links, or None (``openblas_thread_setter``)."""
    library = _library()
    return None if library is None else openblas_thread_setter(library)


def _numpy_routines() -> _Routines | None:
    library = _library()
    if library is None:
        return None
    for spelling in _SPELLINGS:
        try:
            found = [getattr(library, spelling.format(name)) for name in _NAMES]
        except AttributeError:
            continue
        for routine in found:
            routine.restype = None
        # gfortran passes a character argument's length after the others, by value
        return _Routines(ctypes.c_int64, (ctypes.c_size_t(1),), *found)
    return None


def _scipy_routines() -> _Routines | None:
    try:
        from scipy.linalg import cython_lapack
    except ImportError:
        return None
    api = ctypes.pythonapi
    api.PyCapsule_GetName.restype = ctypes.c_char_p
    api.PyCapsule_GetName.argtypes = [ctypes.py_object]
    api.PyCapsule_GetPointer.restype = ctypes.c_void_p
    api.PyCapsule_GetPointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    found = []
    for name in _NAMES:
        capsule = cython_lapack.__pyx_capi__[name]
        address = api.PyCapsule_GetPointer(capsule, api.PyCapsule_GetName(capsule))
        found.append(ctypes.CFUNCTYPE(None)(address))
    return _Routines(ctypes.c_int32, (), *found)


@functools.cache
def _bind() -> _Routines:
    routines = _numpy_routines() or _scipy_routines()
    if routines is None:
        raise CapabilityError(
            "LAPACK dpttrf, dpttrs, dpptrf and dpptrs were found neither in the BLAS numpy "
            f"links (as {' or '.join(s.format('<name>') for s in _SPELLINGS)}) nor in "
            "scipy.linalg.cython_lapack")
    return routines


_BIND_LOCK = threading.Lock()


def _routines() -> _Routines:
    with _BIND_LOCK:
        return _bind()


def _ref(a: np.ndarray, size: int):
    """A byref of a, which keeps a alive: a float64, C-contiguous and writeable array of size."""
    if a.dtype != np.float64 or not a.flags.c_contiguous or a.size != size:
        raise ValueError(f"LAPACK needs a C-contiguous float64 array of {size} entries, "
                         f"got {a.dtype} {a.shape}")
    return ctypes.byref((ctypes.c_double * size).from_buffer(a))


def dpttrf(d: np.ndarray, e: np.ndarray) -> int:
    """Factor the tridiagonal (d, e) as L diag(d) L^T in place; LAPACK's info.

    d is the diagonal, e the n - 1 off-diagonal; on return e is the
    subdiagonal of the unit lower bidiagonal L.
    """
    lib = _routines()
    n, info = lib.integer(d.size), lib.integer(0)
    lib.dpttrf(ctypes.byref(n), _ref(d, d.size), _ref(e, d.size - 1), ctypes.byref(info))
    return info.value


def dpttrs(d: np.ndarray, e: np.ndarray, b: np.ndarray):
    """The function that solves L diag(d) L^T x = b in place on b, for dpttrf's (d, e)."""
    lib = _routines()
    n, one, info = lib.integer(d.size), lib.integer(1), lib.integer(0)
    return functools.partial(lib.dpttrs, ctypes.byref(n), ctypes.byref(one), _ref(d, d.size),
                             _ref(e, d.size - 1), _ref(b, d.size), ctypes.byref(n),
                             ctypes.byref(info))


def dpptrf(packed: np.ndarray, n: int) -> int:
    """Factor the upper packed symmetric n x n matrix as U^T U in place; LAPACK's info."""
    lib = _routines()
    size, info = lib.integer(n), lib.integer(0)
    lib.dpptrf(ctypes.byref(_UPPER), ctypes.byref(size), _ref(packed, n * (n + 1) // 2),
               ctypes.byref(info), *lib.lengths)
    return info.value


def dpptrs(packed: np.ndarray, n: int, b: np.ndarray):
    """The function that solves U^T U x = b in place on b, for dpptrf's upper packed factor."""
    lib = _routines()
    size, one, info = lib.integer(n), lib.integer(1), lib.integer(0)
    return functools.partial(lib.dpptrs, ctypes.byref(_UPPER), ctypes.byref(size),
                             ctypes.byref(one), _ref(packed, n * (n + 1) // 2), _ref(b, n),
                             ctypes.byref(size), ctypes.byref(info), *lib.lengths)
