"""The steps' LAPACK routines, bound through ctypes: the same bits as scipy.linalg.lapack,
from numpy's OpenBLAS or, where numpy's BLAS lacks them, from scipy's capsules."""

import ctypes
import sys

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

from gradedheat import _lapack, harness
from gradedheat.config import parse_sweep_config
from gradedheat.errors import CapabilityError
from gradedheat.solve import step_implicit

# perfbench's e1_uniqueness and e2_existence configs, one eps each: the 1-D
# step and the Woodbury step
SYSTEMS = {
    "e1": ("""
group = euclidean1
half_width = 1.0
points = 256
potential = delta2
schedule = poly
epsilons = 0.5,0.25,0.125,0.0625,0.03125,0.015625
perturbation = exp
mollifier_radius = 1.5
T = 2.0
dt = 0.0009765625
norm = l2
experiment = uniqueness
""", 0.03125),
    "e2": ("""
group = euclidean2
half_width = 2.0
points = 256
potential = delta
schedule = poly
epsilons = 0.5,0.25,0.125,0.0625
mollifier_radius = 1.5
T = 0.5
dt = 0.015625
norm = hnu2
experiment = existence
""", 0.0625),
}


@pytest.fixture
def rebind(monkeypatch):
    """Bind afresh under the test's patches, and afresh again after them."""
    _lapack._bind.cache_clear()
    yield monkeypatch
    monkeypatch.undo()
    _lapack._bind.cache_clear()


@pytest.fixture
def without_numpys_symbols(rebind):
    # the process's global namespace: numpy loads its OpenBLAS locally, so
    # no LAPACK symbol resolves there, as with a numpy built on MKL
    rebind.setattr(_lapack, "_library", lambda: ctypes.CDLL(None))
    return rebind


def tridiagonal(n, seed, shift=2.5):
    rng = np.random.default_rng(seed)
    return shift + rng.random(n), -rng.random(n - 1)


def packed_upper(s, seed, shift=None):
    """The packed upper triangle, column by column, of a symmetric s x s matrix."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((s, s))
    a = a @ a.T / s + (np.eye(s) if shift is None else shift * np.eye(s))
    return np.concatenate([a[:j + 1, j] for j in range(s)])


def check_tridiagonal(n, seed, shift=2.5):
    d, e = tridiagonal(n, seed, shift)
    want_d, want_e, want_info = lapack.dpttrf(d, e)
    info = _lapack.dpttrf(d, e)
    assert info == want_info
    if info:
        return
    assert d.tobytes() == want_d.tobytes() and e.tobytes() == want_e.tobytes()
    b = np.random.default_rng(seed + 1).standard_normal(n)
    want = lapack.dpttrs(want_d, want_e, b)[0]
    _lapack.dpttrs(d, e, b)()
    assert b.tobytes() == want.tobytes()


def check_packed(s, seed, shift=None):
    ap = packed_upper(s, seed, shift)
    want_factor, want_info = lapack.dpptrf(s, ap, lower=0)
    info = _lapack.dpptrf(ap, s)
    assert info == want_info
    if info:
        return
    assert ap.tobytes() == want_factor.tobytes()
    b = np.random.default_rng(seed + 1).standard_normal(s)
    want = lapack.dpptrs(s, want_factor, b, lower=0)[0]
    _lapack.dpptrs(ap, s, b)()
    assert b.tobytes() == want.tobytes()


def series_bytes(name):
    text, eps = SYSTEMS[name]
    problem = harness.problem_builder(parse_sweep_config(text))(eps)
    traj = step_implicit(problem)
    return b"".join([traj.l2.tobytes(), traj.sobolev_nu2.tobytes(),
                     *(s.values.tobytes() for s in traj.states)])


class TestBindings:
    @pytest.mark.parametrize("n", [4, 5, 256, 1000])
    def test_tridiagonal_routines_have_scipys_bits(self, n):
        check_tridiagonal(n, n)

    def test_indefinite_tridiagonal_gives_scipys_info(self):
        # a diagonal in [0.1, 1.1) against off-diagonals in (-1, 0] stops the factor
        check_tridiagonal(64, 3, shift=0.1)

    @pytest.mark.parametrize("s", [1, 25, 109, 400])
    def test_packed_routines_have_scipys_bits(self, s):
        check_packed(s, s)

    def test_indefinite_packed_gives_scipys_info(self):
        check_packed(50, 4, shift=-0.5)

    @pytest.mark.parametrize("bad", ["float32", "strided", "short"])
    def test_arrays_are_checked_before_a_pointer_is_made(self, bad):
        d, e = tridiagonal(8, 5)
        b = np.zeros(16)[::2] if bad == "strided" else np.zeros(8 if bad != "short" else 7)
        if bad == "float32":
            b = b.astype(np.float32)
        assert _lapack.dpttrf(d, e) == 0
        with pytest.raises(ValueError, match="C-contiguous float64 array of 8 entries"):
            _lapack.dpttrs(d, e, b)

    def test_numpys_library_is_bound(self):
        # numpy's wheels export the ILP64 routines: no capsule, no scipy.linalg
        if _lapack._numpy_routines() is None:
            pytest.skip("numpy's BLAS exports no ILP64 LAPACK")
        assert _lapack._routines().integer is ctypes.c_int64

    def test_the_pool_caps_numpys_library(self):
        assert harness._blas_thread_setter is _lapack.thread_setter


class TestFallback:
    def test_scipys_capsules_are_bound(self, without_numpys_symbols):
        assert _lapack._routines().integer is ctypes.c_int32
        check_tridiagonal(256, 7)
        check_packed(109, 8)

    @pytest.mark.parametrize("system", ["e1", "e2"])
    def test_series_are_bit_identical(self, rebind, system):
        numpys = series_bytes(system)
        rebind.setattr(_lapack, "_library", lambda: ctypes.CDLL(None))
        _lapack._bind.cache_clear()
        assert series_bytes(system) == numpys
        assert _lapack._routines().integer is ctypes.c_int32

    def test_no_lapack_anywhere_is_refused(self, without_numpys_symbols):
        without_numpys_symbols.setitem(sys.modules, "scipy.linalg.cython_lapack", None)
        without_numpys_symbols.delattr(scipy.linalg, "cython_lapack", raising=False)
        d, e = tridiagonal(16, 9)
        with pytest.raises(CapabilityError, match="dpttrf.*scipy_<name>_64_"):
            _lapack.dpttrf(d, e)
