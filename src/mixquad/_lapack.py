"""The compiled LAPACK and NNLS routines of scipy's wheel, called without scipy.

scipy.linalg.lapack and scipy.optimize.nnls are thin wrappers around compiled
code: LAPACK in the OpenBLAS the wheel bundles in scipy.libs (symbols
scipy_dpotrf_ and so on), and Lawson-Hanson NNLS in the extension
scipy/optimize/_slsqplib. Importing the Python packages around them costs a
fresh process about half a second, more than the solver spends on a small
rule. This module calls the same compiled routines, LAPACK through ctypes
with 32-bit integers and the NNLS extension loaded from its file, so the
arithmetic and the results are those of the public functions bit for bit,
and it repeats the argument checks of their Python wrappers. Where those
files are missing (a conda or MKL build, another scipy layout), the same
names are bound to scipy's public functions instead.

Importing this module loads the libraries; the basis module imports it only
when it builds a basis, so that evaluating or reading one loads neither.

dpotrf(a, lower) -> (c, info)
    Cholesky factor of the symmetric positive definite F-ordered float
    matrix a, in its lower (lower true) or upper triangle, in place; the
    other triangle is left as it was. c is the factor (a itself on the direct
    route); info > 0 is the order of the leading minor that is not positive
    definite, whose pivot is left in place. scipy.linalg.lapack.dpotrf(a,
    lower=lower, clean=0, overwrite_a=1).
dpotrs(c, b, lower) -> (x, info)
    Solution of A x = b from the factor c of A; b is left as it was.
    scipy.linalg.lapack.dpotrs(c, b, lower=lower).
solve_triangular(a, b, lower) -> x
    x with a x = b for the F-ordered triangular matrix a; a and b must be
    finite (ValueError), and a zero on the diagonal raises LinAlgError
    (numpy.linalg's, the class scipy.linalg exports).
    scipy.linalg.solve_triangular(a, b, lower=lower).
nnls(A, b) -> (x, rnorm)
    Lawson-Hanson NNLS with at most 3 n iterations; A and b must be finite
    (ValueError), and reaching the limit raises RuntimeError.
    scipy.optimize.nnls(A, b).
"""

import ctypes
import importlib.machinery
import importlib.util
import sys
from functools import cache
from pathlib import Path

import numpy as np
from numpy.linalg import LinAlgError

__all__ = ["dpotrf", "dpotrs", "solve_triangular", "nnls", "blas_thread_controls"]

# the extension scipy.optimize.nnls calls, under the name scipy gives it
NNLS_MODULE = "scipy.optimize._slsqplib"

_INT = ctypes.POINTER(ctypes.c_int)
_CHAR = ctypes.c_char_p
# gfortran passes the length of each character argument after the others
_LEN = ctypes.c_size_t
_IN = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS")
_INOUT = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS,WRITEABLE")
_ARGTYPES = {
    # uplo, n, a, lda, info
    "dpotrf": [_CHAR, _INT, _INOUT, _INT, _INT, _LEN],
    # uplo, n, nrhs, a, lda, b, ldb, info
    "dpotrs": [_CHAR, _INT, _INT, _IN, _INT, _INOUT, _INT, _INT, _LEN],
    # uplo, trans, diag, n, nrhs, a, lda, b, ldb, info
    "dtrtrs": [_CHAR, _CHAR, _CHAR, _INT, _INT, _IN, _INT, _INOUT, _INT, _INT, _LEN, _LEN, _LEN],
}


@cache
def _bundled_openblas(package):
    """The OpenBLAS copies a package's wheel ships in <package>.libs, loaded, in name order."""
    spec = importlib.util.find_spec(package)
    if spec is None or spec.origin is None:
        return ()
    libs = Path(spec.origin).parent.with_name(package + ".libs")
    return tuple(ctypes.CDLL(str(path)) for path in sorted(libs.glob("libscipy_openblas*")))


@cache
def blas_thread_controls():
    """(get, set) thread-count functions of the OpenBLAS copies numpy and scipy bundle.

    numpy's wheel ships scipy_openblas64_ (symbol suffix 64_), which runs
    the GEMMs; scipy's ships scipy_openblas, which runs LAPACK and nnls.
    A library without these symbols (another BLAS) contributes nothing.
    """
    controls = []
    for package, suffix in (("numpy", "64_"), ("scipy", "")):
        for lib in _bundled_openblas(package):
            try:
                get = lib["scipy_openblas_get_num_threads" + suffix]
                set_ = lib["scipy_openblas_set_num_threads" + suffix]
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
    return tuple(controls)


def _lapack_functions():
    """The ctypes functions dpotrf, dpotrs, dtrtrs of scipy's bundled OpenBLAS, or None."""
    for lib in _bundled_openblas("scipy"):
        try:
            fns = {name: lib[f"scipy_{name}_"] for name in _ARGTYPES}
        except AttributeError:
            continue
        for name, fn in fns.items():
            fn.argtypes, fn.restype = _ARGTYPES[name], None
        return fns
    return None


def _nnls_extension():
    """scipy's compiled NNLS module, loaded from its file without scipy.optimize, or None.

    The module keeps scipy's name, under which CPython registers it in
    sys.modules, so a later import of scipy.optimize uses this one; one that
    is already loaded is reused. A module whose nnls does not take
    (A, b, maxiter) and return (x, rnorm, info) counts as missing.
    """
    module = sys.modules.get(NNLS_MODULE)
    if module is None:
        spec = importlib.util.find_spec("scipy")
        if spec is None or spec.origin is None:
            return None
        folder = Path(spec.origin).parent / "optimize"
        paths = [folder / ("_slsqplib" + s) for s in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if p.is_file()), None)
        if path is None:
            return None
        spec = importlib.util.spec_from_file_location(NNLS_MODULE, path)
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:
            return None
    try:
        x, _, info = module.nnls(np.ones((1, 1)), np.ones(1), 3)
    except (AttributeError, TypeError, ValueError):
        return None
    return module if np.array_equal(x, [1.0]) and info == 1 else None


def _direct_lapack(fns):
    """dpotrf, dpotrs and solve_triangular on the ctypes functions fns."""
    potrf, potrs, trtrs = fns["dpotrf"], fns["dpotrs"], fns["dtrtrs"]

    def dpotrf(a, lower):
        n, info = ctypes.c_int(_order(a)), ctypes.c_int()
        potrf(b"L" if lower else b"U", n, a, n, info, 1)
        return a, info.value

    def dpotrs(c, b, lower):
        n, info = ctypes.c_int(_order(c)), ctypes.c_int()
        x, nrhs = _rhs_copy(b, n.value)
        potrs(b"L" if lower else b"U", n, nrhs, c, n, x, n, info, 1)
        return x, info.value

    def solve_triangular(a, b, lower):
        a, b = np.asarray_chkfinite(a), np.asarray_chkfinite(b)
        n, info = ctypes.c_int(_order(a)), ctypes.c_int()
        x, nrhs = _rhs_copy(b, n.value)
        trtrs(b"L" if lower else b"U", b"N", b"N", n, nrhs, a, n, x, n, info, 1, 1, 1)
        if info.value > 0:
            raise LinAlgError(f"singular matrix: resolution failed at diagonal {info.value - 1}")
        if info.value < 0:
            raise ValueError(f"illegal value in {-info.value}-th argument of internal trtrs")
        return x

    return dpotrf, dpotrs, solve_triangular


def _order(a):
    """Order of the square matrix a; ctypes checks its dtype and layout."""
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    return a.shape[0]


def _rhs_copy(b, n):
    """A Fortran-ordered float copy of the right-hand side b, and its column count."""
    x = np.array(b, dtype=np.float64, order="F")
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"right-hand side of shape {x.shape} does not fit a matrix of order {n}")
    return x, ctypes.c_int(1 if x.ndim == 1 else x.shape[1])


def _direct_nnls(module):
    """scipy.optimize.nnls on the loaded extension module, with its wrapper's checks."""

    def nnls(A, b):
        A = np.asarray_chkfinite(A, dtype=np.float64, order="C")
        b = np.asarray_chkfinite(b, dtype=np.float64)
        if A.ndim != 2:
            raise ValueError(f"Expected a 2D array, but the shape of A is {A.shape}")
        if b.ndim > 2 or (b.ndim == 2 and b.shape[1] != 1):
            raise ValueError(f"Expected a 1D array (or 2D with one column), but the shape of b "
                             f"is {b.shape}")
        b = b.ravel()
        m, n = A.shape
        if m != b.shape[0]:
            raise ValueError(f"Incompatible dimensions. The first dimension of A is {m}, while "
                             f"the shape of b is {b.shape}")
        x, rnorm, info = module.nnls(A, b, 3 * n)
        if info == 3:
            raise RuntimeError("Maximum number of iterations reached.")
        return x, rnorm

    return nnls


def _routines():
    """(dpotrf, dpotrs, solve_triangular, nnls), direct where the wheel's files are found.

    The LAPACK functions and NNLS fall back to scipy's public functions
    independently of each other.
    """
    fns = _lapack_functions()
    if fns is None:
        from scipy.linalg import solve_triangular
        from scipy.linalg.lapack import dpotrf as scipy_dpotrf
        from scipy.linalg.lapack import dpotrs

        def dpotrf(a, lower):
            return scipy_dpotrf(a, lower=lower, clean=0, overwrite_a=1)
    else:
        dpotrf, dpotrs, solve_triangular = _direct_lapack(fns)
    module = _nnls_extension()
    if module is None:
        from scipy.optimize import nnls
    else:
        nnls = _direct_nnls(module)
    return dpotrf, dpotrs, solve_triangular, nnls


dpotrf, dpotrs, solve_triangular, nnls = _routines()
