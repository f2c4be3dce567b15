"""The compiled LAPACK and NNLS routines of scipy, called without scipy's packages.

scipy.linalg.lapack and scipy.optimize.nnls wrap two compiled modules: the
f2py module scipy.linalg._flapack (LAPACK) and the Lawson-Hanson NNLS
extension scipy.optimize._slsqplib. Importing the Python packages around
them costs a fresh process about half a second, more than the solver spends
on a small rule. _compiled loads both modules from their files under
scipy's names, so the results are those of the public functions bit for
bit and a later import of scipy reuses them. Where the NNLS extension is
missing or has another signature, nnls is scipy's public function.

Importing this module loads the libraries; the basis module imports it only
when it builds a basis, so that evaluating or reading one loads neither.

dpotrf(a, lower) -> (c, info)
    Cholesky factor of the symmetric positive definite F-ordered float
    matrix a, in its lower (lower true) or upper triangle, in place; the
    other triangle is left as it was. info > 0 is the order of the leading
    minor that is not positive definite, whose pivot is left in place.
    scipy.linalg.lapack.dpotrf(a, lower=lower, clean=0, overwrite_a=1).
dpotrs(c, b, lower) -> (x, info)
    Solution of A x = b from the factor c of A; b is left as it was.
    scipy.linalg.lapack.dpotrs(c, b, lower=lower).
solve_triangular(a, b, lower) -> x
    x with a x = b for the F-ordered triangular matrix a; a and b must be
    finite (ValueError), and a zero on the diagonal raises LinAlgError
    (numpy.linalg's, the class scipy.linalg exports).
    scipy.linalg.solve_triangular(a, b, lower=lower).
nnls(A, b) -> (x, rnorm)
    Lawson-Hanson NNLS on the (m, n) matrix A and the length-m vector b,
    with at most 30 n iterations on either route; A and b must be finite
    (ValueError), and reaching the limit raises RuntimeError.
    scipy.optimize.nnls(A, b, maxiter=30 * n).
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


def _compiled(name):
    """The compiled module scipy.<name>, loaded from its file without scipy's packages.

    It is registered in sys.modules under scipy's name, so a later import of
    scipy uses it; one already loaded is reused. Where no file is found, it
    is imported the ordinary way, scipy's packages included.
    """
    full = "scipy." + name
    spec = importlib.util.find_spec("scipy")
    stem = Path(spec.origin).parent.joinpath(*name.split("."))
    paths = [stem.with_name(stem.name + s) for s in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        return importlib.import_module(full)
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.spec_from_file_location(full, path)
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


_flapack = _compiled("linalg._flapack")


def dpotrf(a, lower):
    return _flapack.dpotrf(a, lower=lower, clean=0, overwrite_a=1)


def dpotrs(c, b, lower):
    return _flapack.dpotrs(c, b, lower=lower)


def solve_triangular(a, b, lower):
    x, info = _flapack.dtrtrs(np.asarray_chkfinite(a), np.asarray_chkfinite(b), lower=lower)
    if info > 0:
        raise LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def _nnls_extension():
    """scipy's NNLS extension, or None if missing or its nnls has another signature."""
    try:
        module = _compiled("optimize._slsqplib")
        x, _, info = module.nnls(np.ones((1, 1)), np.ones(1), 3)
    except (ImportError, AttributeError, TypeError, ValueError):
        return None
    return module if np.array_equal(x, [1.0]) and info == 1 else None


def _nnls():
    """scipy.optimize.nnls, on the NNLS extension where it is found; maxiter defaults to 3 n."""
    module = _nnls_extension()
    if module is None:
        from scipy.optimize import nnls

        return nnls

    def nnls(A, b, *, maxiter=None):
        A = np.asarray_chkfinite(A, dtype=np.float64, order="C")
        b = np.asarray_chkfinite(b, dtype=np.float64)
        x, rnorm, info = module.nnls(A, b, maxiter or 3 * A.shape[1])
        if info == 3:
            raise RuntimeError("Maximum number of iterations reached.")
        return x, rnorm

    return nnls


_route = _nnls()


def nnls(A, b):
    return _route(A, b, maxiter=30 * np.shape(A)[1])
