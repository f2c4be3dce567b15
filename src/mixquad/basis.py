"""Orthonormal polynomial bases for correlated measures.

Basis functions are stored as rows of a lower-triangular coefficient matrix
over graded-lexicographic monomials. Orthonormalization uses exact moments of
the measure only, never samples, so construction is fully deterministic: the
coefficient matrix is the inverse Cholesky factor of the monomial moment Gram
matrix. Evaluation forms the monomials one grade at a time, each from a
lower-grade prefix in a table built with the basis; derivatives gather each
monomial's parent alpha - e_i from a second such table, so all Jacobians come
from one matrix product.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from math import comb

import numpy as np

__all__ = [
    "MultiIndex",
    "OrthoBasis",
    "DegenerateBasisError",
    "enumerate_indices",
    "gram_schmidt",
    "eval_basis_batch",
]

# E[psi_hat^2] at or below this is treated as a numerically singular
# moment matrix rather than a small-but-usable pivot.
DEGENERACY_TOL = 1e-12

# Achieved orthonormality residual a constructed basis must satisfy.
ORTHONORMALITY_TOL = 1e-8

# Points per block of the batch evaluators: small enough that the allocator
# reuses the per-grade temporaries of the monomial table instead of faulting
# in fresh pages for every block. Other block sizes, and a point evaluated
# alone, give other last bits, so blocks of 2,048 rows counted from row 0 are
# part of the byte-identical artifacts.
EVAL_CHUNK = 2048


class DegenerateBasisError(ValueError):
    """Orthonormalization hit a (near-)zero norm: the moment matrix is singular."""

    def __init__(self, index, norm2):
        self.index = index
        self.norm2 = norm2
        super().__init__(
            f"degenerate basis at function index {index}: "
            f"E[psi_hat^2] = {norm2:.6e} <= {DEGENERACY_TOL:g} "
            "(nearly singular moment matrix)"
        )


@dataclass(frozen=True)
class MultiIndex:
    """Monomial exponent vector alpha."""

    exponents: tuple


def _index_count(d, q):
    """binom(d + q, d), the number of multi-indices with |alpha| <= q in d dimensions."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if q < 0:
        raise ValueError(f"max order must be >= 0, got {q}")
    return comb(d + q, d)


def _graded_lex(d, q):
    """All multi-indices with |alpha| <= q, as a read-only (binom(d + q, d), d) array.

    Graded-lexicographic order: by total order, then within a grade by
    comparing exponent vectors left to right with the higher exponent first,
    so for d=2, q=1 the rows are (0,0), (1,0), (0,1). This convention is
    frozen: node and coefficient files depend on it. Grade t is built from
    grade t - 1 as alpha = beta + e_i, with i the first nonzero coordinate of
    alpha: the betas zero before coordinate i are the last
    binom(d - i + t - 2, t - 1) rows of grade t - 1, in order.
    """
    _index_count(d, q)  # rejects d < 1 and q < 0
    unit = np.eye(d, dtype=int)
    grades = [np.zeros((1, d), dtype=int)]
    for t in range(1, q + 1):
        below = grades[-1]
        grades.append(np.concatenate(
            [below[len(below) - comb(d - i + t - 2, t - 1):] + unit[i] for i in range(d)]
        ))
    E = np.concatenate(grades)
    E.flags.writeable = False
    return E


def enumerate_indices(d, q):
    """All multi-indices with |alpha| <= q in graded-lex order (see _graded_lex), as a list."""
    return [MultiIndex(tuple(alpha)) for alpha in _graded_lex(d, q).tolist()]


@dataclass(frozen=True, eq=False)
class OrthoBasis:
    """Orthonormal basis Psi_j = sum_{i<=j} C[j,i] * p_i over graded-lex monomials p_i.

    The monomials are those of _graded_lex(dim, order); the exponent, parent
    and prefix tables are derived from (dim, order).

    Attributes
    ----------
    dim : int
    order : int
        Maximum total order q of included basis functions.
    coeff_matrix : ndarray, shape (N, N)
        N = binom(dim + order, dim). Lower triangular with strictly positive
        diagonal; row j holds the monomial coefficients of Psi_j. Row 0 is
        e_1 (Psi_1 is constant 1).
    gram_residual : float
        Achieved max |E[Psi_i Psi_j] - delta_ij| under the exact moments
        the basis was built from.
    """

    dim: int
    order: int
    coeff_matrix: np.ndarray
    gram_residual: float

    def __post_init__(self):
        # checked before the tables are built, whose size the order sets
        N = _index_count(self.dim, self.order)
        if np.shape(self.coeff_matrix) != (N, N):
            raise ValueError(
                f"coeff_matrix has shape {np.shape(self.coeff_matrix)}, expected ({N}, {N}) "
                f"for dim {self.dim} and order {self.order}"
            )
        if not np.isfinite(self.coeff_matrix).all():
            raise ValueError("coeff_matrix must be finite")
        _check_residual("gram_residual", self.gram_residual)
        E = _graded_lex(self.dim, self.order)
        object.__setattr__(self, "_exponents", E)
        # rows with alpha_a,i = 0 point at a itself, which the derivative
        # multiplies by alpha_a,i = 0
        parent = _parent_table(E)
        parent.flags.writeable = False
        object.__setattr__(self, "_parents", parent)
        # prefix[a] = (rank of alpha_a with its last nonzero coordinate j set
        # to 0, row of x_j ** alpha_a,j in the flattened power table)
        unit = np.eye(self.dim, dtype=int)
        j = self.dim - 1 - np.argmax(E[:, ::-1] > 0, axis=1)
        e = E[np.arange(len(E)), j]
        prefix = np.stack(
            [_graded_lex_rank(_tails(E - e[:, None] * unit[j])), j * (self.order + 1) + e], axis=1
        )
        prefix.flags.writeable = False
        object.__setattr__(self, "_prefixes", prefix)

    @property
    def indices(self):
        """The multi-indices of the monomials, as a tuple of MultiIndex."""
        return tuple(enumerate_indices(self.dim, self.order))

    @property
    def size(self):
        return len(self._exponents)

    def exponent_matrix(self):
        """Exponents as a read-only (N, dim) integer array."""
        return self._exponents


def _check_residual(name, value):
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


def _tails(E):
    """T[j] = alpha_j + ... + alpha_{d-1} for each exponent row alpha of E; shape (d, n)."""
    return np.cumsum(E[:, ::-1], axis=1)[:, ::-1].T


def _graded_lex_rank(T):
    """Positions in graded-lex order of exponent vectors given by their tails.

    rank(alpha) = sum_j binom(T[j] + d - j - 1, d - j): the j = 0 term counts
    the indices of lower total order, term j >= 1 those of the same order
    that agree with alpha before coordinate j - 1 and exceed it there. The
    rank does not depend on the maximum order of the enumeration.
    """
    d = len(T)
    top = int(np.max(T[0])) + d
    binom = np.array([[comb(n, k) for k in range(d + 1)] for n in range(top)])
    return sum(binom[t + d - j - 1, d - j] for j, t in enumerate(T))


def _parent_table(E):
    """parent[a, i] = rank of alpha_a - e_i, or of alpha_a where alpha_a,i = 0; shape (n, d)."""
    unit = np.eye(E.shape[1], dtype=int)
    return np.stack(
        [_graded_lex_rank(_tails(np.maximum(E - unit[i], 0))) for i in range(E.shape[1])], axis=1
    )


def _moment_gram(moments, E):
    """Gram matrix of monomials, G[a,b] = E[xi^(alpha_a + alpha_b)]."""
    # the tails of alpha_a + alpha_b are the sums of their tails
    T = _tails(E)
    return moments.array[_graded_lex_rank(T[:, :, None] + T[:, None, :])]


@contextmanager
def _one_blas_thread():
    """Run the block with every bundled OpenBLAS at one thread, then restore.

    For the basis constructor and the quadrature solver: their matrices are
    small enough that thread hand-off costs more than the arithmetic, and
    the thread count changes the last bits of a product and with them the
    basis and the rule; pinned, both are the same at any setting.
    """
    from ._lapack import blas_thread_controls  # loads the libraries on first use

    controls = blas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(controls, saved):
            set_(n)


@_one_blas_thread()
def gram_schmidt(moments, d, q):
    """Build the orthonormal basis of total order q from exact moments.

    The Gram matrix G[a,b] = E[p_a p_b] of the graded-lex monomials p is read
    off the moment table and factored once, G = L L^T; then Psi = L^{-1} p
    is the Gram-Schmidt orthonormalization of p, and the pivot L[j,j]^2 is
    E[psi_hat_j^2], the squared norm of p_j minus its projection on p_0..p_{j-1}.
    LAPACK dpotrf factors G and dtrtrs inverts L, the routines of scipy's
    dpotrf and solve_triangular, called through _lapack. The bundled
    OpenBLAS runs at one thread meanwhile (_one_blas_thread), so the basis
    does not depend on the thread count.

    Parameters
    ----------
    moments : MomentTable
        Must cover total order >= 2q.
    d, q : int
        Dimension and maximum total order.

    Returns
    -------
    OrthoBasis

    Raises
    ------
    DegenerateBasisError
        If some E[psi_hat_j^2] <= 1e-12, with the first offending index j.
    ValueError
        If the moment table has another dimension or is too short, or the
        achieved orthonormality residual exceeds 1e-8.
    """
    # imported here: evaluating or reading a basis loads neither LAPACK nor
    # the NNLS extension
    from . import _lapack

    if moments.dim != d:
        raise ValueError(f"moment table has dimension {moments.dim}, basis dimension is {d}")
    if moments.max_order < 2 * q:
        raise ValueError(
            f"moment table covers order {moments.max_order}, "
            f"need {2 * q} for a basis of order {q}"
        )
    E = _graded_lex(d, q)
    N = len(E)
    G = _moment_gram(moments, E)
    # factored in a copy, since the residual below needs G; nothing below uses
    # the strict upper triangle, which keeps G's finite entries
    L, info = _lapack.dpotrf(np.array(G, order="F"), lower=True)
    norm2 = np.diag(L) ** 2
    if info > 0:  # LAPACK stopped at a non-positive pivot and left it in place
        norm2 = np.append(norm2[: info - 1], L[info - 1, info - 1])
    bad = np.flatnonzero(~(norm2 > DEGENERACY_TOL))
    if bad.size:
        raise DegenerateBasisError(int(bad[0]), float(norm2[bad[0]]))
    # C order: a Fortran-ordered copy would evaluate differently in the last
    # bits from the C-ordered matrix that basis_from_json reads back
    C = np.ascontiguousarray(_lapack.solve_triangular(L, np.eye(N), lower=True))
    gram_residual = float(np.abs(C @ G @ C.T - np.eye(N)).max())
    if gram_residual > ORTHONORMALITY_TOL:
        raise ValueError(
            f"orthonormality residual {gram_residual:.3e} exceeds "
            f"{ORTHONORMALITY_TOL:g}; moment matrix too ill-conditioned"
        )
    return OrthoBasis(dim=d, order=q, coeff_matrix=C, gram_residual=gram_residual)


def _points(basis, xs):
    X = np.atleast_2d(np.asarray(xs, dtype=float))
    if X.shape[1] != basis.dim:
        raise ValueError(f"points have dimension {X.shape[1]}, basis expects {basis.dim}")
    return X


def _monomials(basis, X, order=None):
    """mono[a, s] = X[s] ** alpha_a for |alpha_a| <= order (basis.order if None).

    Shape (binom(d + order, d), n). Grade by grade, mono[alpha] = mono[alpha']
    * x_j ** alpha_j with j the last nonzero coordinate of alpha and alpha' of
    lower grade (see _prefixes), so each monomial multiplies its powers left
    to right over the dimensions.
    """
    d, n = basis.dim, X.shape[0]
    q = basis.order if order is None else order
    mono = np.empty((comb(d + q, d), n))
    mono[0] = 1.0
    if q == 0:
        return mono
    # grade 1 is the coordinates; power rows x_j ** 0 are never gathered, nor
    # those above the order
    mono[1 : d + 1] = X.T
    P = np.empty((d, basis.order + 1, n))
    P[:, 1] = X.T
    for e in range(2, q + 1):
        np.multiply(P[:, e - 1], X.T, out=P[:, e])
    P = P.reshape(d * (basis.order + 1), n)
    prefix, power = basis._prefixes.T
    for t in range(2, q + 1):
        lo, hi = comb(d + t - 1, t - 1), comb(d + t, t)
        np.multiply(mono[prefix[lo:hi]], P[power[lo:hi]], out=mono[lo:hi])
    return mono


def eval_basis_batch(basis, xs):
    """Evaluate all basis functions at many points, EVAL_CHUNK points at a time.

    Parameters
    ----------
    xs : ndarray, shape (n, dim)

    Returns
    -------
    ndarray, shape (n, N) with entry (s, j) = Psi_j(xs[s]).
    """
    X = _points(basis, xs)
    out = np.empty((basis.size, len(X)))
    for lo in range(0, len(X), EVAL_CHUNK):
        mono = _monomials(basis, X[lo : lo + EVAL_CHUNK])
        out[:, lo : lo + EVAL_CHUNK] = basis.coeff_matrix @ mono
    return out.T


def _jacobian(basis, mono):
    """Jacobians at the n points whose monomial table is mono; shape (N, dim, n)."""
    N, n = mono.shape
    d = basis.dim
    # d xi^alpha / d xi_i = alpha_i * xi^(alpha - e_i)
    dmono = np.take(mono, basis._parents, axis=0)
    dmono *= basis.exponent_matrix()[:, :, None]
    return (basis.coeff_matrix @ dmono.reshape(N, d * n)).reshape(N, d, n)
