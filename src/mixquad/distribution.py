"""Gaussian-mixture input densities.

The joint distribution of the d correlated parameters is a finite mixture of
Gaussians. This module provides seeded sampling and exact raw moments
E[xi^gamma]; the moment recursion replaces any sampling or quadrature in
everything built on top (basis construction, rule residuals, reference
statistics).
"""

from dataclasses import dataclass
from functools import cached_property
from math import comb
from types import MappingProxyType

import numpy as np

from .basis import EVAL_CHUNK, _graded_lex, _index_count, _parent_table

__all__ = [
    "GaussianMixture",
    "MomentTable",
    "MomentOverflowError",
    "sample",
    "raw_moments",
]

WEIGHT_TOL = 1e-12
SYMMETRY_TOL = 1e-12


class MomentOverflowError(ValueError):
    """Moment recursion left the finite float range at some multi-index."""

    def __init__(self, gamma, component):
        self.gamma = tuple(gamma)
        self.component = component
        super().__init__(
            f"raw moment overflowed at gamma = {self.gamma} "
            f"(component {component}); order or covariance scale too extreme"
        )


@dataclass(frozen=True, eq=False, repr=False)
class GaussianMixture:
    """Finite Gaussian mixture sum_k pi_k N(mu_k, Sigma_k) on R^d.

    Immutable after construction. Validation is strict: every number must be
    finite, weights must form a probability vector, every covariance must be
    symmetric and admit a Cholesky factorization, and all components must
    share one dimension.
    Error messages name the offending component so config mistakes are easy
    to trace.
    """

    mix_weights: np.ndarray
    means: list
    covariances: list

    def __post_init__(self):
        w = np.array(self.mix_weights, dtype=float)  # copies, made read-only below
        if w.ndim != 1 or w.size == 0:
            raise ValueError("mix_weights must be a nonempty vector")
        bad = np.flatnonzero(~np.isfinite(w))
        if bad.size:
            raise ValueError(f"component {bad[0]}: weight {w[bad[0]]} is not finite")
        if np.any(w < 0):
            raise ValueError("mix_weights must be nonnegative")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise ValueError(f"mix_weights sum to {w.sum()!r}, expected 1 within {WEIGHT_TOL:g}")
        means = [np.array(m, dtype=float) for m in self.means]
        covs = [np.array(S, dtype=float) for S in self.covariances]
        if len(means) != w.size or len(covs) != w.size:
            raise ValueError(f"got {w.size} weights, {len(means)} means, {len(covs)} covariances")
        d = means[0].shape[0] if means[0].ndim == 1 else None
        chols = []
        for k, (m, S) in enumerate(zip(means, covs)):
            if m.ndim != 1 or m.shape[0] != d:
                want = "a vector" if d is None else f"a vector of dimension {d}"
                raise ValueError(f"component {k}: mean must be {want}, got shape {m.shape}")
            if S.shape != (d, d):
                raise ValueError(f"component {k}: covariance must be {d}x{d}, got {S.shape}")
            if not (np.isfinite(m).all() and np.isfinite(S).all()):
                raise ValueError(f"component {k}: mean and covariance must be finite")
            asym = np.abs(S - S.T).max() if S.size else 0.0
            if asym > SYMMETRY_TOL:
                raise ValueError(
                    f"component {k}: covariance asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:g}"
                )
            try:
                chols.append(np.linalg.cholesky(S))
            except np.linalg.LinAlgError:
                raise ValueError(
                    f"component {k}: covariance is not positive definite"
                ) from None
        for arr in [w, *means, *covs]:
            arr.flags.writeable = False
        object.__setattr__(self, "mix_weights", w)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariances", covs)
        object.__setattr__(self, "_chols", chols)  # L_k with L_k L_k^T = Sigma_k, for sample

    @property
    def n_components(self):
        return self.mix_weights.size

    @property
    def dim(self):
        return self.means[0].shape[0]

    def __repr__(self):
        return f"GaussianMixture(n_components={self.n_components}, dim={self.dim})"


@dataclass(frozen=True, eq=False)
class MomentTable:
    """Complete table of raw moments E[xi^gamma] for all |gamma| <= max_order.

    array holds the moments in the graded-lex order of basis._graded_lex(dim,
    max_order); array[0], the moment of the zero index, is exactly 1.
    """

    dim: int
    max_order: int
    array: np.ndarray

    def __post_init__(self):
        N = _index_count(self.dim, self.max_order)
        if np.shape(self.array) != (N,):
            raise ValueError(
                f"moment array has shape {np.shape(self.array)}, expected ({N},) "
                f"for dim {self.dim} and max order {self.max_order}"
            )

    @cached_property
    def values(self):
        """Read-only mapping from exponent tuples to moments, in array order."""
        keys = map(tuple, _graded_lex(self.dim, self.max_order).tolist())
        return MappingProxyType(dict(zip(keys, self.array.tolist())))

    def __getitem__(self, gamma):
        return self.values[tuple(gamma)]


def sample(gm, n, seed):
    """Draw n i.i.d. vectors from the mixture.

    Component labels are drawn first, then each component's rows are filled
    from standard normals pushed through that component's Cholesky factor,
    EVAL_CHUNK rows at a time (see _draws). Deterministic given the seed.

    Returns
    -------
    ndarray, shape (n, dim)
    """
    if n < 1:
        raise ValueError(f"need n >= 1 draws, got {n}")
    X = np.empty((n, gm.dim))
    for rows, points in _draws(gm, n, seed):
        X[rows] = points
    return X


def _draws(gm, n, seed):
    """The draws of sample(gm, n, seed) as (rows, points), one block at a time.

    Each component's rows come in blocks of at most EVAL_CHUNK, in component
    order: consecutive draws give the numbers that one draw over all of a
    component's rows gives, and the temporaries stay small.
    """
    rng = np.random.default_rng(seed)
    comps = rng.choice(gm.n_components, size=n, p=gm.mix_weights)
    for k in range(gm.n_components):
        rows = np.flatnonzero(comps == k)
        L = gm._chols[k]
        for lo in range(0, len(rows), EVAL_CHUNK):
            block = rows[lo : lo + EVAL_CHUNK]
            yield block, gm.means[k] + rng.standard_normal((len(block), gm.dim)) @ L.T


def _gaussian_moments(mu, cov, E, parent, component):
    """Raw moments of one Gaussian component by exact recursion.

    m(gamma) = mu_i m(beta) + sum_j Sigma_ij beta_j m(beta - e_j), with
    beta = gamma - e_i for the first nonzero coordinate i of gamma and
    m(0) = 1. E holds the exponents in graded-lex order and parent their
    lowered ranks (basis._parent_table); the result is in the same order.
    Each grade is formed at once from the grade below, with the multiplies
    and adds of the one-entry-at-a-time recursion in the same order; a term
    with beta_j = 0 is skipped, not added as 0.0, so the sign of a zero
    moment is kept.
    """
    n, d = E.shape
    first = np.argmax(E > 0, axis=1)
    m = np.empty(n)
    m[0] = 1.0
    lo, t = 1, 1
    # overflow is detected per grade and reported with the first offending index
    with np.errstate(over="ignore", invalid="ignore"):
        while lo < n:
            hi = comb(d + t, d)
            i = first[lo:hi]
            b = parent[np.arange(lo, hi), i]
            val = mu[i] * m[b]
            for j in range(d):
                bj = E[b, j]
                val = np.where(bj > 0, val + cov[i, j] * bj * m[parent[b, j]], val)
            bad = np.flatnonzero(~np.isfinite(val))
            if bad.size:
                raise MomentOverflowError(E[lo + bad[0]].tolist(), component)
            m[lo:hi] = val
            lo, t = hi, t + 1
    return m


def raw_moments(gm, max_order):
    """Exact raw moments of the mixture up to total order max_order.

    The mixture moment is the weighted sum of per-component Gaussian moments,
    summed over components in order. Each component's table is computed one
    grade at a time (see _gaussian_moments). Callers building a basis of
    order 2p need moments to order 4p (the Gram matrix pairs two order-2p
    monomials).

    Returns
    -------
    MomentTable

    Raises
    ------
    MomentOverflowError
        At the first multi-index, in graded-lex order, of the first component
        whose moment leaves the finite float range.
    """
    E = _graded_lex(gm.dim, max_order)
    parent = _parent_table(E)
    total = np.zeros(len(E))
    for k in range(gm.n_components):
        m = _gaussian_moments(gm.means[k], gm.covariances[k], E, parent, k)
        total = total + gm.mix_weights[k] * m
    total[0] = 1.0
    return MomentTable(dim=gm.dim, max_order=max_order, array=total)
