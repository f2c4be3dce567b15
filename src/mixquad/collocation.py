"""Projection of black-box models onto the orthonormal basis.

Given a converged quadrature rule and model values at its nodes, the
projection c_alpha = sum_k y(xi_k) Psi_alpha(xi_k) w_k yields a polynomial
surrogate whose statistics are read directly off the coefficients (the basis
is orthonormal under the input density). Model evaluation is abstracted by a
small adapter: builtin analytic benchmarks, a file exchange for external
batch simulators, or a line-oriented subprocess protocol.
"""

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from math import ceil, comb

import numpy as np

from . import _LAZY, benchmarks
from .basis import EVAL_CHUNK, _monomials, _points, eval_basis_batch
from .distribution import _draws
from .rules import MIN_DENSITY_SAMPLES, AdapterError, Surrogate, numbers_from_lines

__all__ = list(_LAZY["collocation"])


@dataclass(frozen=True, eq=False)
class ModelAdapter:
    """How to evaluate the model: builtin name, file exchange, or subprocess.

    label is "builtin:<name>", "file:<path>" or "cmd:<command line>";
    evaluate maps the (M, d) node array to the M model values. Build one
    with builtin, batch_file or command.
    """

    label: str
    evaluate: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def builtin(cls, name):
        try:
            fn = benchmarks.builtin_model(name)
        except ValueError as exc:
            raise AdapterError(str(exc)) from None
        return cls(f"builtin:{name}", lambda nodes: np.asarray(fn(nodes), dtype=float).reshape(-1))

    @classmethod
    def batch_file(cls, values_path):
        return cls(f"file:{values_path}", partial(_eval_batch_file, str(values_path)))

    @classmethod
    def command(cls, command_line):
        return cls(f"cmd:{command_line}", partial(_eval_subprocess, command_line))

    def describe(self):
        return self.label


def project(rule, basis, values, model_name=None):
    """Project model values at the rule's nodes onto the order-p basis.

    Parameters
    ----------
    rule : QuadratureRule
    basis : OrthoBasis
        Order p; must share the rule's dimension and index convention.
    values : array of length M
        values[k] = y(node_k), positionally aligned with rule.nodes.

    Returns
    -------
    Surrogate

    Raises
    ------
    ValueError
        On non-finite values (simulator failure), naming the node index and
        the value, or when the rule is not exact through order 2p.
    """
    y = np.asarray(values, dtype=float).reshape(-1)
    if y.shape[0] != rule.n_nodes:
        raise ValueError(f"{y.shape[0]} values for {rule.n_nodes} nodes")
    return Surrogate(
        basis=basis,
        coefficients=project_columns(rule, basis, y[:, None])[0],
        rule_residual=float(rule.residual_norm),
        meta={
            "model": "unknown" if model_name is None else str(model_name),
            "sample_count": int(rule.n_nodes),
        },
    )


def _check_exactness(rule, p):
    """Products of two order-p basis functions need a rule exact through order 2p."""
    if 2 * p > rule.basis_order:
        raise ValueError(
            f"a surrogate of order {p} needs a rule exact through order "
            f"{2 * p}; this rule is exact through order {rule.basis_order}"
        )


def project_columns(rule, basis, value_matrix):
    """Independent projections of several outputs sharing one rule.

    value_matrix has shape (M, F), one column per output (for instance per
    frequency point); returns the (F, N_p) array of coefficient vectors.
    """
    _check_exactness(rule, basis.order)
    V = np.asarray(value_matrix, dtype=float)
    if V.ndim != 2 or V.shape[0] != rule.n_nodes:
        raise ValueError(f"value matrix shape {V.shape} does not match {rule.n_nodes} nodes")
    if not np.isfinite(V).all():
        k, f = np.argwhere(~np.isfinite(V))[0]
        raise ValueError(f"non-finite model value {float(V[k, f])!r} at node index {k}")
    phi_p = eval_basis_batch(basis, rule.nodes)  # (M, N_p)
    return (phi_p.T @ (rule.weights[:, None] * V)).T


def _evaluator(s):
    """f(X), the surrogate at one block of points X of shape (n, dim).

    The surrogate is one polynomial in the monomials, with coefficients
    a = c C for the basis matrix C. Of order q, each monomial x^gamma of
    grade q is x^beta x_j, with j the last nonzero coordinate of gamma and
    beta = gamma - e_j of grade q - 1 (the first level of the multivariate
    Horner scheme). So f(X) = a[:top] @ mono + sum_beta mono[beta] (B @ X.T)[beta],
    with mono the monomials below grade q, rows lo:top of it grade q - 1, and
    B[beta, j] = a_gamma: the top grade is one small matrix product.
    """
    basis = s.basis
    a = s.coefficients @ basis.coeff_matrix
    d, q = basis.dim, basis.order
    if q == 0:
        return lambda X: np.full(len(X), a[0])
    lo, top = comb(d + q - 2, d), comb(d + q - 1, d)
    j = basis._prefixes[top:, 1] // (q + 1)
    B = np.zeros((top - lo, d))
    B[basis._parents[np.arange(top, basis.size), j] - lo, j] = a[top:]

    def f(X):
        mono = _monomials(basis, X, q - 1)
        return a[:top] @ mono + np.einsum("bs,bs->s", mono[lo:], B @ X.T)
    return f


def evaluate_batch(s, xs):
    """Vectorized surrogate evaluation, one block of EVAL_CHUNK points at a time.

    Each block goes through _evaluator's two products.
    """
    X = _points(s.basis, xs)
    f = _evaluator(s)
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], EVAL_CHUNK):
        out[lo : lo + EVAL_CHUNK] = f(X[lo : lo + EVAL_CHUNK])
    return out


def statistics(s):
    """(mean, variance, std) read off the coefficients.

    Orthonormality gives mean = c_1 and variance = sum of the squared
    remaining coefficients.
    """
    mean = float(s.coefficients[0])
    variance = float(np.sum(s.coefficients[1:] ** 2))
    return mean, variance, float(np.sqrt(variance))


@dataclass(frozen=True, eq=False)
class DensityEstimate:
    """Normalized histogram plus Gaussian-kernel KDE of surrogate outputs.

    The KDE is linearly binned (see density_estimate); kde_points are evenly
    spaced from min - 3h to max + 3h for bandwidth h, at most h/2 apart and
    never fewer than 512.
    degenerate marks a zero-variance output (single occupied bin, no KDE).
    outputs keeps the raw surrogate samples for downstream checks.
    """

    bin_edges: np.ndarray
    bin_density: np.ndarray
    kde_points: np.ndarray
    kde_density: np.ndarray
    degenerate: bool
    outputs: np.ndarray


def _binned_kde(ys, h, pts):
    """Gaussian KDE of ys with bandwidth h at evenly spaced pts at most h/2 apart.

    Linear binning (Silverman 1982, AS 176; Wand 1994): the output spacing is
    refined by the factor k = 8, so the grid spacing is at most h/16 and
    every output point is a grid point; each sample splits its unit mass
    between its two neighbouring grid points, and the bin masses are
    convolved with the kernel sampled out to +-8h. Every sample must lie
    inside (pts[0], pts[-1]).
    """
    n = ys.size
    step = float(pts[1] - pts[0])
    k = 8
    n_grid = (pts.size - 1) * k + 1
    delta = step / k
    # in place, so the stats step holds few n-sized temporaries at once
    t = (ys - pts[0]) / delta
    j = t.astype(np.intp)
    t -= j  # the fraction of the way to the next grid point
    mass = np.bincount(j, weights=1.0 - t, minlength=n_grid)
    j += 1
    mass += np.bincount(j, weights=t, minlength=n_grid)
    half = int(np.ceil(8.0 * h / delta))
    u = np.arange(-half, half + 1) * (delta / h)
    kernel = np.exp(-0.5 * u * u) / (n * h * np.sqrt(2.0 * np.pi))
    return np.convolve(mass, kernel)[half:half + n_grid:k]


def density_estimate(s, gm, n_samples, seed, n_bins=60):
    """Histogram and Silverman-bandwidth KDE of the surrogate's output law.

    Draws n_samples from the mixture, evaluates the surrogate, and bins the
    outputs (density normalization, so bin mass sums to one). The KDE uses
    the Silverman bandwidth h = std(ys, ddof=1) (3n/4)^(-1/5), as
    scipy.stats.gaussian_kde(bw_method="silverman") does in 1-d, and is
    linearly binned on a grid of spacing at most h/8 with the kernel cut at
    +-8h; on benchmark outputs at 1e5 samples it stays within about 2e-6 of
    the exact KDE relative to its peak. Deterministic given the seed.
    """
    if n_samples < MIN_DENSITY_SAMPLES:
        raise ValueError(f"need n_samples >= {MIN_DENSITY_SAMPLES}, got {n_samples}")
    if gm.dim != s.basis.dim:
        raise ValueError(f"mixture has dimension {gm.dim}, basis expects {s.basis.dim}")
    # each block of draws is evaluated as it is drawn, so the samples are never held at once
    f = _evaluator(s)
    ys = np.empty(n_samples)
    for rows, points in _draws(gm, n_samples, seed):
        ys[rows] = f(points)
    if ys.max() == ys.min():
        # zero-variance surrogate: all mass in one bin, KDE undefined
        y0 = float(ys[0])
        half = 0.5 * max(1.0, abs(y0))
        return DensityEstimate(
            bin_edges=np.array([y0 - half, y0 + half]),
            bin_density=np.array([1.0 / (2.0 * half)]),
            kde_points=np.empty(0),
            kde_density=np.empty(0),
            degenerate=True,
            outputs=ys,
        )
    bin_density, bin_edges = np.histogram(ys, bins=n_bins, density=True)
    bw = float(np.std(ys, ddof=1)) * (0.75 * ys.size) ** -0.2
    lo, hi = ys.min() - 3.0 * bw, ys.max() + 3.0 * bw
    pts = np.linspace(lo, hi, max(512, ceil(2.0 * (hi - lo) / bw) + 1))
    return DensityEstimate(
        bin_edges=bin_edges,
        bin_density=bin_density,
        kde_points=pts,
        kde_density=_binned_kde(ys, bw, pts),
        degenerate=False,
        outputs=ys,
    )


def _values(text, source, nodes):
    """One value per node from text, one real per line (rules.numbers_from_lines).

    A count mismatch names the first node without a value, if any is short.
    """
    try:
        vals = numbers_from_lines(text, source)
    except ValueError as exc:
        raise AdapterError(str(exc)) from None
    k = vals.size
    if k != len(nodes):
        msg = f"{source}: got {k} values for {len(nodes)} nodes (positional alignment)"
        if k < len(nodes):
            coords = ", ".join(map(str, nodes[k].tolist()))
            msg += f"; first node without a value: node {k} at ({coords})"
        raise AdapterError(msg)
    return vals


def _eval_batch_file(path, nodes):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise AdapterError(f"cannot read values file {path}: {exc}") from None
    return _values(text, path, nodes)


def _eval_subprocess(cmd, nodes):
    # imported here so that a process running no model command does not load them
    import shlex
    import subprocess

    lines = "".join(" ".join(map(str, row)) + "\n" for row in nodes.tolist())
    try:
        argv = shlex.split(cmd)
    except ValueError as exc:
        raise AdapterError(f"cannot split {cmd!r} into arguments: {exc}") from None
    if not argv:
        raise AdapterError(f"model command {cmd!r} names no program")
    try:
        proc = subprocess.run(argv, input=lines, capture_output=True, text=True)
    except OSError as exc:
        raise AdapterError(f"cannot spawn {cmd!r}: {exc}") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise AdapterError(
            f"{cmd!r} exited with status {proc.returncode}: {' | '.join(tail) or 'no stderr'}"
        )
    return _values(proc.stdout, f"stdout of {cmd!r}", nodes)


def evaluate_model(adapter, nodes):
    """Evaluate the adapter's model at every node, in node order.

    builtin adapters call the named analytic benchmark; batch-file adapters
    read one value per line from the configured file, which a simulator
    wrote for the nodes (positional alignment with the nodes); subprocess
    adapters spawn the command once, stream one node per line (space
    separated, full round-trip decimals) to stdin, and read one value per
    line from stdout.

    Returns
    -------
    ndarray of length M.

    Raises
    ------
    AdapterError
        Missing file, line-count mismatch (naming the first node without a
        value), unparsable value, or nonzero subprocess exit, with context in
        the message.
    """
    return adapter.evaluate(np.atleast_2d(np.asarray(nodes, dtype=float)))
