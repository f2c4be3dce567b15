"""Projection of black-box models onto the orthonormal basis.

Given a converged quadrature rule and model values at its nodes, the
projection c_alpha = sum_k y(xi_k) Psi_alpha(xi_k) w_k yields a polynomial
surrogate whose statistics are read directly off the coefficients (the basis
is orthonormal under the input density). Model evaluation is abstracted by a
small adapter: builtin analytic benchmarks, a file exchange for external
batch simulators, or a line-oriented subprocess protocol.
"""

import json
import shlex
import subprocess
from dataclasses import dataclass, field

import numpy as np

from . import benchmarks
from .basis import basis_from_dict, basis_to_dict, eval_basis, eval_basis_batch
from .distribution import sample
from .quadrature import nodes_to_csv

__all__ = [
    "Surrogate",
    "ModelAdapter",
    "AdapterError",
    "DensityEstimate",
    "project",
    "project_columns",
    "evaluate",
    "evaluate_batch",
    "statistics",
    "density_estimate",
    "evaluate_model",
    "surrogate_to_json",
    "surrogate_from_json",
    "values_to_csv",
    "values_from_csv",
]

# surrogate evaluation over large Monte Carlo batches works on cache-sized
# blocks of points
EVAL_CHUNK = 8192


class AdapterError(RuntimeError):
    """Model evaluation through an adapter failed; message carries context."""


@dataclass(frozen=True, eq=False)
class Surrogate:
    """Polynomial surrogate y(xi) ~ sum_alpha c_alpha Psi_alpha(xi).

    basis has order p; coefficients follow the basis index order and have
    length binom(d + p, d). rule_residual records the exactness residual of
    the rule that produced the projection; meta carries the model identifier
    and the node count used.
    """

    basis: object
    coefficients: np.ndarray
    rule_residual: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.shape != (self.basis.size,):
            raise ValueError(
                f"coefficient vector has shape {c.shape}, basis has {self.basis.size} functions"
            )
        object.__setattr__(self, "coefficients", c)


@dataclass(frozen=True)
class ModelAdapter:
    """How to evaluate the model: builtin name, file exchange, or subprocess.

    kind is one of "builtin", "batch-file", "subprocess"; spec holds the
    benchmark name, the file paths, or the command line respectively.
    """

    kind: str
    spec: dict

    @classmethod
    def builtin(cls, name):
        return cls(kind="builtin", spec={"name": name})

    @classmethod
    def batch_file(cls, values_path, nodes_path=None):
        return cls(kind="batch-file", spec={"values": str(values_path),
                                            "nodes": None if nodes_path is None else str(nodes_path)})

    @classmethod
    def command(cls, command_line):
        return cls(kind="subprocess", spec={"command": command_line})

    def describe(self):
        if self.kind == "builtin":
            return f"builtin:{self.spec['name']}"
        if self.kind == "batch-file":
            return f"file:{self.spec['values']}"
        return f"cmd:{self.spec['command']}"


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
        On non-finite values (simulator failure), naming the node index.
    """
    y = np.asarray(values, dtype=float).reshape(-1)
    if y.shape[0] != rule.n_nodes:
        raise ValueError(f"{y.shape[0]} values for {rule.n_nodes} nodes")
    finite = np.isfinite(y)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"non-finite model value {y[k]!r} at node index {k}")
    phi_p = eval_basis_batch(basis, rule.nodes)  # (M, N_p)
    coeff = phi_p.T @ (rule.weights * y)
    return Surrogate(
        basis=basis,
        coefficients=coeff,
        rule_residual=float(rule.residual_norm),
        meta={
            "model": "unknown" if model_name is None else str(model_name),
            "sample_count": int(rule.n_nodes),
        },
    )


def project_columns(rule, basis, value_matrix):
    """Independent projections of several outputs sharing one rule.

    value_matrix has shape (M, F), one column per output (for instance per
    frequency point); returns the (F, N_p) array of coefficient vectors.
    """
    V = np.asarray(value_matrix, dtype=float)
    if V.ndim != 2 or V.shape[0] != rule.n_nodes:
        raise ValueError(f"value matrix shape {V.shape} does not match {rule.n_nodes} nodes")
    if not np.isfinite(V).all():
        k = int(np.argmin(np.isfinite(V).all(axis=1)))
        raise ValueError(f"non-finite model value at node index {k}")
    phi_p = eval_basis_batch(basis, rule.nodes)
    return (phi_p.T @ (rule.weights[:, None] * V)).T


def evaluate(s, x):
    """Surrogate value sum_alpha c_alpha Psi_alpha(x) at one point."""
    return float(eval_basis(s.basis, x) @ s.coefficients)


def evaluate_batch(s, xs):
    """Vectorized surrogate evaluation, chunked for large batches."""
    X = np.atleast_2d(np.asarray(xs, dtype=float))
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], EVAL_CHUNK):
        hi = min(lo + EVAL_CHUNK, X.shape[0])
        out[lo:hi] = eval_basis_batch(s.basis, X[lo:hi]) @ s.coefficients
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

    The KDE is linearly binned (see density_estimate); kde_points are 512
    evenly spaced points from min - 3h to max + 3h for bandwidth h.
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
    """Gaussian KDE of ys with bandwidth h at evenly spaced pts.

    Linear binning (Silverman 1982, AS 176; Wand 1994): the output spacing is
    refined by an integer factor k so the grid spacing is at most h/8 and
    every output point is a grid point; each sample splits its unit mass
    between its two neighbouring grid points, and the bin masses are
    convolved with the kernel sampled out to +-8h. Every sample must lie
    inside (pts[0], pts[-1]).
    """
    n = ys.size
    step = float(pts[1] - pts[0])
    k = max(8, int(np.ceil(8.0 * step / h)))
    n_grid = (pts.size - 1) * k + 1
    delta = step / k
    t = (ys - pts[0]) / delta
    j = t.astype(np.intp)
    frac = t - j
    mass = (np.bincount(j, weights=1.0 - frac, minlength=n_grid)
            + np.bincount(j + 1, weights=frac, minlength=n_grid))
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
    if n_samples < 10 ** 3:
        raise ValueError(f"need n_samples >= 1000, got {n_samples}")
    X = sample(gm, n_samples, seed)
    ys = evaluate_batch(s, X)
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
    pts = np.linspace(ys.min() - 3.0 * bw, ys.max() + 3.0 * bw, 512)
    return DensityEstimate(
        bin_edges=bin_edges,
        bin_density=bin_density,
        kde_points=pts,
        kde_density=_binned_kde(ys, bw, pts),
        degenerate=False,
        outputs=ys,
    )


def _parse_values_lines(lines, source):
    vals = []
    for ln, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            vals.append(float(stripped))
        except ValueError:
            raise AdapterError(f"{source}: line {ln} is not a number: {stripped!r}") from None
    return np.array(vals, dtype=float)


def values_from_csv(text, source="values"):
    """Values file: one real per line, '#' lines and blanks ignored."""
    return _parse_values_lines(text.splitlines(), source)


def values_to_csv(values):
    return "\n".join(repr(float(v)) for v in np.asarray(values).reshape(-1)) + "\n"


def _eval_builtin(name, nodes):
    fn = benchmarks.BUILTIN_MODELS.get(name)
    if fn is None:
        raise AdapterError(
            f"unknown builtin model {name!r}; available: {sorted(benchmarks.BUILTIN_MODELS)}"
        )
    return np.asarray(fn(nodes), dtype=float).reshape(-1)


def _first_missing(vals, nodes):
    """Error suffix naming the first node without a value, if any is short."""
    k = vals.size
    if k >= len(nodes):
        return ""
    coords = ", ".join(repr(float(v)) for v in nodes[k])
    return f"; first node without a value: node {k} at ({coords})"


def _eval_batch_file(spec, nodes):
    if spec.get("nodes"):
        with open(spec["nodes"], "w") as fh:
            fh.write(nodes_to_csv(nodes))
    path = spec["values"]
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise AdapterError(f"cannot read values file {path}: {exc}") from None
    vals = values_from_csv(text, source=path)
    if vals.size != len(nodes):
        raise AdapterError(
            f"{path}: got {vals.size} values for {len(nodes)} nodes (positional alignment)"
            + _first_missing(vals, nodes)
        )
    return vals


def _eval_subprocess(spec, nodes):
    cmd = spec["command"]
    lines = "\n".join(" ".join(repr(float(v)) for v in row) for row in nodes) + "\n"
    try:
        proc = subprocess.run(
            shlex.split(cmd),
            input=lines,
            capture_output=True,
            text=True,
        )
    except OSError as exc:
        raise AdapterError(f"cannot spawn {cmd!r}: {exc}") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise AdapterError(
            f"{cmd!r} exited with status {proc.returncode}: {' | '.join(tail) or 'no stderr'}"
        )
    vals = _parse_values_lines(proc.stdout.splitlines(), source=f"stdout of {cmd!r}")
    if vals.size != len(nodes):
        raise AdapterError(
            f"{cmd!r} produced {vals.size} values for {len(nodes)} nodes"
            + _first_missing(vals, nodes)
        )
    return vals


def evaluate_model(adapter, nodes):
    """Evaluate the adapter's model at every node, in node order.

    builtin adapters call the named analytic benchmark; batch-file adapters
    optionally write the nodes CSV and read back one value per line from the
    configured file (positional alignment with the nodes); subprocess
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
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    if adapter.kind == "builtin":
        return _eval_builtin(adapter.spec["name"], nodes)
    if adapter.kind == "batch-file":
        return _eval_batch_file(adapter.spec, nodes)
    if adapter.kind == "subprocess":
        return _eval_subprocess(adapter.spec, nodes)
    raise AdapterError(f"unknown adapter kind {adapter.kind!r}")


def surrogate_to_json(s):
    """Serialize to canonical JSON with the basis embedded."""
    obj = {
        "basis": basis_to_dict(s.basis),
        "coefficients": [float(v) for v in s.coefficients],
        "rule_residual": float(s.rule_residual),
        "meta": {
            "model": str(s.meta.get("model", "unknown")),
            "sample_count": int(s.meta.get("sample_count", 0)),
        },
    }
    return json.dumps(obj, indent=2) + "\n"


def surrogate_from_json(text):
    obj = json.loads(text)
    try:
        return Surrogate(
            basis=basis_from_dict(obj["basis"]),
            coefficients=np.array(obj["coefficients"], dtype=float),
            rule_residual=float(obj["rule_residual"]),
            meta=dict(obj["meta"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed surrogate document: {exc}") from exc
