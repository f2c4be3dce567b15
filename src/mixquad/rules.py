"""Rules and surrogates as data, the solver's error, and every file format.

In numpy only, so that reading an artifact loads neither solver nor scipy.
Arrays enter JSON and CSV through ndarray.tolist(), as Python floats that
print as their shortest round-trip decimals.
"""

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .basis import OrthoBasis, _check_residual
from .distribution import GaussianMixture

__all__ = ["QuadratureRule", "Surrogate", "IncreasePhaseError", "mixture_to_json",
           "mixture_from_json", "basis_to_json", "basis_from_json", "rule_to_json",
           "rule_from_json", "surrogate_to_json", "surrogate_from_json", "nodes_to_csv"]


class IncreasePhaseError(RuntimeError):
    """Increase phase hit the node budget without converging.

    cloud_residual, from one NNLS over the cap candidate points the starts
    were cut from, is the least residual of any rule with nodes among them:
    above tol, no start could have converged.
    """

    def __init__(self, M, cap, last_residual, cloud_residual, tol):
        self.M = M
        self.cap = cap
        self.last_residual = last_residual
        self.cloud_residual = cloud_residual
        found = "no rule" if cloud_residual > tol else "a rule"
        super().__init__(
            f"increase phase reached M = {M} > {cap} without convergence "
            f"(last residual {last_residual:.3e}); {found} with nodes among the {cap} "
            f"cloud points meets the tolerance (best {cloud_residual:.3e})"
        )


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes, nonnegative weights, and the achieved exactness residual.

    history holds the per-outer-iteration residuals of the producing solve
    (monotone non-increasing by the line-search contract) on the basis of
    order basis_order. converged records whether residual_norm met the
    tolerance; seed is the solver seed for reproducibility of the whole
    construction.
    """

    nodes: np.ndarray
    weights: np.ndarray
    residual_norm: float
    basis_order: int
    history: tuple = ()
    converged: bool = False
    seed: int = None

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.atleast_2d(np.asarray(self.nodes, dtype=float)))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.weights.shape != (self.nodes.shape[0],):
            raise ValueError("one weight per node required")
        if not np.isfinite(self.nodes).all():
            raise ValueError("nodes must be finite")
        if not (np.isfinite(self.weights).all() and (self.weights >= 0).all()):
            raise ValueError("weights must be finite and nonnegative, exactly")
        _check_residual("residual_norm", self.residual_norm)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def dim(self):
        return self.nodes.shape[1]


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
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        _check_residual("rule_residual", self.rule_residual)
        object.__setattr__(self, "coefficients", c)


def _dumps(obj):
    """Strict JSON: a NaN or an infinity raises instead of being written."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _loads(text, kind, build):
    """build(parsed text), raising a ValueError that names kind for a malformed document."""
    try:
        return build(json.loads(text))
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed {kind} document: {exc}") from exc


def mixture_to_json(gm):
    """Serialize to canonical JSON (fixed key order, round-trip decimals)."""
    comps = zip(gm.mix_weights.tolist(), gm.means, gm.covariances)
    return _dumps({
        "dim": int(gm.dim),
        "components": [{"weight": w, "mean": m.tolist(), "cov": S.tolist()} for w, m, S in comps],
    })


def _mixture(obj):
    comps = obj["components"]
    declared = int(obj["dim"])
    gm = GaussianMixture([c["weight"] for c in comps], [c["mean"] for c in comps],
                         [c["cov"] for c in comps])
    if gm.dim != declared:
        raise ValueError(f"declared dim {declared} but components have dimension {gm.dim}")
    return gm


def mixture_from_json(text):
    """Parse a mixture specification (see mixture_to_json for the schema)."""
    return _loads(text, "mixture", _mixture)


def mixture_sha256(gm):
    """SHA-256 of the mixture's canonical JSON, which ties a document to it."""
    return hashlib.sha256(mixture_to_json(gm).encode()).hexdigest()


def stamped(text, mixture):
    """text, as _dumps wrote it, with mixture_sha256 appended as its last field."""
    return f'{text[:-3]},\n  "mixture_sha256": "{mixture_sha256(mixture)}"\n}}\n'


def stamp(text):
    """The mixture_sha256 of a JSON document, or None when it has none."""
    return json.loads(text).get("mixture_sha256")


def _basis_dict(basis):
    return {
        "dim": int(basis.dim),
        "order": int(basis.order),
        "indices": basis.exponent_matrix().tolist(),
        "coeff_matrix": basis.coeff_matrix.tolist(),
        "gram_residual": float(basis.gram_residual),
    }


def _basis(obj):
    basis = OrthoBasis(
        dim=int(obj["dim"]),
        order=int(obj["order"]),
        coeff_matrix=np.array(obj["coeff_matrix"], dtype=float),
        gram_residual=float(obj["gram_residual"]),
    )
    if obj["indices"] != basis.exponent_matrix().tolist():
        raise ValueError(
            f"indices are not the graded-lex multi-indices of dim {basis.dim} "
            f"and order {basis.order}"
        )
    return basis


def basis_to_json(basis):
    """Serialize to canonical JSON (fixed key order, round-trip decimals)."""
    return _dumps(_basis_dict(basis))


def basis_from_json(text):
    """Parse a basis serialized by basis_to_json."""
    return _loads(text, "basis", _basis)


def rule_to_json(rule):
    """Serialize to canonical JSON (fixed key order, round-trip decimals)."""
    return _dumps({
        "dim": int(rule.dim),
        "order_2p": int(rule.basis_order),
        "nodes": rule.nodes.tolist(),
        "weights": rule.weights.tolist(),
        "residual_norm": float(rule.residual_norm),
        "converged": bool(rule.converged),
        "seed": None if rule.seed is None else int(rule.seed),
    })


def rule_from_json(text):
    return _loads(text, "rule", lambda obj: QuadratureRule(
        nodes=np.array(obj["nodes"], dtype=float),
        weights=np.array(obj["weights"], dtype=float),
        residual_norm=float(obj["residual_norm"]),
        basis_order=int(obj["order_2p"]),
        converged=bool(obj["converged"]),
        seed=obj["seed"],
    ))


def surrogate_to_json(s):
    """Serialize to canonical JSON with the basis embedded."""
    return _dumps({
        "basis": _basis_dict(s.basis),
        "coefficients": s.coefficients.tolist(),
        "rule_residual": float(s.rule_residual),
        "meta": {
            "model": str(s.meta.get("model", "unknown")),
            "sample_count": int(s.meta.get("sample_count", 0)),
        },
    })


def surrogate_from_json(text):
    return _loads(text, "surrogate", lambda obj: Surrogate(
        basis=_basis(obj["basis"]),
        coefficients=np.array(obj["coefficients"], dtype=float),
        rule_residual=float(obj["rule_residual"]),
        meta=dict(obj["meta"]),
    ))


def stats_to_json(mean, variance, std):
    return _dumps({"mean": float(mean), "variance": float(variance), "std": float(std)})


def csv_text(rows):
    """One comma-separated line per row of strings, ints and Python floats."""
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def nodes_to_csv(nodes):
    """One node per row, full round-trip decimals, comma separated."""
    return csv_text(np.atleast_2d(nodes).tolist())


def numbers_from_lines(text, source):
    """The real on each line of text but blank and '#' lines; a ValueError names source."""
    vals = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                vals.append(float(line))
            except ValueError:
                raise ValueError(f"{source}: line {ln} is not a number: {line!r}") from None
    return np.array(vals, dtype=float)
