"""Quadrature rules as data: the rule type, the solver's error and the file
formats, in numpy only, so that reading a rule loads neither solver nor scipy."""

import json
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureRule", "IncreasePhaseError", "rule_to_json", "rule_from_json",
           "nodes_to_csv", "nodes_from_csv"]


class IncreasePhaseError(RuntimeError):
    """Increase phase hit the node budget without converging."""

    def __init__(self, M, cap, last_residual):
        self.M = M
        self.cap = cap
        self.last_residual = last_residual
        super().__init__(
            f"increase phase reached M = {M} > {cap} without convergence "
            f"(last residual {last_residual:.3e}); "
            "ill-posed basis or tolerance too tight"
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
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative, exactly")

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def dim(self):
        return self.nodes.shape[1]


def rule_to_json(rule):
    """Serialize to canonical JSON (fixed key order, round-trip decimals)."""
    obj = {
        "dim": int(rule.dim),
        "order_2p": int(rule.basis_order),
        "nodes": [[float(v) for v in row] for row in rule.nodes],
        "weights": [float(v) for v in rule.weights],
        "residual_norm": float(rule.residual_norm),
        "converged": bool(rule.converged),
        "seed": None if rule.seed is None else int(rule.seed),
    }
    return json.dumps(obj, indent=2) + "\n"


def rule_from_json(text):
    obj = json.loads(text)
    try:
        return QuadratureRule(
            nodes=np.array(obj["nodes"], dtype=float),
            weights=np.array(obj["weights"], dtype=float),
            residual_norm=float(obj["residual_norm"]),
            basis_order=int(obj["order_2p"]),
            converged=bool(obj["converged"]),
            seed=obj["seed"],
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed quadrature document: {exc}") from exc


def nodes_to_csv(nodes):
    """One node per row, full round-trip decimals, comma separated."""
    lines = [",".join(repr(float(v)) for v in row) for row in np.atleast_2d(nodes)]
    return "\n".join(lines) + "\n"


def nodes_from_csv(text):
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([float(tok) for tok in line.split(",")])
    return np.array(rows, dtype=float)
