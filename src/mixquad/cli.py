"""Command-line pipeline: mixture config in, collocation artifacts out.

Stages communicate through files in the output directory so an external
simulator can be inserted at the nodes-to-values boundary: `quadrature`
writes nodes.csv, the simulator produces a values file, and `surrogate
--values` picks it up. Diagnostics go to standard error; artifacts are
files only. Every command is deterministic given its flags, including the
seed, and rewrites byte-identical artifacts on rerun.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import benchmarks
from .basis import basis_from_dict, basis_to_dict, gram_schmidt
from .collocation import (
    AdapterError,
    ModelAdapter,
    _check_exactness,
    density_estimate,
    evaluate_model,
    project,
    statistics,
    surrogate_from_json,
    surrogate_to_json,
)
from .distribution import mixture_from_json, mixture_to_json, raw_moments, sample
from .rules import IncreasePhaseError, nodes_to_csv, rule_from_json, rule_to_json


def _load_mixture(spec):
    """Mixture from 'builtin:<name>' or a JSON file path."""
    if spec.startswith("builtin:"):
        return benchmarks.builtin_mixture(spec.split(":", 1)[1])
    return mixture_from_json(Path(spec).read_text())


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _float_csv(v):
    return repr(float(v))


def _mixture_digest(gm):
    """SHA-256 of the mixture's canonical JSON, which ties a basis file to it."""
    return hashlib.sha256(mixture_to_json(gm).encode()).hexdigest()


def _basis_document(basis, gm):
    obj = {**basis_to_dict(basis), "mixture_sha256": _mixture_digest(gm)}
    return json.dumps(obj, indent=2) + "\n"


def cmd_basis(args):
    gm = _load_mixture(args.config)
    p = args.order
    moments = raw_moments(gm, 4 * p)
    basis_2p = gram_schmidt(moments, gm.dim, 2 * p)
    basis_p = gram_schmidt(moments, gm.dim, p)
    out = Path(args.out)
    _write(out / "basis_2p.json", _basis_document(basis_2p, gm))
    _write(out / "basis_p.json", _basis_document(basis_p, gm))
    print(
        f"basis: dim={gm.dim} p={p} sizes {basis_p.size}/{basis_2p.size} "
        f"gram residuals {basis_p.gram_residual:.2e}/{basis_2p.gram_residual:.2e}",
        file=sys.stderr,
    )
    return 0


def _stage_basis(path, gm, q):
    """The order-q basis from path, as the basis stage wrote it, or built afresh.

    A file is used only if its dimension, order and mixture digest match.
    """
    if not path.exists():
        return gram_schmidt(raw_moments(gm, 2 * q), gm.dim, q)
    obj = json.loads(path.read_text())
    basis = basis_from_dict(obj)
    if (basis.dim, basis.order) != (gm.dim, q):
        raise ValueError(
            f"{path} holds a basis of dim {basis.dim} and order {basis.order}; "
            f"this run needs dim {gm.dim} and order {q}"
        )
    digest, expected = obj.get("mixture_sha256"), _mixture_digest(gm)
    if digest is None:
        raise ValueError(f"{path} has no mixture_sha256; rerun `mixquad basis` for this mixture")
    if digest != expected:
        raise ValueError(
            f"{path} was written for another mixture (mixture_sha256 {digest}, "
            f"this run's mixture has {expected}); rerun `mixquad basis`"
        )
    return basis


def cmd_quadrature(args):
    # imported here so that the stages that only read artifacts never load scipy
    from .quadrature import SolverConfig, adaptive_rule

    gm = _load_mixture(args.config)
    out = Path(args.out)
    basis_2p = _stage_basis(out / "basis_2p.json", gm, 2 * args.order)
    rule = adaptive_rule(basis_2p, gm, SolverConfig(residual_tol=args.tol, seed=args.seed))
    _write(out / "rule.json", rule_to_json(rule))
    _write(out / "nodes.csv", nodes_to_csv(rule.nodes))
    print(
        f"quadrature: M={rule.n_nodes} residual={rule.residual_norm:.3e} "
        f"converged={rule.converged}",
        file=sys.stderr,
    )
    return 0 if rule.converged else 1


def _adapter_from_args(args):
    chosen = [
        args.model is not None,
        args.values is not None,
        args.model_cmd is not None,
    ]
    if sum(chosen) != 1:
        raise AdapterError("exactly one of --model, --values, --model-cmd is required")
    if args.model is not None:
        if not args.model.startswith("builtin:"):
            raise AdapterError(f"--model expects builtin:<name>, got {args.model!r}")
        return ModelAdapter.builtin(args.model.split(":", 1)[1])
    if args.values is not None:
        return ModelAdapter.batch_file(args.values)
    return ModelAdapter.command(args.model_cmd)


def cmd_surrogate(args):
    gm = _load_mixture(args.config)
    p = args.order
    out = Path(args.out)
    rule = rule_from_json((out / "rule.json").read_text())
    if rule.dim != gm.dim:
        raise ValueError(f"rule dimension {rule.dim} does not match mixture dimension {gm.dim}")
    _check_exactness(rule, p)
    basis_p = _stage_basis(out / "basis_p.json", gm, p)
    adapter = _adapter_from_args(args)
    values = evaluate_model(adapter, rule.nodes)
    surr = project(rule, basis_p, values, model_name=adapter.describe())
    _write(out / "surrogate.json", surrogate_to_json(surr))
    lines = ["index,exponents,coefficient,magnitude"]
    for j, (mi, c) in enumerate(zip(basis_p.indices, surr.coefficients)):
        alpha = " ".join(str(e) for e in mi.exponents)
        lines.append(f"{j},{alpha},{_float_csv(c)},{_float_csv(abs(c))}")
    _write(out / "coefficients.csv", "\n".join(lines) + "\n")
    mean, _, std = statistics(surr)
    print(
        f"surrogate: model={adapter.describe()} M={rule.n_nodes} "
        f"mean={mean:.6g} std={std:.6g}",
        file=sys.stderr,
    )
    return 0


def cmd_stats(args):
    gm = _load_mixture(args.config)
    out = Path(args.out)
    surr = surrogate_from_json((out / "surrogate.json").read_text())
    mean, variance, std = statistics(surr)
    obj = {"mean": float(mean), "variance": float(variance), "std": float(std)}
    _write(out / "stats.json", json.dumps(obj, indent=2) + "\n")
    dens = density_estimate(surr, gm, args.n_samples, args.seed, n_bins=args.bins)
    lines = ["kind,x,width,density"]
    centers = 0.5 * (dens.bin_edges[:-1] + dens.bin_edges[1:])
    widths = np.diff(dens.bin_edges)
    for x, wdt, y in zip(centers, widths, dens.bin_density):
        lines.append(f"hist,{_float_csv(x)},{_float_csv(wdt)},{_float_csv(y)}")
    for x, y in zip(dens.kde_points, dens.kde_density):
        lines.append(f"kde,{_float_csv(x)},0.0,{_float_csv(y)}")
    _write(out / "density.csv", "\n".join(lines) + "\n")
    note = " (degenerate: zero-variance output)" if dens.degenerate else ""
    print(f"stats: mean={mean:.6g} std={std:.6g}{note}", file=sys.stderr)
    return 0


def cmd_sample(args):
    gm = _load_mixture(args.config)
    header = ",".join(f"xi_{i}" for i in range(gm.dim))
    if args.n == 0:
        text = header + "\n"
    else:
        X = sample(gm, args.n, args.seed)
        rows = [",".join(_float_csv(v) for v in row) for row in X]
        text = header + "\n" + "\n".join(rows) + "\n"
    _write(Path(args.out) / "samples.csv", text)
    print(f"sample: wrote {args.n} draws (dim {gm.dim})", file=sys.stderr)
    return 0


def _order(text):
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--config",
        required=True,
        help="mixture JSON path or builtin:<name> (builtin:gm6, builtin:gm4)",
    )
    shared.add_argument("--order", type=_order, default=2, metavar="P",
                        help="surrogate total order p (default 2)")
    shared.add_argument("--seed", type=int, default=0, help="seed (default 0)")
    shared.add_argument("--tol", type=float, default=1e-8,
                        help="quadrature residual tolerance (default 1e-8)")
    shared.add_argument("--out", default=".", help="output directory (default .)")

    parser = argparse.ArgumentParser(
        prog="mixquad",
        description="Stochastic collocation under correlated Gaussian-mixture inputs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("basis", parents=[shared],
                   help="write orthonormal bases of order p and 2p")
    sub.add_parser("quadrature", parents=[shared],
                   help="compute the adaptive quadrature rule; writes rule.json and nodes.csv")

    p_surr = sub.add_parser("surrogate", parents=[shared],
                            help="project model values at the rule nodes onto the order-p basis")
    p_surr.add_argument("--model", help="builtin model, e.g. builtin:ro6")
    p_surr.add_argument("--values", help="values CSV produced externally (one real per line)")
    p_surr.add_argument("--model-cmd", help="command evaluating one node per stdin line")

    p_stats = sub.add_parser("stats", parents=[shared],
                             help="surrogate statistics and output density tables")
    p_stats.add_argument("--n-samples", type=int, default=100_000,
                         help="surrogate sample count for the density (default 1e5)")
    p_stats.add_argument("--bins", type=int, default=60, help="histogram bins (default 60)")

    p_sample = sub.add_parser("sample", parents=[shared],
                              help="draw seeded samples from the mixture")
    p_sample.add_argument("--n", type=int, required=True, help="number of draws")

    return parser


HANDLERS = {
    "basis": cmd_basis,
    "quadrature": cmd_quadrature,
    "surrogate": cmd_surrogate,
    "stats": cmd_stats,
    "sample": cmd_sample,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except (ValueError, AdapterError, IncreasePhaseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
