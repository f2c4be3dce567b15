"""Command-line pipeline: mixture config in, collocation artifacts out.

Stages communicate through files in the output directory so an external
simulator can be inserted at the nodes-to-values boundary: `quadrature`
writes nodes.csv, the simulator produces a values file, and `surrogate
--values` picks it up. Diagnostics go to standard error; artifacts are
files only. Every command is deterministic given its flags, including the
seed, and rewrites byte-identical artifacts on rerun. A stage imports the
solver (scipy's compiled modules) and collocation (the model adapters) where
it uses them, so that the other stages never load them.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import benchmarks, rules
from .basis import gram_schmidt
from .distribution import raw_moments, sample


def _load_mixture(spec):
    """Mixture from 'builtin:<name>' or a JSON file path."""
    if spec.startswith("builtin:"):
        return benchmarks.builtin_mixture(spec.split(":", 1)[1])
    return _read(Path(spec), rules.mixture_from_json)


def _read(path, parse, gm=None, stage=None):
    """parse(the text of path), with the path in front of a ValueError's message.

    With gm, the text must also carry gm's digest, as `mixquad <stage>` stamps it.
    """
    text = path.read_text()
    try:
        doc = parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if gm is not None:
        digest, expected = rules.stamp(text), rules.mixture_sha256(gm)
        if digest is None:
            raise ValueError(
                f"{path} has no mixture_sha256; rerun `mixquad {stage}` for this mixture")
        if digest != expected:
            raise ValueError(
                f"{path} was written for another mixture (mixture_sha256 {digest}, "
                f"this run's mixture has {expected}); rerun `mixquad {stage}`"
            )
    return doc


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def cmd_basis(args, gm, out):
    p = args.order
    moments = raw_moments(gm, 4 * p)
    basis_2p = gram_schmidt(moments, gm.dim, 2 * p)
    basis_p = gram_schmidt(moments, gm.dim, p)
    _write(out / "basis_2p.json", rules.stamped(rules.basis_to_json(basis_2p), gm))
    _write(out / "basis_p.json", rules.stamped(rules.basis_to_json(basis_p), gm))
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

    def parse(text):
        basis = rules.basis_from_json(text)
        if (basis.dim, basis.order) != (gm.dim, q):
            raise ValueError(f"the basis has dim {basis.dim} and order {basis.order}; "
                             f"this run needs dim {gm.dim} and order {q}")
        return basis
    return _read(path, parse, gm, "basis")


def cmd_quadrature(args, gm, out):
    from .quadrature import SolverConfig, adaptive_rule

    basis_2p = _stage_basis(out / "basis_2p.json", gm, 2 * args.order)
    rule = adaptive_rule(basis_2p, gm, SolverConfig(residual_tol=args.tol, seed=args.seed))
    _write(out / "rule.json", rules.stamped(rules.rule_to_json(rule), gm))
    _write(out / "nodes.csv", rules.nodes_to_csv(rule.nodes))
    print(
        f"quadrature: M={rule.n_nodes} residual={rule.residual_norm:.3e} "
        f"converged={rule.converged}",
        file=sys.stderr,
    )
    return 0 if rule.converged else 1


def cmd_surrogate(args, gm, out):
    from .collocation import _check_exactness, evaluate_model, project, statistics

    p = args.order
    rule = _read(out / "rule.json", rules.rule_from_json, gm, "quadrature")
    _check_exactness(rule, p)
    basis_p = _stage_basis(out / "basis_p.json", gm, p)
    values = evaluate_model(args.adapter, rule.nodes)
    surr = project(rule, basis_p, values, model_name=args.adapter.describe())
    _write(out / "surrogate.json", rules.stamped(rules.surrogate_to_json(surr), gm))
    rows = [(j, " ".join(map(str, alpha)), c, abs(c)) for j, (alpha, c) in
            enumerate(zip(basis_p.exponent_matrix().tolist(), surr.coefficients.tolist()))]
    header = ("index", "exponents", "coefficient", "magnitude")
    _write(out / "coefficients.csv", rules.csv_text([header, *rows]))
    mean, _, std = statistics(surr)
    print(
        f"surrogate: model={args.adapter.describe()} M={rule.n_nodes} "
        f"mean={mean:.6g} std={std:.6g}",
        file=sys.stderr,
    )
    return 0


def cmd_stats(args, gm, out):
    from .collocation import density_estimate, statistics

    surr = _read(out / "surrogate.json", rules.surrogate_from_json, gm, "surrogate")
    mean, variance, std = statistics(surr)
    dens = density_estimate(surr, gm, args.n_samples, args.seed, n_bins=args.bins)
    _write(out / "stats.json", rules.stats_to_json(mean, variance, std))
    centers = 0.5 * (dens.bin_edges[:-1] + dens.bin_edges[1:])
    widths = np.diff(dens.bin_edges)
    hist = zip(centers.tolist(), widths.tolist(), dens.bin_density.tolist())
    kde = zip(dens.kde_points.tolist(), dens.kde_density.tolist())
    rows = [("hist", *r) for r in hist] + [("kde", x, 0.0, y) for x, y in kde]
    _write(out / "density.csv", rules.csv_text([("kind", "x", "width", "density"), *rows]))
    note = " (degenerate: zero-variance output)" if dens.degenerate else ""
    print(f"stats: mean={mean:.6g} std={std:.6g}{note}", file=sys.stderr)
    return 0


def cmd_sample(args, gm, out):
    rows = sample(gm, args.n, args.seed).tolist() if args.n else []
    header = [f"xi_{i}" for i in range(gm.dim)]
    _write(out / "samples.csv", rules.csv_text([header, *rows]))
    print(f"sample: wrote {args.n} draws (dim {gm.dim})", file=sys.stderr)
    return 0


def _at_least(low):
    def parse(text):
        if not text.strip().isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return int(text)
    return parse


def _builtin_model(text):
    from .collocation import ModelAdapter

    if not text.startswith("builtin:"):
        raise argparse.ArgumentTypeError(f"expects builtin:<name>, got {text!r}")
    try:
        return ModelAdapter.builtin(text.split(":", 1)[1])
    except rules.AdapterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _adapter(build):
    def parse(text):
        from .collocation import ModelAdapter
        return getattr(ModelAdapter, build)(text)
    return parse


def _tolerance(text):
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--config",
        required=True,
        help="mixture JSON path or builtin:<name> (builtin:gm6, builtin:gm4)",
    )
    shared.add_argument("--order", type=_at_least(0), default=2, metavar="P",
                        help="surrogate total order p (default 2)")
    shared.add_argument("--seed", type=_at_least(0), default=0, help="seed (default 0)")
    shared.add_argument("--out", default=".", help="output directory (default .)")

    parser = argparse.ArgumentParser(
        prog="mixquad",
        description="Stochastic collocation under correlated Gaussian-mixture inputs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("basis", parents=[shared],
                   help="write orthonormal bases of order p and 2p")
    p_quad = sub.add_parser(
        "quadrature", parents=[shared],
        help="compute the adaptive quadrature rule; writes rule.json and nodes.csv")
    p_quad.add_argument("--tol", type=_tolerance, default=1e-8,
                        help="residual tolerance (default 1e-8)")

    p_surr = sub.add_parser("surrogate", parents=[shared],
                            help="project model values at the rule nodes onto the order-p basis")
    adapter = p_surr.add_mutually_exclusive_group(required=True)
    adapter.add_argument("--model", dest="adapter", type=_builtin_model, metavar="builtin:NAME",
                         help="builtin model, e.g. builtin:ro6")
    adapter.add_argument("--values", dest="adapter", type=_adapter("batch_file"),
                         metavar="PATH", help="values CSV produced externally (one real per line)")
    adapter.add_argument("--model-cmd", dest="adapter", type=_adapter("command"), metavar="CMD",
                         help="command evaluating one node per stdin line")

    p_stats = sub.add_parser("stats", parents=[shared],
                             help="surrogate statistics and output density tables")
    p_stats.add_argument("--n-samples", type=_at_least(rules.MIN_DENSITY_SAMPLES),
                         default=100_000,
                         help="surrogate sample count for the density (default 1e5)")
    p_stats.add_argument("--bins", type=_at_least(1), default=60,
                         help="histogram bins (default 60)")

    p_sample = sub.add_parser("sample", parents=[shared],
                              help="draw seeded samples from the mixture")
    p_sample.add_argument("--n", type=_at_least(0), required=True, help="number of draws")

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
        return HANDLERS[args.command](args, _load_mixture(args.config), Path(args.out))
    except (ValueError, rules.AdapterError, rules.IncreasePhaseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
