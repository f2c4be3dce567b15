"""Span recorder around the public functions of each mixquad layer.

The modules import names directly (`from .basis import eval_basis_batch`),
so a function is patched in every module namespace that holds it: patching
`mixquad.quadrature.assemble_phi` also catches the calls `bcd_solve` and
`gauss_newton_step` make, and patching `mixquad.cli.gram_schmidt` catches the
CLI's. CLI stages are caught through `mixquad.cli.HANDLERS`, which `main`
dispatches on. Nothing inside the package is changed on disk.

Spans (name, start, end, parent) stay in memory; per-layer metrics and self
times are derived from them after the pipeline ends.
"""

import contextlib
import functools
import importlib
import json
import time

# layer -> public functions timed as that layer's spans
LAYER_FUNCTIONS = {
    "distribution": ("raw_moments", "sample"),
    "basis": ("gram_schmidt", "eval_basis_batch", "eval_basis_jacobian_batch"),
    "quadrature": ("init_nodes", "adaptive_rule", "bcd_solve", "assemble_phi", "solve_weights",
                   "stacked_jacobian", "gauss_newton_step"),
    "collocation": ("evaluate_model", "project", "statistics", "density_estimate",
                    "evaluate_batch"),
}
# every namespace a layer function may have been imported into
NAMESPACES = ("mixquad", "mixquad.distribution", "mixquad.basis", "mixquad.quadrature",
              "mixquad.collocation", "mixquad.cli")


def _rule_outcome(rule):
    return {"converged": bool(rule.converged), "outer_iters": len(rule.history)}


# facts read off a span's return value, for the counters that need them
RETURN_FACTS = {
    "quadrature.solve_weights": lambda out: {"converged": bool(out[1])},
    "quadrature.gauss_newton_step": lambda out: {"improved": bool(out[2])},
    "quadrature.bcd_solve": _rule_outcome,
}


class Tracer:
    """Records spans for the patched functions while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _open(self, name):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Span around a block, e.g. a pipeline stage opened by the benchmark."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def event(self, name):
        """Zero-length span, e.g. adaptive_rule accepting a rule."""
        self._close(self._open(name))

    def _wrap(self, name, fn):
        facts = RETURN_FACTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "quadrature.adaptive_rule":
                args, kwargs = self._mark_accepts(args, kwargs)
            with self.span(name) as span:
                out = fn(*args, **kwargs)
            if facts is not None:
                span.update(facts(out))
            return out

        return wrapper

    def _mark_accepts(self, args, kwargs):
        """Chain an on_accept callback that records an 'accept' event."""
        args = list(args)
        user = args.pop(3) if len(args) > 3 else kwargs.pop("on_accept", None)

        def on_accept(rule):
            self.event("quadrature.accept")
            if user is not None:
                user(rule)

        kwargs["on_accept"] = on_accept
        return tuple(args), kwargs

    def install(self):
        """Patch every namespace holding a layer function; returns self."""
        modules = [importlib.import_module(name) for name in NAMESPACES]
        for layer, names in LAYER_FUNCTIONS.items():
            home = importlib.import_module(f"mixquad.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    if mod.__dict__.get(fname) is original:
                        self._patched.append((mod.__dict__, fname, original))
                        setattr(mod, fname, wrapper)
        cli = importlib.import_module("mixquad.cli")
        for stage, handler in list(cli.HANDLERS.items()):
            self._patched.append((cli.HANDLERS, stage, handler))
            cli.HANDLERS[stage] = self._wrap(f"cli.{stage}", handler)
        return self

    def uninstall(self):
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()

    def write(self, path):
        """One JSON object per span, in opening order."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans):
    """Per-layer metrics (name -> value) derived from recorded spans; their
    units are declared in BENCHMARK.json."""
    by_name = {}
    children = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def calls(name):
        return len(by_name.get(name, ()))

    def secs(name):
        return sum(dur(s) for s in by_name.get(name, ()))

    def self_secs(name):
        return sum(dur(s) - sum(dur(c) for c in children.get(s["id"], ()))
                   for s in by_name.get(name, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    gn = by_name.get("quadrature.gauss_newton_step", [])
    gn_ids = {s["id"] for s in gn}
    sw = by_name.get("quadrature.solve_weights", [])

    # facts are missing on a span whose call raised
    # bcd_solve attempts before the first accepted rule of their adaptive_rule
    # call form the increase phase; later ones the decrease phase
    inc, dec = [], []
    for ar in by_name.get("quadrature.adaptive_rule", []):
        kids = children.get(ar["id"], [])
        accepts = [k["start"] for k in kids if k["name"] == "quadrature.accept"]
        first = min(accepts) if accepts else float("inf")
        for k in kids:
            if k["name"] == "quadrature.bcd_solve":
                (inc if k["start"] < first else dec).append(k)

    metrics = {
        "quadrature.gauss_newton_step_calls": len(gn),
        "quadrature.gauss_newton_step_s": secs("quadrature.gauss_newton_step"),
        "quadrature.gauss_newton_step_self_s": self_secs("quadrature.gauss_newton_step"),
        "quadrature.stacked_jacobian_s": secs("quadrature.stacked_jacobian"),
        "quadrature.line_search_evals": sum(
            1 for s in by_name.get("quadrature.assemble_phi", []) if s["parent"] in gn_ids),
        "quadrature.gn_improved_ratio": ratio(sum(1 for s in gn if s.get("improved")), len(gn)),
        "basis.eval_basis_jacobian_batch_calls": calls("basis.eval_basis_jacobian_batch"),
        "basis.eval_basis_jacobian_batch_s": secs("basis.eval_basis_jacobian_batch"),
        "quadrature.solve_weights_calls": len(sw),
        "quadrature.solve_weights_s": secs("quadrature.solve_weights"),
        "quadrature.solve_weights_unconverged": sum(1 for s in sw if s.get("converged") is False),
        "quadrature.bcd_solve_calls": calls("quadrature.bcd_solve"),
        "quadrature.bcd_solve_s": secs("quadrature.bcd_solve"),
        "quadrature.outer_iters": sum(
            s.get("outer_iters", 0) for s in by_name.get("quadrature.bcd_solve", [])),
        "quadrature.increase_attempts": len(inc),
        "quadrature.increase_converged_ratio": ratio(
            sum(1 for s in inc if s.get("converged")), len(inc)),
        "quadrature.decrease_attempts": len(dec),
        "quadrature.decrease_accepted_ratio": ratio(
            sum(1 for s in dec if s.get("converged")), len(dec)),
        "quadrature.adaptive_rule_s": secs("quadrature.adaptive_rule"),
        "quadrature.assemble_phi_calls": calls("quadrature.assemble_phi"),
        "quadrature.assemble_phi_s": secs("quadrature.assemble_phi"),
        "basis.eval_basis_batch_calls": calls("basis.eval_basis_batch"),
        "basis.eval_basis_batch_s": secs("basis.eval_basis_batch"),
        "quadrature.init_nodes_calls": calls("quadrature.init_nodes"),
        "quadrature.init_nodes_s": secs("quadrature.init_nodes"),
        "basis.gram_schmidt_calls": calls("basis.gram_schmidt"),
        "basis.gram_schmidt_s": secs("basis.gram_schmidt"),
        "distribution.raw_moments_s": secs("distribution.raw_moments"),
        "collocation.density_estimate_s": secs("collocation.density_estimate"),
        "collocation.density_estimate_self_s": self_secs("collocation.density_estimate"),
        "collocation.evaluate_batch_s": secs("collocation.evaluate_batch"),
        "collocation.project_s": secs("collocation.project"),
        "distribution.sample_calls": calls("distribution.sample"),
        "distribution.sample_s": secs("distribution.sample"),
        "collocation.evaluate_model_s": secs("collocation.evaluate_model"),
    }
    for stage in ("basis", "quadrature", "surrogate", "stats", "sample"):
        metrics[f"cli.{stage}_s"] = secs(f"cli.{stage}")
    return metrics
