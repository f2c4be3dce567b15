"""Work done inside one fresh benchmark process.

Modes (the first argument):

  setup      import mixquad, build the mixture, print the ready time, exit
  library    run the five stages in memory
  cli-stage  run one CLI stage through mixquad.cli.main (traced runs; the
             untraced CLI pipeline runs `python -m mixquad` itself)
  check      check the artifacts each CLI pipeline left in --dirs

Every mode prints one JSON record as its last stdout line. Checks, the
Monte Carlo reference and the environment query run after the timed region.
Time stamps that the orchestrator combines with its own clock come from
time.monotonic(), one clock for every process on Linux. The orchestrator
pins the BLAS thread count in the environment before this file starts, so
numpy sees it at import.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

from workloads import (DENSITY_SAMPLES, REFERENCE_SAMPLES, REFERENCE_SEED, RESIDUAL_BOUND,
                       SAMPLE_DRAWS, STAGE_ARTIFACTS, STAGES, STATS_REPEATS, WORKLOADS,
                       cli_argv)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rule_digest(rule_json):
    return hashlib.sha256(rule_json.encode()).hexdigest()


def check_rule(rule):
    """Reasons the rule fails the benchmark's gate; empty when it passes."""
    import numpy as np

    problems = []
    if not rule.converged:
        problems.append("rule did not converge")
    if not rule.residual_norm <= RESIDUAL_BOUND:
        problems.append(f"residual {rule.residual_norm:.3e} > {RESIDUAL_BOUND:g}")
    if not (np.all(np.isfinite(rule.weights)) and np.all(rule.weights >= 0)):
        problems.append("negative or non-finite weight")
    return problems


def reference(gm, model):
    """Mean and std of the model by direct Monte Carlo, at a fixed seed."""
    from mixquad import benchmarks, distribution

    ref = benchmarks.builtin_model(model)(distribution.sample(gm, REFERENCE_SAMPLES,
                                                              REFERENCE_SEED))
    return float(ref.mean()), float(ref.std())


def outcome(rule, rule_json, mean, std, ref):
    """Rule outcome and accuracy against the Monte Carlo reference `ref`.

    The reference is recorded, not gated on: at p=2 the truncation error of
    the surrogate's std is several percent at some seeds.
    """
    ref_mean, ref_std = ref
    return {
        "model_evals": int(rule.n_nodes),
        "residual": float(rule.residual_norm),
        "converged": bool(rule.converged),
        "rule_digest": rule_digest(rule_json),
        "mean": float(mean),
        "std": float(std),
        "reference_mean": ref_mean,
        "reference_std": ref_std,
        "mean_rel_err": abs(mean - ref_mean) / abs(ref_mean),
        "std_rel_err": abs(std - ref_std) / ref_std,
    }


def environment():
    """Interpreter, library and BLAS versions, and the thread count in force."""
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _openblas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, or None."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_library(spec, gm, args, tracer):
    """The five stages in memory; returns (stamps, rule, rule_json, mean, std).

    Stage spans carry the CLI stage names so that library and CLI workloads
    report the same per-stage metrics.
    """
    from mixquad import basis, collocation, distribution, quadrature

    p = spec["order"]
    tol = {} if args.tol is None else {"residual_tol": args.tol}
    cfg = quadrature.SolverConfig(seed=args.solver_seed, **tol)
    stamps = {}

    def stage(name):
        return tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()

    stamps["t_start"] = time.monotonic()
    with stage("basis"):
        moments = distribution.raw_moments(gm, 4 * p)
        basis_2p = basis.gram_schmidt(moments, gm.dim, 2 * p)
        basis_p = basis.gram_schmidt(moments, gm.dim, p)
    with stage("quadrature"):
        rule = quadrature.adaptive_rule(basis_2p, gm, cfg)
    stamps["t_nodes"] = time.monotonic()
    with stage("surrogate"):
        adapter = collocation.ModelAdapter.builtin(spec["model"])
        values = collocation.evaluate_model(adapter, rule.nodes)
        stamps["t_values"] = time.monotonic()
        surr = collocation.project(rule, basis_p, values, model_name=adapter.describe())
    with stage("stats"):
        mean, _, std = collocation.statistics(surr)
        collocation.density_estimate(surr, gm, DENSITY_SAMPLES, args.seed)
    stamps["t_stats"] = time.monotonic()
    with stage("sample"):
        distribution.sample(gm, SAMPLE_DRAWS, args.seed)
    stamps["t_end"] = time.monotonic()
    stamps["peak_rss_mb"] = _peak_rss_mb()

    # the same step on the same values again, outside the pipeline's time
    stamps["stats_repeats_s"] = []
    for _ in range(0 if tracer else STATS_REPEATS):
        t0 = time.perf_counter()
        again = collocation.project(rule, basis_p, values, model_name=adapter.describe())
        collocation.statistics(again)
        collocation.density_estimate(again, gm, DENSITY_SAMPLES, args.seed)
        stamps["stats_repeats_s"].append(time.perf_counter() - t0)
    return stamps, rule, quadrature.rule_to_json(rule), mean, std


def load_mixture(spec):
    from mixquad import benchmarks

    return benchmarks.builtin_mixture(spec["mixture"])


def check_cli_artifacts(out_dir, ref):
    """Gate and outcome for the artifacts of one CLI pipeline."""
    from mixquad import quadrature

    out = Path(out_dir)
    problems = [f"missing or empty {name}" for stage in STAGES for name in STAGE_ARTIFACTS[stage]
                if not (out / name).is_file() or (out / name).stat().st_size == 0]
    if problems:
        return problems, None
    rule_json = (out / "rule.json").read_text()
    rule = quadrature.rule_from_json(rule_json)
    stats = json.loads((out / "stats.json").read_text())
    return check_rule(rule), outcome(rule, rule_json, stats["mean"], stats["std"], ref)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "library", "cli-stage", "check"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--stage", choices=STAGES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--solver-seed", type=int, default=0)
    ap.add_argument("--tol", type=float, default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--dirs", nargs="+", default=())
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]

    import mixquad

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(mixquad.__file__).resolve().parents:
        raise SystemExit(f"imported mixquad from {mixquad.__file__}, not from {src}")

    if args.mode == "check":
        ref = reference(load_mixture(spec), spec["model"])
        checks = [check_cli_artifacts(out_dir, ref) for out_dir in args.dirs]
        print(json.dumps({"checks": [{"problems": problems, "outcome": result}
                                     for problems, result in checks],
                          "environment": environment()}))
        return 0

    tracer = None
    if args.trace_file:
        from tracer import Tracer

        tracer = Tracer().install()
    gm = load_mixture(spec)
    record = {"t_ready": time.monotonic(), "problems": []}
    if args.mode == "setup":
        record["environment"] = environment()
        print(json.dumps(record))
        return 0

    rule = None
    try:
        if args.mode == "cli-stage":
            from mixquad import cli

            code = cli.main(cli_argv(spec, args.stage, args.out, args.seed, args.solver_seed,
                                     args.tol))
            if code != 0:
                record["problems"].append(f"stage {args.stage} exited {code}")
        else:
            stamps, rule, rule_json, mean, std = run_library(spec, gm, args, tracer)
            record.update(stamps)
    except Exception as exc:  # a failed pipeline is counted and reported, not fatal
        record["problems"].append(f"{type(exc).__name__}: {exc}")
    record.setdefault("t_end", time.monotonic())
    record.setdefault("peak_rss_mb", _peak_rss_mb())
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace_file)
    if rule is not None:
        record["problems"] += check_rule(rule)
        record["outcome"] = outcome(rule, rule_json, mean, std, reference(gm, spec["model"]))
    record["environment"] = environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
