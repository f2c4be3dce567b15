"""Workload definitions shared by the orchestrator and the child processes.

Pure data and the standard library only: the orchestrator imports this file
without importing numpy, so its own start-up never competes with the
processes it times.

Each workload runs the five README stages (basis, quadrature, surrogate,
stats, sample) on one builtin mixture at one order p. "library" workloads
run them in memory through the public functions; "cli" workloads run each
stage as a fresh `python -m mixquad` process that reads the previous stage's
artifacts. Why each workload was chosen is in NOTES.md.
"""

# the quadrature solve starts from this seed on every run; the benchmark's
# --seed drives the sampling seeds only (see NOTES.md, "Seeds")
SOLVER_SEED = 0

# surrogate samples behind the density estimate: the CLI's default
DENSITY_SAMPLES = 100_000
# draws of the final `sample` stage, as in the README
SAMPLE_DRAWS = 1000
# the ~1 s from model values to statistics is timed this many more times
# after an untraced library pipeline ends, and the median is reported
STATS_REPEATS = 9
# direct Monte Carlo reference of the model, outside every timed region
REFERENCE_SAMPLES = 1_000_000
REFERENCE_SEED = 20180825

# a run passes only if the rule meets this residual (the solver's default)
RESIDUAL_BOUND = 1e-8
# residual tolerance that no rule can meet; the self-test injects it to
# produce a failing pipeline
UNREACHABLE_TOL = 1e-300

# what `run.py --all` runs; BENCHMARK.json lists the subset that fits a
# timed round (NOTES.md, "Workloads")
SUITE = ("gm6-p2", "gm4-p3", "cli-gm4-p2")

WORKLOADS = {
    "gm6-p2": {"kind": "library", "mixture": "gm6", "order": 2, "model": "ro6"},
    "gm4-p3": {"kind": "library", "mixture": "gm4", "order": 3, "model": "filter4"},
    "cli-gm4-p2": {"kind": "cli", "mixture": "gm4", "order": 2, "model": "filter4"},
    # seconds-long cases for selftest.py; not listed in BENCHMARK.json
    "tiny-gm4-p1": {"kind": "library", "mixture": "gm4", "order": 1, "model": "filter4"},
    "tiny-cli-gm4-p1": {"kind": "cli", "mixture": "gm4", "order": 1, "model": "filter4"},
}

STAGES = ("basis", "quadrature", "surrogate", "stats", "sample")

# artifacts each CLI stage must leave in its output directory
STAGE_ARTIFACTS = {
    "basis": ("basis_p.json", "basis_2p.json"),
    "quadrature": ("rule.json", "nodes.csv"),
    "surrogate": ("surrogate.json", "coefficients.csv"),
    "stats": ("stats.json", "density.csv"),
    "sample": ("samples.csv",),
}


def cli_argv(spec, stage, out_dir, seed, solver_seed, tol):
    """Arguments of one CLI stage, as a user would type them after `mixquad`.

    The solver seed goes to the stages that build or read the rule, the
    sampling seed to `stats` and `sample`, because the CLI's --seed sets
    whichever of the two a stage uses.
    """
    argv = [stage, "--config", f"builtin:{spec['mixture']}", "--order", str(spec["order"]),
            "--out", str(out_dir)]
    if stage in ("stats", "sample"):
        argv += ["--seed", str(seed)]
    else:
        argv += ["--seed", str(solver_seed)]
    if stage == "quadrature" and tol is not None:
        argv += ["--tol", repr(tol)]
    if stage == "surrogate":
        argv += ["--model", f"builtin:{spec['model']}"]
    if stage == "sample":
        argv += ["--n", str(SAMPLE_DRAWS)]
    return argv
