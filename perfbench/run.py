"""mixquad pipeline benchmark.

One run of one workload:

    python3 perfbench/run.py --workload gm6-p2 --seed 0 --seconds 30 --trace 0

gm6-p2, gm4-p3 and cli-gm4-p2, one run per seed and then a traced run, with
a summary table:

    python3 perfbench/run.py --all --seeds 0,1,2 --seconds 30

A run is a closed loop with a single client: each pipeline starts when the
previous one has ended, in fresh processes, until --seconds have passed (at
least one pipeline). --trace 0 prints the end-to-end metrics of
BENCHMARK.json. --trace 1 runs one traced pipeline in the same process
layout and prints the per-layer metrics; --all reports its tracing overhead
against the untraced runs. The last stdout line is the result object; the
line before it holds the full record (samples, outcomes, environment).
Spans of traced runs and the summary of --all go to perfbench/out/.

This file imports nothing outside the standard library, so the processes it
times never share a core with numpy work of its own.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from tracer import layer_metrics
from workloads import SOLVER_SEED, STAGES, SUITE, UNREACHABLE_TOL, WORKLOADS, cli_argv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"
# fresh interpreters timed for setup_s: one before each pipeline of an
# untraced run, and at least this many
SETUP_PROBES = 3
# the solver's result depends on the BLAS thread count (gm4-p3 converges to
# M=50 at one thread and M=51 at two), so every timed process uses one
BLAS_THREADS = "1"


class HarnessError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(argv):
    """Run a process to completion; returns its exit code, output and costs.

    os.wait4 gives the peak resident memory of this one child.
    """
    t_spawn = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    try:
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return {"code": proc.returncode, "output": output, "t_spawn": t_spawn, "t_exit": t_exit,
            "wall_s": t_exit - t_spawn, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def child(mode, workload, *extra):
    """Run child.py and return (spawn result, its JSON record)."""
    res = spawn([sys.executable, str(CHILD), mode, "--workload", workload, *extra])
    lines = res["output"].strip().splitlines()
    if res["code"] != 0 or not lines:
        raise HarnessError(f"child {mode} {workload} exited {res['code']}:\n{res['output']}")
    try:
        return res, json.loads(lines[-1])
    except json.JSONDecodeError:
        raise HarnessError(f"child {mode} {workload} printed no record:\n{res['output']}") \
            from None


def setup_probe(workload):
    """Interpreter start, `import mixquad` and loading the mixture, in seconds."""
    res, rec = child("setup", workload)
    return rec["t_ready"] - res["t_spawn"], rec["environment"]


def run_options(seed, solver_seed, tol, trace_file):
    extra = ["--seed", str(seed), "--solver-seed", str(solver_seed)]
    if tol is not None:
        extra += ["--tol", repr(tol)]
    if trace_file is not None:
        extra += ["--trace-file", str(trace_file)]
    return extra


def library_pipeline(workload, seed, solver_seed, tol, work, trace_file=None):
    """The five stages in memory, in one fresh process, checked in it.

    `work` is unused: the stages pass their data in memory.
    """
    res, rec = child("library", workload, *run_options(seed, solver_seed, tol, trace_file))
    sample = {"problems": rec["problems"], "outcome": rec.get("outcome"),
              "total_s": rec["t_end"] - res["t_spawn"], "environment": rec["environment"]}
    if "t_nodes" in rec:
        sample.update({
            "time_to_nodes_s": rec["t_nodes"] - rec["t_start"],
            "stats_timings_s": [rec["t_stats"] - rec["t_values"], *rec["stats_repeats_s"]],
            "peak_rss_mb": rec["peak_rss_mb"],
        })
        sample["time_to_stats_s"] = median(sample["stats_timings_s"])
    if trace_file is not None:
        sample["spans"] = read_spans(trace_file)
    return sample


def cli_pipeline(workload, seed, solver_seed, tol, work, trace_file=None):
    """The five stages, each in a fresh process, passing files in `work`.

    Untraced, each stage is `python -m mixquad <stage>`. Traced, each is a
    child that installs the tracer and calls mixquad.cli.main(argv), so both
    pay the same interpreter starts. Stops at the first failing stage. The
    artifacts are checked later, by check_cli, outside the timed loop.
    """
    spec = WORKLOADS[workload]
    walls, rss, problems, spans = {}, [], [], []
    for stage in STAGES:
        if trace_file is None:
            res = spawn([sys.executable, "-m", "mixquad",
                         *cli_argv(spec, stage, work, seed, solver_seed, tol)])
            if res["code"] != 0:
                problems.append(f"stage {stage} exited {res['code']}: "
                                f"{res['output'].strip()[-300:]}")
        else:
            stage_file = work / f"spans-{stage}.jsonl"
            res, rec = child("cli-stage", workload, "--stage", stage, "--out", str(work),
                             *run_options(seed, solver_seed, tol, stage_file))
            problems += rec["problems"]
            spans += read_spans(stage_file, first_id=len(spans))
        walls[stage] = res["wall_s"]
        rss.append(res["peak_rss_mb"])
        if problems:
            break
    sample = {"problems": problems, "outcome": None, "stage_s": walls,
              "total_s": sum(walls.values()), "work": work}
    if trace_file is not None:
        sample["spans"] = spans
    if not problems:
        sample.update(time_to_nodes_s=walls["basis"] + walls["quadrature"],
                      time_to_stats_s=walls["surrogate"] + walls["stats"],
                      peak_rss_mb=max(rss))
    return sample


def check_cli(workload, samples):
    """Check the artifacts of every CLI pipeline whose stages all exited 0.

    One process checks them all and computes the Monte Carlo reference once.
    """
    todo = [s for s in samples if not s["problems"]]
    if todo:
        _, rec = child("check", workload, "--dirs", *(str(s["work"]) for s in todo))
        for sample, result in zip(todo, rec["checks"]):
            sample.update(problems=result["problems"], outcome=result["outcome"],
                          environment=rec["environment"])
    for sample in samples:
        del sample["work"]


def read_spans(path, first_id=0):
    """Spans a traced child wrote, renumbered to start at first_id."""
    spans = [json.loads(line) for line in Path(path).read_text().splitlines()]
    for span in spans:
        span["id"] += first_id
        if span["parent"] is not None:
            span["parent"] += first_id
    return spans


def median_quartiles(values):
    """(median, q1, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def source_identity():
    """The commit when the checkout is a git repository, and a digest of src/."""
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(spec, section):
    return {m["name"]: m["unit"] for m in spec[section]}


def run_pipelines(args, work_root, trace_file=None):
    """Pipelines until --seconds have passed (at least one, or --min-runs).

    Untraced, a setup probe precedes every pipeline, so that setup_s samples
    the whole run rather than its start.
    """
    kind = WORKLOADS[args.workload]["kind"]
    setup, env, samples = [], None, []
    start = time.monotonic()
    while (not samples or len(samples) < args.min_runs
           or (trace_file is None and time.monotonic() - start < args.seconds)):
        if trace_file is None:
            probe, env = setup_probe(args.workload)
            setup.append(probe)
        tol = UNREACHABLE_TOL if args.inject_fail_first and not samples else None
        work = work_root / f"pipeline{len(samples)}"
        work.mkdir()
        samples.append(PIPELINES[kind](args.workload, args.seed, args.solver_seed, tol, work,
                                       trace_file=trace_file))
    while trace_file is None and len(setup) < SETUP_PROBES:
        probe, env = setup_probe(args.workload)
        setup.append(probe)
    if kind == "cli":
        check_cli(args.workload, samples)
    return samples, setup, env


def untraced_run(args, work_root):
    """Pipelines and setup probes until --seconds have passed; their medians.

    Library: the median over pipelines, and for time_to_stats_s over every
    timing of the step. CLI: each stage's median over pipelines, summed.
    """
    samples, setup, env = run_pipelines(args, work_root)
    passed = [s for s in samples if not s["problems"]]
    metrics = {"setup_s": median(setup), "pass_rate": len(passed) / len(samples)}
    if passed:
        metrics["model_evals"] = median([s["outcome"]["model_evals"] for s in passed])
        metrics["peak_rss_mb"] = median([s["peak_rss_mb"] for s in passed])
        if WORKLOADS[args.workload]["kind"] == "cli":
            stage = {name: median([s["stage_s"][name] for s in passed]) for name in STAGES}
            metrics["time_to_nodes_s"] = stage["basis"] + stage["quadrature"]
            metrics["time_to_stats_s"] = stage["surrogate"] + stage["stats"]
            metrics["total_s"] = sum(stage[name] for name in STAGES)
        else:
            metrics["time_to_nodes_s"] = median([s["time_to_nodes_s"] for s in passed])
            metrics["time_to_stats_s"] = median([t for s in passed for t in s["stats_timings_s"]])
            metrics["total_s"] = median([s["total_s"] for s in passed])
    return metrics, samples, {"setup_s": setup, "environment": env}


def traced_run(args, work_root):
    """One traced pipeline; per-layer metrics come from its spans."""
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    samples, _, _ = run_pipelines(args, work_root, trace_file=trace_file)
    sample = samples[0]
    spans = sample.pop("spans")
    trace_file.write_text("".join(json.dumps(span) + "\n" for span in spans))
    metrics = layer_metrics(spans)
    return metrics, [sample], {"trace_file": str(trace_file.relative_to(ROOT)),
                               "environment": sample.get("environment")}


PIPELINES = {"library": library_pipeline, "cli": cli_pipeline}


def one_run(args):
    declared = units(load_spec(), "per_layer" if args.trace else "end_to_end")
    work_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        metrics, samples, extra = (traced_run if args.trace else untraced_run)(args, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    failed = sum(1 for s in samples if s["problems"])
    missing = set(declared) - set(metrics)
    if failed == 0 and missing:
        raise HarnessError(f"metrics missing from the run: {sorted(missing)}")
    unknown = set(metrics) - set(declared)
    if unknown:
        raise HarnessError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    record = {
        "workload": args.workload, "seed": args.seed, "solver_seed": args.solver_seed,
        "trace": args.trace, "seconds": args.seconds, "samples": samples,
        "source": source_identity(), **extra,
    }
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items() if name in metrics},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def summarize(args):
    """Every workload: one untraced run per seed, then one traced run."""
    spec = load_spec()
    layer_units = units(spec, "per_layer")
    names = args.workloads.split(",") if args.workloads else SUITE
    seeds = [int(s) for s in args.seeds.split(",")]
    summary = {"seeds": seeds, "solver_seed": args.solver_seed, "seconds": args.seconds,
               "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(sub_run(name, seed, args, trace=0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["result"]["metrics"].items()),
                file=sys.stderr)
        traced = sub_run(name, seeds[0], args, trace=1)
        table = {}
        for m in spec["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                    if m["name"] in r["result"]["metrics"]]
            row = {"unit": m["unit"], "bound": m["bound"], "n": len(vals), "values": vals}
            if vals:
                med, q1, q3 = median_quartiles(vals)
                row.update(median=med, q1=q1, q3=q3, spread=(q3 - q1) / med)
            table[m["name"]] = row
        samples = [s for r in runs for s in r["record"]["samples"]]
        traced_samples = traced["record"]["samples"]
        outcomes = [s["outcome"] for s in samples if s["outcome"]]
        summary["workloads"][name] = {
            "end_to_end": table,
            "fail_rate": sum(bool(s["problems"]) for s in samples) / len(samples),
            "outcomes": sorted({(o["model_evals"], o["residual"], o["converged"],
                                 o["rule_digest"]) for o in outcomes}),
            "mean_rel_err": [o["mean_rel_err"] for o in outcomes],
            "std_rel_err": [o["std_rel_err"] for o in outcomes],
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "traced_correct": traced["result"]["correct"],
            "traced_digest_matches": {s["outcome"]["rule_digest"] for s in traced_samples
                                      if s["outcome"]} <= {o["rule_digest"] for o in outcomes},
            # traced total minus the untraced median, same process layout
            "trace_overhead_s": traced_samples[0]["total_s"] - table["total_s"].get("median",
                                                                                   math.nan),
            "environment": runs[0]["record"]["environment"],
            "source": runs[0]["record"]["source"],
        }
        print_table(name, summary["workloads"][name], layer_units)
    path = OUT / "summary.json"
    path.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def sub_run(workload, seed, args, trace):
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace),
            "--solver-seed", str(args.solver_seed)]
    res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        raise HarnessError(f"{' '.join(argv)} exited {res.returncode}:\n{res.stderr}")
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def print_table(name, w, layer_units):
    print(f"\n== {name}  (fail_rate {w['fail_rate']:.3g}; "
          f"blas threads {w['environment']['blas_threads']})")
    print(f"  {'metric':<18}{'unit':<7}{'n':>3}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}")
    for metric, row in w["end_to_end"].items():
        if not row["n"]:
            print(f"  {metric:<18}{row['unit']:<7}{0:>3}  (no passing runs)")
            continue
        print(f"  {metric:<18}{row['unit']:<7}{row['n']:>3}{row['median']:>12.5g}"
              f"{row['q1']:>12.5g}{row['q3']:>12.5g}{row['spread']:>9.4f}{row['bound']:>7}")
    for m, residual, converged, digest in w["outcomes"]:
        print(f"  outcome M={m} residual={residual:.3e} converged={converged} "
              f"rule {digest[:16]}")
    if w["std_rel_err"]:
        print(f"  vs Monte Carlo: mean_rel_err max {max(w['mean_rel_err']):.3g}, "
              f"std_rel_err max {max(w['std_rel_err']):.3g}")
    print(f"  traced run: correct={w['traced_correct']}, rule digest matches untraced: "
          f"{w['traced_digest_matches']}, tracing overhead {w['trace_overhead_s']:.3f} s")
    for metric, value in w["per_layer"].items():
        print(f"    {metric:<44}{value:>14.6g} {layer_units[metric]}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true",
                    help=f"run {', '.join(SUITE)} and summarize")
    ap.add_argument("--workloads", help="with --all: comma-separated subset")
    ap.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    ap.add_argument("--seeds", default="0", help="with --all: comma-separated seeds")
    ap.add_argument("--solver-seed", type=int, default=SOLVER_SEED,
                    help=f"quadrature solver seed (default {SOLVER_SEED})")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # self-test hooks: a minimum pipeline count, and a first pipeline that fails
    ap.add_argument("--min-runs", type=int, default=1, help=argparse.SUPPRESS)
    ap.add_argument("--inject-fail-first", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if not (ROOT / "src" / "mixquad" / "__init__.py").is_file():
        print(f"error: no mixquad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # a terminated run still kills and reaps the child it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return summarize(args) if args.all else one_run(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
