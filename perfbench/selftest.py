"""Self-test of the benchmark harness on tiny cases (about two minutes).

    python3 perfbench/selftest.py

Runs run.py with the command line of a timed run, on gm4 at p=1 (N_2p=15),
through the library and the CLI, and checks that:

  1. every metric of BENCHMARK.json is printed, with its unit, untraced and
     traced;
  2. traced and untraced runs build the same rule (equal rule digests);
  3. an injected failure (an unreachable residual tolerance on the first
     pipeline) is counted in `failed` and `pass_rate` and left out of the
     timings;
  4. without the mixquad sources the benchmark exits non-zero and prints no
     result.

Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args):
    res = subprocess.run([sys.executable, str(HERE / "run.py"), "--seed", "0", *args],
                         cwd=ROOT, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        return res, None, None
    return res, json.loads(lines[-2])["record"], json.loads(lines[-1])


def digests(record):
    return {s["outcome"]["rule_digest"] for s in record["samples"] if s["outcome"]}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    checks = []

    def check(name, ok, detail=""):
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""),
              flush=True)

    for workload in ("tiny-gm4-p1", "tiny-cli-gm4-p1"):
        runs = {}
        for trace in (0, 1):
            res, record, result = bench("--workload", workload, "--seconds", "0",
                                        "--trace", str(trace))
            if result is None:
                check(f"{workload} trace {trace} runs", False, res.stderr.strip()[-500:])
                continue
            runs[trace] = record
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check(f"{workload} trace {trace}: every metric printed with its unit",
                  printed == units[trace],
                  f"missing {sorted(set(units[trace]) - set(printed))}")
            check(f"{workload} trace {trace}: correct, nothing failed",
                  result["correct"] and result["failed"] == 0,
                  f"attempted {result['attempted']}, failed {result['failed']}")
        if len(runs) == 2:
            found = digests(runs[0]) | digests(runs[1])
            check(f"{workload}: traced and untraced rule digests equal", len(found) == 1,
                  f"{len(found)} distinct digests")

        res, record, result = bench("--workload", workload, "--seconds", "0", "--trace", "0",
                                    "--min-runs", "2", "--inject-fail-first")
        if result is None:
            check(f"{workload} with an injected failure runs", False, res.stderr.strip()[-500:])
            continue
        bad, good = record["samples"]
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        check(f"{workload}: injected failure counted",
              result["attempted"] == 2 and result["failed"] == 1 and not result["correct"]
              and metrics["pass_rate"] == 0.5 and bad["problems"] and not good["problems"],
              f"attempted {result['attempted']}, failed {result['failed']}, "
              f"pass_rate {metrics['pass_rate']}, problems {bad['problems']}")
        check(f"{workload}: failed pipeline left out of the timings",
              all(metrics[k] == good[k] for k in ("time_to_nodes_s", "time_to_stats_s",
                                                  "total_s")))

    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gm6-p2",
                              "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=bare,
                             capture_output=True, text=True, timeout=180)
        check("without sources: non-zero exit and no result",
              res.returncode != 0 and '"metrics"' not in res.stdout,
              f"exit {res.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{sum(checks)}/{len(checks)} checks passed")
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
