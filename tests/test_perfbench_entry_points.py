"""Smoke test of the benchmark's entry points on its tiny workloads.

perfbench/child.py calls ModelAdapter.builtin, describe, evaluate_model,
quadrature.rule_to_json and cli.main. A change to those names fails here,
before a benchmark run. perfbench itself is only run, never changed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"
STAGES = ("basis", "quadrature", "surrogate", "stats", "sample")


def child(mode, workload, *extra):
    """The JSON record child.py prints last, run as perfbench runs it (one BLAS thread).

    No bytecode is written, so perfbench/ is left as it was.
    """
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, str(CHILD), mode, "--workload", workload, *extra],
                         cwd=ROOT, env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stdout + res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_library_pipeline_untraced_and_traced(tmp_path):
    assert child("library", "tiny-gm4-p1")["problems"] == []
    trace = tmp_path / "spans.jsonl"
    assert child("library", "tiny-gm4-p1", "--trace-file", str(trace))["problems"] == []
    assert trace.read_text()


def test_cli_stages_and_their_check(tmp_path):
    for stage in STAGES:
        rec = child("cli-stage", "tiny-cli-gm4-p1", "--stage", stage, "--out", str(tmp_path))
        assert rec["problems"] == [], stage
    checks = child("check", "tiny-cli-gm4-p1", "--dirs", str(tmp_path))["checks"]
    assert [c["problems"] for c in checks] == [[]]
