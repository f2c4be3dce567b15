"""End-to-end command-line pipeline: artifacts, determinism, exit codes."""

import collections
import contextlib
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from math import sqrt
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mixquad as mq
from mixquad.cli import main
from mixquad.collocation import MIN_DENSITY_SAMPLES
from mixquad.rules import mixture_sha256, stamped


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "mixquad", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )


def corr2d():
    return mq.GaussianMixture(
        [0.5, 0.5],
        [[-0.5, 0.3], [0.4, -0.4]],
        [
            [[1.0, 0.24], [0.24, 0.64]],
            [[0.49, -0.28], [-0.28, 1.0]],
        ],
    )


@pytest.fixture(scope="module")
def cfg1(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg1") / "gauss1.json"
    path.write_text(mq.mixture_to_json(mq.GaussianMixture([1.0], [[0.0]], [[[1.0]]])))
    return path


@pytest.fixture(scope="module")
def cfg2(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg2") / "corr2.json"
    path.write_text(mq.mixture_to_json(corr2d()))
    return path


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory, cfg2):
    """rule.json/nodes.csv then a surrogate of y = xi_0 + xi_1 in one directory."""
    out = tmp_path_factory.mktemp("pipeline")
    res = run_cli("quadrature", "--config", cfg2, "--out", out)
    assert res.returncode == 0, res.stderr
    cmd = (
        sys.executable
        + ' -c "import sys; [print(sum(map(float, l.split()))) for l in sys.stdin]"'
    )
    res = run_cli("surrogate", "--config", cfg2, "--out", out, "--model-cmd", cmd)
    assert res.returncode == 0, res.stderr
    return out


class TestBasisCommand:
    def test_writes_both_basis_files(self, cfg1, tmp_path):
        res = run_cli("basis", "--config", cfg1, "--out", tmp_path)
        assert res.returncode == 0, res.stderr
        assert "basis:" in res.stderr
        b2p = mq.basis_from_json((tmp_path / "basis_2p.json").read_text())
        bp = mq.basis_from_json((tmp_path / "basis_p.json").read_text())
        assert (bp.order, b2p.order) == (2, 4)
        # normalized Hermite row: (xi^2 - 1) / sqrt(2)
        assert_allclose(
            b2p.coeff_matrix[2, :3],
            [-1.0 / sqrt(2.0), 0.0, 1.0 / sqrt(2.0)],
            atol=1e-12,
        )

    def test_rerun_is_byte_identical(self, cfg2, tmp_path):
        for _ in range(2):
            res = run_cli("basis", "--config", cfg2, "--out", tmp_path, "--order", 1)
            assert res.returncode == 0, res.stderr
            if _ == 0:
                first = {
                    name: (tmp_path / name).read_bytes()
                    for name in ("basis_p.json", "basis_2p.json")
                }
        for name, data in first.items():
            assert (tmp_path / name).read_bytes() == data

    def test_invalid_covariance_reported_cleanly(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "components": [
                        {
                            "weight": 1.0,
                            "mean": [0.0, 0.0],
                            "cov": [[1.0, 0.3], [0.1, 1.0]],
                        }
                    ],
                }
            )
        )
        res = run_cli("basis", "--config", bad, "--out", tmp_path)
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert "component 0" in res.stderr

    def test_unknown_builtin_lists_choices(self, tmp_path):
        res = run_cli("basis", "--config", "builtin:zzz", "--out", tmp_path)
        assert res.returncode == 1
        assert "gm4" in res.stderr and "gm6" in res.stderr

    def test_missing_config_flag_is_a_usage_error(self):
        res = run_cli("basis")
        assert res.returncode == 2


class TestQuadratureCommand:
    def test_writes_converged_rule_and_nodes(self, cfg1, tmp_path):
        res = run_cli("quadrature", "--config", cfg1, "--out", tmp_path, "--order", 1)
        assert res.returncode == 0, res.stderr
        rule = mq.rule_from_json((tmp_path / "rule.json").read_text())
        assert rule.converged
        assert rule.residual_norm <= 1e-8
        assert rule.n_nodes == 2
        nodes = np.loadtxt(tmp_path / "nodes.csv", delimiter=",", ndmin=2)
        assert np.array_equal(nodes, rule.nodes)

    def test_one_dimensional_order_four_gives_the_five_point_rule(self, cfg1, tmp_path):
        res = run_cli("quadrature", "--config", cfg1, "--out", tmp_path, "--order", 4)
        assert res.returncode == 0, res.stderr
        rule = mq.rule_from_json((tmp_path / "rule.json").read_text())
        assert rule.converged and rule.n_nodes == 5

    def test_unreachable_tolerance_exits_nonzero(self, cfg1, tmp_path, monkeypatch, capsys):
        def unreachable(basis, gm, cfg):
            raise mq.IncreasePhaseError(M=70, cap=60, last_residual=1e-17, cloud_residual=1e-17,
                                        tol=1e-30)

        monkeypatch.setattr("mixquad.quadrature.adaptive_rule", unreachable)
        code = main(["quadrature", "--config", str(cfg1), "--out", str(tmp_path), "--order", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "increase phase" in err

    @pytest.mark.parametrize("tol", ["-1", "0", "inf", "nan"])
    def test_nan_tolerance_is_rejected(self, cfg1, tmp_path, capsys, tol):
        # a usage error, before the basis is read or built
        with pytest.raises(SystemExit) as info:
            main(["quadrature", "--config", str(cfg1), "--out", str(tmp_path),
                  "--order", "1", "--tol", tol])
        assert info.value.code == 2
        assert f"argument --tol: must be finite and > 0, got '{tol}'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_rerun_is_byte_identical(self, cfg2, tmp_path):
        blobs = []
        for _ in range(2):
            res = run_cli(
                "quadrature", "--config", cfg2, "--out", tmp_path, "--order", 1,
                "--seed", 7,
            )
            assert res.returncode == 0, res.stderr
            blobs.append(
                tuple((tmp_path / n).read_bytes() for n in ("rule.json", "nodes.csv"))
            )
        assert blobs[0] == blobs[1]

    def test_rule_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # gm6 at p=2 takes another path, to 36 nodes, when its basis or its
        # solve runs on two OpenBLAS threads
        rules = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            out = tmp_path / threads
            res = run_cli("quadrature", "--config", "builtin:gm6", "--out", out, env=env)
            assert res.returncode == 0, res.stderr
            rules.append((out / "rule.json").read_bytes())
        assert rules[0] == rules[1]


class TestSurrogateCommand:
    def test_values_adapter_constant_model(self, cfg2, pipeline_out, tmp_path):
        # fresh directory sharing the rule, so the pipeline surrogate stays put
        (tmp_path / "rule.json").write_bytes((pipeline_out / "rule.json").read_bytes())
        rule = mq.rule_from_json((tmp_path / "rule.json").read_text())
        values = tmp_path / "values.csv"
        values.write_text("7.0\n" * rule.n_nodes)
        res = run_cli(
            "surrogate", "--config", cfg2, "--out", tmp_path, "--values", values
        )
        assert res.returncode == 0, res.stderr
        surr = mq.surrogate_from_json((tmp_path / "surrogate.json").read_text())
        assert surr.meta["model"] == f"file:{values}"
        assert_allclose(surr.coefficients[0], 7.0, rtol=1e-9)
        assert np.abs(surr.coefficients[1:]).max() <= 1e-7

    def test_coefficient_table_layout(self, cfg2, pipeline_out):
        lines = (pipeline_out / "coefficients.csv").read_text().splitlines()
        assert lines[0] == "index,exponents,coefficient,magnitude"
        surr = mq.surrogate_from_json((pipeline_out / "surrogate.json").read_text())
        assert len(lines) == 1 + surr.basis.size
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0 0"
        assert float(first[3]) == abs(float(first[2]))

    def test_sum_model_surrogate_reproduces_the_sum(self, pipeline_out):
        surr = mq.surrogate_from_json((pipeline_out / "surrogate.json").read_text())
        rng = np.random.default_rng(31)
        X = rng.normal(size=(200, 2))
        assert_allclose(mq.evaluate_batch(surr, X), X.sum(axis=1), atol=1e-6)

    def test_requires_exactly_one_adapter_flag(self, cfg2, pipeline_out, tmp_path):
        res = run_cli("surrogate", "--config", cfg2, "--out", pipeline_out)
        assert res.returncode == 2
        assert all(flag in res.stderr for flag in ("--model", "--values", "--model-cmd"))
        values = tmp_path / "v.csv"
        values.write_text("1.0\n")
        res = run_cli(
            "surrogate", "--config", cfg2, "--out", pipeline_out,
            "--model", "builtin:ro6", "--values", values,
        )
        assert res.returncode == 2 and "not allowed with argument" in res.stderr

    def test_model_flag_requires_builtin_prefix(self, cfg2, pipeline_out):
        res = run_cli(
            "surrogate", "--config", cfg2, "--out", pipeline_out, "--model", "ro6"
        )
        assert res.returncode == 2
        assert "argument --model" in res.stderr and "builtin:" in res.stderr

    def test_unknown_builtin_model_is_a_usage_error(self, cfg2, tmp_path):
        # the flag is checked before rule.json is read: --out is empty
        res = run_cli("surrogate", "--config", cfg2, "--out", tmp_path, "--model", "builtin:nope")
        assert res.returncode == 2
        assert "argument --model" in res.stderr
        assert f"available: {sorted(mq.benchmarks.BUILTIN_MODELS)}" in res.stderr
        assert "rule.json" not in res.stderr

    def test_order_above_the_rule_is_rejected(self, cfg2, pipeline_out, tmp_path):
        # pipeline_out holds an order-2 rule, exact through order 4
        rule = mq.rule_from_json((pipeline_out / "rule.json").read_text())
        values = tmp_path / "values.csv"
        values.write_text("1.0\n" * rule.n_nodes)
        before = (pipeline_out / "surrogate.json").read_bytes()
        res = run_cli("surrogate", "--config", cfg2, "--out", pipeline_out, "--order", 3,
                      "--values", values)
        assert res.returncode == 1
        assert res.stderr.startswith("error:") and "order 6" in res.stderr
        assert (pipeline_out / "surrogate.json").read_bytes() == before

    def test_order_is_checked_before_the_model_runs(self, cfg2, pipeline_out, tmp_path,
                                                    capsys):
        (tmp_path / "rule.json").write_bytes((pipeline_out / "rule.json").read_bytes())
        marker = tmp_path / "model-ran"
        script = tmp_path / "model.py"
        script.write_text(
            "import sys\n"
            f"open({str(marker)!r}, 'w').close()\n"
            "[print(0.0) for _ in sys.stdin]\n"
        )
        code = main(["surrogate", "--config", str(cfg2), "--out", str(tmp_path), "--order", "3",
                     "--model-cmd", f"{sys.executable} {script}"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "order 6" in err
        assert not marker.exists()

    @pytest.mark.parametrize("cmd, message", [
        ("", "model command '' names no program"),
        ("   ", "model command '   ' names no program"),
        ('echo "x', """cannot split 'echo "x' into arguments: No closing quotation"""),
    ], ids=["empty", "blank", "open-quote"])
    def test_unusable_model_command_is_named(self, cfg2, pipeline_out, tmp_path, capsys, cmd,
                                             message):
        (tmp_path / "rule.json").write_bytes((pipeline_out / "rule.json").read_bytes())
        code = main(["surrogate", "--config", str(cfg2), "--out", str(tmp_path),
                     "--model-cmd", cmd])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {message}\n"
        assert not (tmp_path / "surrogate.json").exists()

    def test_missing_rule_file_reported(self, cfg2, tmp_path):
        res = run_cli(
            "surrogate", "--config", cfg2, "--out", tmp_path, "--model", "builtin:ro6"
        )
        assert res.returncode == 1
        assert "rule.json" in res.stderr


@pytest.fixture(scope="module")
def gm4_p1(tmp_path_factory):
    """basis, quadrature and surrogate of builtin:gm4 at order 1 in one directory."""
    out = tmp_path_factory.mktemp("gm4-p1")
    for stage in ("basis", "quadrature", "surrogate"):
        extra = ["--model", "builtin:filter4"] if stage == "surrogate" else []
        argv = [stage, "--config", "builtin:gm4", "--order", "1", "--out", str(out), *extra]
        assert main(argv) == 0
    return out


class TestBasisReuse:
    def test_artifacts_do_not_depend_on_the_basis_files(self, gm4_p1, tmp_path):
        for stage in ("quadrature", "surrogate"):
            extra = ["--model", "builtin:filter4"] if stage == "surrogate" else []
            argv = [stage, "--config", "builtin:gm4", "--order", "1", "--out", str(tmp_path)]
            assert main([*argv, *extra]) == 0
        assert not (tmp_path / "basis_p.json").exists()
        for name in ("rule.json", "surrogate.json", "coefficients.csv"):
            assert (tmp_path / name).read_bytes() == (gm4_p1 / name).read_bytes(), name

    @pytest.mark.parametrize("gm, order", [(mq.benchmarks.builtin_mixture("gm4"), 2),
                                           (corr2d(), 1)], ids=["order", "dim"])
    def test_mismatched_basis_file_is_rejected(self, gm4_p1, tmp_path, capsys, gm, order):
        (tmp_path / "rule.json").write_bytes((gm4_p1 / "rule.json").read_bytes())
        stale = mq.gram_schmidt(mq.raw_moments(gm, 2 * order), gm.dim, order)
        (tmp_path / "basis_p.json").write_text(mq.basis_to_json(stale))
        code = main(["surrogate", "--config", "builtin:gm4", "--order", "1",
                     "--out", str(tmp_path), "--model", "builtin:filter4"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and str(tmp_path / "basis_p.json") in err
        assert f"dim {gm.dim} and order {order};" in err
        assert not (tmp_path / "surrogate.json").exists()

    def test_basis_file_of_another_mixture_is_rejected(self, tmp_path, capsys):
        # gm4 with every mean moved by +1: same dim and order, other moments
        gm = mq.benchmarks.builtin_mixture("gm4")
        shifted = tmp_path / "shifted.json"
        shifted.write_text(mq.mixture_to_json(
            mq.GaussianMixture(gm.mix_weights, np.asarray(gm.means) + 1.0, gm.covariances)))
        assert main(["basis", "--config", "builtin:gm4", "--order", "1",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        code = main(["quadrature", "--config", str(shifted), "--order", "1",
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and str(tmp_path / "basis_2p.json") in err
        assert "another mixture" in err
        assert not (tmp_path / "rule.json").exists()

    def test_basis_file_without_mixture_digest_is_rejected(self, gm4_p1, tmp_path, capsys):
        # right dim, order and mixture, but not written by the basis stage
        (tmp_path / "rule.json").write_bytes((gm4_p1 / "rule.json").read_bytes())
        gm = mq.benchmarks.builtin_mixture("gm4")
        basis = mq.gram_schmidt(mq.raw_moments(gm, 2), gm.dim, 1)
        (tmp_path / "basis_p.json").write_text(mq.basis_to_json(basis))
        code = main(["surrogate", "--config", "builtin:gm4", "--order", "1",
                     "--out", str(tmp_path), "--model", "builtin:filter4"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and str(tmp_path / "basis_p.json") in err
        assert "no mixture_sha256" in err
        assert not (tmp_path / "surrogate.json").exists()

    def test_basis_files_carry_the_mixture_digest(self, gm4_p1):
        gm = mq.benchmarks.builtin_mixture("gm4")
        digest = hashlib.sha256(mq.mixture_to_json(gm).encode()).hexdigest()
        for name in ("basis_p.json", "basis_2p.json"):
            text = (gm4_p1 / name).read_text()
            assert json.loads(text)["mixture_sha256"] == digest
            assert stamped(mq.basis_to_json(mq.basis_from_json(text)), gm) == text

    @pytest.mark.parametrize("field", ["coeff_matrix", "indices"],
                             ids=["row-dropped", "indices-swapped"])
    def test_inconsistent_basis_file_is_rejected_on_read(self, gm4_p1, tmp_path, capsys, field):
        (tmp_path / "rule.json").write_bytes((gm4_p1 / "rule.json").read_bytes())
        obj = json.loads((gm4_p1 / "basis_p.json").read_text())
        if field == "coeff_matrix":
            obj["indices"].pop()
            obj["coeff_matrix"].pop()
        else:
            obj["indices"][1], obj["indices"][2] = obj["indices"][2], obj["indices"][1]
        (tmp_path / "basis_p.json").write_text(json.dumps(obj))
        code = main(["surrogate", "--config", "builtin:gm4", "--order", "1",
                     "--out", str(tmp_path), "--model", "builtin:filter4"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {tmp_path / 'basis_p.json'}: {field} ")
        assert not (tmp_path / "surrogate.json").exists()

    @pytest.mark.parametrize("stage, name", [("quadrature", "basis_2p.json"),
                                             ("surrogate", "basis_p.json"),
                                             ("surrogate", "rule.json"),
                                             ("stats", "surrogate.json"),
                                             ("sample", "mixture.json")])
    def test_corrupt_artifact_is_named(self, gm4_p1, tmp_path, capsys, stage, name):
        for artifact in ("basis_2p.json", "basis_p.json", "rule.json", "surrogate.json"):
            (tmp_path / artifact).write_bytes((gm4_p1 / artifact).read_bytes())
        config = tmp_path / "mixture.json"
        config.write_text(mq.mixture_to_json(mq.benchmarks.builtin_mixture("gm4")))
        text = (tmp_path / name).read_text()
        (tmp_path / name).write_text(text[: len(text) // 2])
        extra = {"surrogate": ["--model", "builtin:filter4"], "sample": ["--n", "10"]}
        code = main([stage, "--config", str(config), "--order", "1", "--out", str(tmp_path),
                     *extra.get(stage, [])])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {tmp_path / name}: malformed ")

    @pytest.mark.parametrize("name, field, index, bad, message", [
        ("rule.json", "weights", 0, float("nan"), "weights must be finite"),
        ("rule.json", "weights", 3, float("inf"), "weights must be finite"),
        ("rule.json", "nodes", (1, 2), float("inf"), "nodes must be finite"),
        ("surrogate.json", "coefficients", 1, float("nan"), "coefficients must be finite"),
        ("rule.json", "residual_norm", None, float("nan"), "residual_norm must be finite"),
        ("surrogate.json", "rule_residual", None, float("inf"), "rule_residual must be finite"),
        ("basis_p.json", "coeff_matrix", (2, 1), float("nan"), "coeff_matrix must be finite"),
        ("basis_p.json", "gram_residual", None, float("inf"), "gram_residual must be finite"),
        ("rule.json", "order_2p", None, 4.9, "order_2p must be of type int, got 4.9"),
    ], ids=["rule-nan-weight", "rule-inf-weight", "rule-inf-node", "surrogate-nan-coefficient",
            "rule-nan-residual", "surrogate-inf-residual", "basis-nan-coefficient",
            "basis-inf-gram-residual", "rule-float-order"])
    def test_non_finite_artifact_is_rejected_on_read(self, gm4_p1, tmp_path, capsys, name, field,
                                                     index, bad, message):
        for artifact in ("basis_p.json", "rule.json", "surrogate.json"):
            (tmp_path / artifact).write_bytes((gm4_p1 / artifact).read_bytes())
        obj = json.loads((tmp_path / name).read_text())
        if index is None:
            obj[field] = bad
        else:
            row = obj[field]
            if isinstance(index, tuple):
                row, index = row[index[0]], index[1]
            row[index] = bad
        (tmp_path / name).write_text(json.dumps(obj))
        marker = tmp_path / "model-ran"
        script = tmp_path / "model.py"
        script.write_text(f"import sys\nopen({str(marker)!r}, 'w').close()\n"
                          "[print(0.0) for _ in sys.stdin]\n")
        stage = "stats" if name == "surrogate.json" else "surrogate"
        written = {"surrogate": ["surrogate.json", "coefficients.csv"],
                   "stats": ["stats.json", "density.csv"]}[stage]
        for artifact in written:
            (tmp_path / artifact).unlink(missing_ok=True)
        extra = ["--model-cmd", f"{sys.executable} {script}"] if stage == "surrogate" else []
        code = main([stage, "--config", "builtin:gm4", "--order", "1", "--out", str(tmp_path),
                     *extra])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {tmp_path / name}: {message}")
        assert not marker.exists()
        assert not any((tmp_path / artifact).exists() for artifact in written)

    def test_non_finite_basis_is_rejected_before_the_solve(self, gm4_p1, tmp_path, capsys):
        obj = json.loads((gm4_p1 / "basis_2p.json").read_text())
        obj["coeff_matrix"][3][0] = float("nan")
        (tmp_path / "basis_2p.json").write_text(json.dumps(obj))
        code = main(["quadrature", "--config", "builtin:gm4", "--order", "1",
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {tmp_path / 'basis_2p.json'}: coeff_matrix must be finite")
        assert not (tmp_path / "rule.json").exists()

    @pytest.mark.parametrize("stage", ["surrogate", "stats", "sample"])
    def test_stages_reading_artifacts_load_no_scipy(self, gm4_p1, tmp_path, stage):
        for name in ("rule.json", "basis_p.json", "surrogate.json"):
            (tmp_path / name).write_bytes((gm4_p1 / name).read_bytes())
        extra = {"surrogate": ["--model", "builtin:filter4"], "sample": ["--n", "10"]}
        argv = [stage, "--config", "builtin:gm4", "--order", "1", "--out", str(tmp_path),
                *extra.get(stage, [])]
        code = (
            "import sys; from mixquad.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("stage, loaded", [
        ("basis", []),
        ("quadrature", []),
        ("surrogate", ["mixquad.collocation"]),
        ("stats", ["mixquad.collocation"]),
        ("sample", []),
    ])
    def test_each_stage_loads_collocation_and_subprocess_only_if_it_uses_them(
            self, gm4_p1, tmp_path, stage, loaded):
        # the model adapters load collocation, and only --model-cmd spawns a process
        for name in ("basis_2p.json", "rule.json", "basis_p.json", "surrogate.json"):
            (tmp_path / name).write_bytes((gm4_p1 / name).read_bytes())
        extra = {"surrogate": ["--model", "builtin:filter4"], "sample": ["--n", "10"]}
        argv = [stage, "--config", "builtin:gm4", "--order", "1", "--out", str(tmp_path),
                *extra.get(stage, [])]
        code = (
            "import sys; from mixquad.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(sorted({'mixquad.collocation', 'subprocess'} & set(sys.modules)))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repr(loaded)


    @pytest.mark.parametrize("stage", ["basis", "quadrature"])
    def test_solver_stages_load_no_scipy_package(self, tmp_path, stage):
        # the scipy modules they load are the compiled LAPACK and NNLS modules,
        # which mixquad._lapack loads from their files
        from mixquad import _lapack

        if _lapack._nnls_extension() is None:
            pytest.skip("this scipy build has no NNLS extension")
        argv = [stage, "--config", "builtin:gm4", "--order", "1", "--out", str(tmp_path)]
        code = (
            "import sys; from mixquad.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "assert not {'scipy', 'scipy.linalg', 'scipy.optimize'} & set(sys.modules)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repr(["scipy.linalg._flapack", "scipy.optimize._slsqplib"])


@pytest.fixture(scope="module")
def shifted_gm4(tmp_path_factory):
    """gm4 with every mean moved by +1, and its config file: same dim, other moments."""
    gm = mq.benchmarks.builtin_mixture("gm4")
    shifted = mq.GaussianMixture(gm.mix_weights, np.asarray(gm.means) + 1.0, gm.covariances)
    path = tmp_path_factory.mktemp("shifted") / "shifted.json"
    path.write_text(mq.mixture_to_json(shifted))
    return shifted, path


# stage, the document it reads, the stage that writes that document
STAMPED_READS = [("surrogate", "rule.json", "quadrature"), ("stats", "surrogate.json", "surrogate")]


class TestMixtureDigest:
    @pytest.mark.parametrize("stage, name, writer", STAMPED_READS)
    def test_document_of_another_mixture_is_rejected(self, gm4_p1, shifted_gm4, tmp_path,
                                                     capsys, stage, name, writer):
        # without basis files in --out, only the digest can tell the mixtures apart
        (tmp_path / name).write_bytes((gm4_p1 / name).read_bytes())
        shifted, config = shifted_gm4
        extra = ["--model", "builtin:filter4"] if stage == "surrogate" else []
        code = main([stage, "--config", str(config), "--order", "1", "--out", str(tmp_path),
                     *extra])
        err = capsys.readouterr().err
        assert code == 1
        gm4 = mixture_sha256(mq.benchmarks.builtin_mixture("gm4"))
        assert err == (f"error: {tmp_path / name} was written for another mixture "
                       f"(mixture_sha256 {gm4}, this run's mixture has "
                       f"{mixture_sha256(shifted)}); rerun `mixquad {writer}`\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]

    @pytest.mark.parametrize("stage, name, writer", STAMPED_READS)
    def test_document_without_mixture_digest_is_rejected(self, gm4_p1, tmp_path, capsys, stage,
                                                         name, writer):
        text = (gm4_p1 / name).read_text()
        write, read = {"rule.json": (mq.rule_to_json, mq.rule_from_json),
                       "surrogate.json": (mq.surrogate_to_json, mq.surrogate_from_json)}[name]
        unstamped = write(read(text))
        assert stamped(unstamped, mq.benchmarks.builtin_mixture("gm4")) == text
        (tmp_path / name).write_text(unstamped)
        extra = ["--model", "builtin:filter4"] if stage == "surrogate" else []
        code = main([stage, "--config", "builtin:gm4", "--order", "1", "--out", str(tmp_path),
                     *extra])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"error: {tmp_path / name} has no mixture_sha256; "
                       f"rerun `mixquad {writer}` for this mixture\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]

    @pytest.mark.parametrize("stage, reads", [
        ("quadrature", {"basis_2p.json": 1}),
        ("surrogate", {"rule.json": 1, "basis_p.json": 1}),
        ("stats", {"surrogate.json": 1}),
    ])
    def test_each_document_is_read_once(self, gm4_p1, tmp_path, monkeypatch, stage, reads):
        # the digest is checked in the text the reader parsed, not in a second read
        for name in ("basis_2p.json", "basis_p.json", "rule.json", "surrogate.json"):
            (tmp_path / name).write_bytes((gm4_p1 / name).read_bytes())
        counts, read_text = collections.Counter(), Path.read_text

        def counting_read_text(path, *args, **kwargs):
            counts[path.name] += 1
            return read_text(path, *args, **kwargs)
        monkeypatch.setattr(Path, "read_text", counting_read_text)
        extra = ["--model", "builtin:filter4"] if stage == "surrogate" else []
        assert main([stage, "--config", "builtin:gm4", "--order", "1", "--out", str(tmp_path),
                     *extra]) == 0
        assert counts == reads


class TestStatsCommand:
    def test_stats_match_the_stored_surrogate(self, cfg2, pipeline_out):
        res = run_cli("stats", "--config", cfg2, "--out", pipeline_out)
        assert res.returncode == 0, res.stderr
        surr = mq.surrogate_from_json((pipeline_out / "surrogate.json").read_text())
        mean, variance, std = mq.statistics(surr)
        obj = json.loads((pipeline_out / "stats.json").read_text())
        assert list(obj.keys()) == ["mean", "variance", "std"]
        assert obj["mean"] == mean
        assert obj["variance"] == variance
        assert obj["std"] == std

    def test_density_table_is_normalized(self, cfg2, pipeline_out):
        res = run_cli("stats", "--config", cfg2, "--out", pipeline_out, "--bins", 40)
        assert res.returncode == 0, res.stderr
        lines = (pipeline_out / "density.csv").read_text().splitlines()
        assert lines[0] == "kind,x,width,density"
        hist = [l.split(",") for l in lines[1:] if l.startswith("hist,")]
        kde = [l.split(",") for l in lines[1:] if l.startswith("kde,")]
        assert len(hist) == 40 and len(kde) == 512
        mass = sum(float(w) * float(y) for _, _, w, y in hist)
        assert abs(mass - 1.0) <= 1e-6
        assert all(w == "0.0" for _, _, w, _ in kde)

    def test_rerun_is_byte_identical(self, cfg2, pipeline_out):
        blobs = []
        for _ in range(2):
            res = run_cli("stats", "--config", cfg2, "--out", pipeline_out, "--seed", 5)
            assert res.returncode == 0, res.stderr
            blobs.append(
                tuple((pipeline_out / n).read_bytes() for n in ("stats.json", "density.csv"))
            )
        assert blobs[0] == blobs[1]

    def test_missing_surrogate_reported(self, cfg2, tmp_path):
        res = run_cli("stats", "--config", cfg2, "--out", tmp_path)
        assert res.returncode == 1 and "surrogate.json" in res.stderr

    def test_surrogate_of_another_dimension_is_rejected(self, gm4_p1, tmp_path):
        (tmp_path / "surrogate.json").write_bytes((gm4_p1 / "surrogate.json").read_bytes())
        res = run_cli("stats", "--config", "builtin:gm6", "--out", tmp_path)
        assert res.returncode == 1
        path = tmp_path / "surrogate.json"
        gm4, gm6 = (mixture_sha256(mq.benchmarks.builtin_mixture(n)) for n in ("gm4", "gm6"))
        assert res.stderr == (f"error: {path} was written for another mixture (mixture_sha256 "
                              f"{gm4}, this run's mixture has {gm6}); rerun `mixquad surrogate`\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["surrogate.json"]

    def test_surrogate_meta_of_another_type_is_rejected_by_name(self, gm4_p1, tmp_path, capsys):
        obj = json.loads((gm4_p1 / "surrogate.json").read_text())
        obj["meta"]["sample_count"] = "x"
        path = tmp_path / "surrogate.json"
        path.write_text(json.dumps(obj))
        code = main(["stats", "--config", "builtin:gm4", "--order", "1", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: sample_count must be of type int, got 'x'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["surrogate.json"]

    def test_failed_run_writes_no_artifact(self, cfg2, pipeline_out, tmp_path, monkeypatch,
                                           capsys):
        # the density fails after the statistics are computed: stats.json is not written either
        (tmp_path / "surrogate.json").write_bytes((pipeline_out / "surrogate.json").read_bytes())

        def failing_density(*args, **kwargs):
            raise ValueError("density failed")

        monkeypatch.setattr("mixquad.collocation.density_estimate", failing_density)
        code = main(["stats", "--config", str(cfg2), "--out", str(tmp_path)])
        assert code == 1 and "density failed" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["surrogate.json"]


class TestSampleCommand:
    def test_zero_draws_writes_header_only(self, cfg2, tmp_path):
        res = run_cli("sample", "--config", cfg2, "--out", tmp_path, "--n", 0)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "samples.csv").read_text() == "xi_0,xi_1\n"

    def test_draws_match_the_library_sampler(self, cfg2, tmp_path):
        res = run_cli("sample", "--config", cfg2, "--out", tmp_path, "--n", 5, "--seed", 3)
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert lines[0] == "xi_0,xi_1"
        got = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
        assert np.array_equal(got, mq.sample(corr2d(), 5, seed=3))

    def test_negative_count_names_the_flag(self, tmp_path):
        # a usage error, before the config is read or samples.csv written
        res = run_cli("sample", "--config", tmp_path / "missing.json", "--out", tmp_path,
                      "--n", -3)
        assert res.returncode == 2
        assert "argument --n: must be an integer >= 0, got '-3'" in res.stderr
        assert not any(tmp_path.iterdir())


def console_script():
    """The command that runs pyproject.toml's `mixquad` console script, as its wrapper does."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, function = re.search(r'^mixquad = "([\w.]+):(\w+)"$', text, re.M).groups()
    return [sys.executable, "-c",
            f"import sys; from {module} import {function}; sys.exit({function}())"]


class TestEntryPoints:
    @pytest.mark.parametrize("entry", [[sys.executable, "-m", "mixquad"], console_script()],
                             ids=["python-m", "console-script"])
    @pytest.mark.parametrize("args, code, start", [
        (["--config", "missing.json", "--n", "1"], 1, "error: "),
        (["--config", "builtin:gm4", "--n", "-1"], 2, "usage: "),
    ], ids=["error", "usage-error"])
    def test_exit_code_is_mains(self, tmp_path, monkeypatch, capsys, entry, args, code, start):
        monkeypatch.chdir(tmp_path)
        argv = ["sample", *args]
        with pytest.raises(SystemExit) if code == 2 else contextlib.nullcontext():
            assert main(argv) == code
        assert capsys.readouterr().err.startswith(start)
        proc = subprocess.run([*entry, *argv], capture_output=True, text=True)
        assert proc.returncode == code
        assert proc.stderr.startswith(start)
        assert not any(tmp_path.iterdir())

    def test_main_leaves_the_collector_unfrozen(self, tmp_path):
        before = gc.get_freeze_count()
        assert main(["sample", "--config", "builtin:gm4", "--out", str(tmp_path), "--n", "3"]) == 0
        assert gc.get_freeze_count() == before

    def test_entry_point_freezes_the_collector_then_exits_with_mains_code(self, monkeypatch):
        from mixquad import __main__ as entry

        monkeypatch.setattr(entry, "main", lambda: 1)
        before = gc.get_freeze_count()
        try:
            with pytest.raises(SystemExit) as info:
                entry.run()
            assert info.value.code == 1
            assert gc.get_freeze_count() > before
        finally:
            gc.unfreeze()


class TestParser:
    def test_unknown_command_is_a_usage_error(self):
        assert run_cli("frobnicate", "--config", "x").returncode == 2

    def test_no_arguments_is_a_usage_error(self):
        assert run_cli().returncode == 2

    def test_negative_order_names_the_flag(self, cfg1, tmp_path):
        res = run_cli("basis", "--config", cfg1, "--out", tmp_path, "--order", -1)
        assert res.returncode == 2
        assert "argument --order: must be an integer >= 0, got '-1'" in res.stderr

    @pytest.mark.parametrize("flag, value, low", [
        ("--bins", "0", 1),
        ("--bins", "-4", 1),
        ("--n-samples", str(MIN_DENSITY_SAMPLES - 1), MIN_DENSITY_SAMPLES),
    ])
    def test_stats_count_below_its_bound_names_the_flag(self, tmp_path, capsys, flag, value,
                                                        low):
        # a usage error, before the config or surrogate.json is read or anything written
        with pytest.raises(SystemExit) as info:
            main(["stats", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path),
                  flag, value])
        assert info.value.code == 2
        assert f"argument {flag}: must be an integer >= {low}, got '{value}'" in (
            capsys.readouterr().err)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("stage", ["quadrature", "stats"])
    def test_negative_seed_names_the_flag(self, cfg2, tmp_path, stage):
        res = run_cli(stage, "--config", cfg2, "--out", tmp_path, "--seed", -3)
        assert res.returncode == 2
        assert "argument --seed: must be an integer >= 0, got '-3'" in res.stderr
        assert not any(tmp_path.iterdir())
