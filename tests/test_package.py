"""Package surface: what `import mixquad` loads and the names it re-exports."""

import dataclasses
import os
import subprocess
import sys

import pytest

import mixquad as mq
from mixquad import basis, collocation, distribution, quadrature, rules


def test_solver_loads_on_first_use_of_its_names():
    src = os.path.dirname(os.path.dirname(mq.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, mixquad as mq\n"
        "before = 'mixquad.quadrature' in sys.modules\n"
        "mq.adaptive_rule\n"
        "print(before, 'mixquad.quadrature' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True)
    assert proc.stdout.strip() == "False True"


def test_collocation_loads_on_first_use_of_its_names():
    code = (
        "import sys, mixquad as mq\n"
        "before = {'mixquad.collocation', 'subprocess'} & set(sys.modules)\n"
        "mq.project\n"
        "print(sorted(before), sorted({'mixquad.collocation', 'subprocess'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[] ['mixquad.collocation']"


def _skip_without_nnls_extension():
    from mixquad import _lapack

    if _lapack._nnls_extension() is None:
        pytest.skip("this scipy build has no NNLS extension")


def test_solver_module_imports_no_scipy_package():
    # the scipy modules it loads are the compiled LAPACK and NNLS modules,
    # which mixquad._lapack loads from their files
    _skip_without_nnls_extension()
    code = ("import sys, mixquad.quadrature\n"
            "assert not {'scipy', 'scipy.linalg', 'scipy.optimize'} & set(sys.modules)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == repr(["scipy.linalg._flapack", "scipy.optimize._slsqplib"])


def test_a_later_scipy_import_reuses_the_compiled_modules():
    # so no extension file is loaded twice
    _skip_without_nnls_extension()
    code = (
        "import sys, numpy as np, mixquad.quadrature\n"
        "from mixquad import _lapack\n"
        "import scipy.linalg.lapack, scipy.optimize\n"
        "ext, calls = sys.modules['scipy.optimize._slsqplib'], []\n"
        "real = ext.nnls\n"
        "ext.nnls = lambda *args: calls.append(args) or real(*args)\n"
        "_lapack.nnls(np.eye(2), np.ones(2))\n"
        "print(scipy.linalg.lapack.dpotrf is _lapack._flapack.dpotrf, len(calls))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "True 1"


def test_every_public_name_is_the_object_of_its_defining_module():
    names = [n for n in mq.__all__ if n != "__version__"]
    assert len(names) == len(set(names))
    for name in names:
        homes = [m for m in (distribution, basis, rules, quadrature, collocation)
                 if name in m.__all__]
        assert len(homes) == 1, name
        assert getattr(mq, name) is getattr(homes[0], name), name


def test_lazily_loaded_names_are_the_solver_modules_all():
    assert list(mq._LAZY) == ["quadrature", "collocation"]
    assert quadrature.__all__ == list(mq._LAZY["quadrature"])
    assert collocation.__all__ == list(mq._LAZY["collocation"])


def test_public_surface_is_pinned():
    # an export is added or removed only together with this list
    assert sorted(mq.__all__) == [
        "AdapterError", "DegenerateBasisError", "DensityEstimate", "GaussianMixture",
        "IncreasePhaseError", "ModelAdapter", "MomentOverflowError", "MomentTable", "MultiIndex",
        "OrthoBasis", "QuadratureRule", "SolverConfig", "Surrogate", "__version__", "adaptive_rule",
        "assemble_phi", "basis_from_json", "basis_to_json", "bcd_solve", "density_estimate",
        "enumerate_indices", "eval_basis_batch", "evaluate_batch", "evaluate_model",
        "gauss_newton_step", "gram_schmidt", "mixture_from_json", "mixture_to_json",
        "nodes_to_csv", "project", "project_columns", "raw_moments", "residual", "rule_from_json",
        "rule_to_json", "sample", "solve_weights", "stacked_jacobian", "statistics",
        "surrogate_from_json", "surrogate_to_json",
    ]


def test_solver_config_holds_only_the_callers_choices():
    # the budgets and the cloud size are constants of mixquad.quadrature
    assert [f.name for f in dataclasses.fields(mq.SolverConfig)] == ["residual_tol", "seed"]
