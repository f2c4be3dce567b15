"""Weight solve, node moves, block coordinate descent, and node-count adaptation."""

import importlib.machinery
import subprocess
import sys
from dataclasses import replace
from math import ceil, comb
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from numpy.testing import assert_allclose
from scipy.cluster.hierarchy import cut_tree, linkage
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.optimize import nnls
from scipy.spatial.distance import pdist, squareform

import mixquad as mq
from mixquad import _lapack, quadrature
from mixquad.basis import _jacobian, _monomials
from mixquad.benchmarks import builtin_mixture, gm4
from mixquad.quadrature import (
    GN_DAMPING,
    LINE_SEARCH_SHRINK,
    STALL_LIMIT,
    _centroids,
    _complete_linkage,
    _cut_labels,
    _damped_step,
    _distances,
)
from mixquad.rules import rule_to_json


def gauss1d():
    return mq.GaussianMixture([1.0], [[0.0]], [[[1.0]]])


def two_lobes_1d():
    return mq.GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[[1.0]], [[1.0]]])


def gauss2d():
    return mq.GaussianMixture([1.0], [np.zeros(2)], [np.eye(2)])


def corr2d():
    return mq.GaussianMixture(
        [0.5, 0.5],
        [[-0.5, 0.3], [0.4, -0.4]],
        [
            [[1.0, 0.24], [0.24, 0.64]],
            [[0.49, -0.28], [-0.28, 1.0]],
        ],
    )


def random_mixture(d, seed):
    """A seeded mixture of 1 to 3 correlated Gaussian components in d dimensions."""
    rng = np.random.default_rng(seed)
    K = int(rng.integers(1, 4))
    means = rng.normal(0.0, 0.7, (K, d))
    A = rng.normal(0.0, 1.0, (K, d, d)) / np.sqrt(d)
    covs = 0.5 * A @ A.transpose(0, 2, 1) + 0.3 * np.eye(d)
    return mq.GaussianMixture(rng.dirichlet(2.0 * np.ones(K)), means, covs)


def basis_for(gm, order):
    return mq.gram_schmidt(mq.raw_moments(gm, 2 * order), gm.dim, order)


def clustered_start(gm, M, seed, count=None):
    """M start nodes cut from a seeded cloud of count samples (10 M by default).

    adaptive_rule's starts, from a cloud of the given size.
    """
    X = mq.sample(gm, 10 * M if count is None else count, seed)
    return _centroids(X, _complete_linkage(X), M)


def product_tensor(gm, basis):
    """T[a, b, c] = E[Psi_a Psi_b Psi_c] for a, b < N_k (k = order // 2) and every c."""
    E = basis.exponent_matrix()
    k = basis.order // 2
    Nk = comb(gm.dim + k, gm.dim)
    mom = mq.raw_moments(gm, 2 * k + basis.order)
    S = E[:Nk, None, None] + E[None, :Nk, None] + E[None, None, :]
    m = np.array([mom[g] for g in S.reshape(-1, gm.dim).tolist()]).reshape(S.shape[:3])
    C = basis.coeff_matrix
    return np.einsum("ai,bj,cl,ijl->abc", C[:Nk, :Nk], C[:Nk, :Nk], C, m, optimize=True)


@pytest.fixture(scope="module")
def hermite2():
    """1d orthonormal basis through order 2."""
    return basis_for(gauss1d(), 2)


@pytest.fixture(scope="module")
def corr2d_rule():
    gm = corr2d()
    basis = basis_for(gm, 4)
    accepted = []
    rule = mq.adaptive_rule(basis, gm, mq.SolverConfig(seed=0), on_accept=accepted.append)
    return gm, basis, rule, accepted


class TestAssemblePhi:
    def test_first_row_is_all_ones(self, hermite2):
        rng = np.random.default_rng(0)
        phi = mq.assemble_phi(hermite2, rng.normal(size=(9, 1)))
        assert np.all(phi[0] == 1.0)

    def test_matches_pointwise_evaluation(self, hermite2):
        nodes = np.array([[-1.3], [0.2], [0.9]])
        phi = mq.assemble_phi(hermite2, nodes)
        assert phi.shape == (3, 3)
        for k, x in enumerate(nodes):
            assert_allclose(phi[:, k], mq.eval_basis_batch(hermite2, [x])[0], rtol=1e-13)


class TestResidual:
    def test_zero_weights_leave_minus_unit_vector(self, hermite2):
        phi = mq.assemble_phi(hermite2, np.array([[0.5], [-0.5]]))
        r, nrm = mq.residual(phi, np.zeros(2))
        assert_allclose(r, [-1.0, 0.0, 0.0], atol=0)
        assert nrm == 1.0

    def test_symmetric_pair_is_exact(self, hermite2):
        phi = mq.assemble_phi(hermite2, np.array([[-1.0], [1.0]]))
        r, nrm = mq.residual(phi, np.array([0.5, 0.5]))
        assert nrm <= 1e-12

    def test_first_entry_is_weight_sum_minus_one(self, hermite2):
        rng = np.random.default_rng(1)
        phi = mq.assemble_phi(hermite2, rng.normal(size=(4, 1)))
        w = rng.uniform(size=4)
        r, _ = mq.residual(phi, w)
        assert_allclose(r[0], w.sum() - 1.0, rtol=1e-12)


class TestSolveWeights:
    def test_trivial_single_node(self):
        w, ok = mq.solve_weights(np.array([[1.0]]))
        assert ok
        assert_allclose(w, [1.0], rtol=1e-12)

    def test_symmetric_nodes_get_half_weights(self, hermite2):
        phi = mq.assemble_phi(hermite2, np.array([[-1.0], [1.0]]))
        w, ok = mq.solve_weights(phi)
        assert ok
        assert_allclose(w, [0.5, 0.5], atol=1e-12)

    def test_matches_reference_nnls_on_random_problems(self):
        rng = np.random.default_rng(8)
        e1 = np.zeros(12)
        e1[0] = 1.0
        for _ in range(30):
            phi = rng.normal(size=(12, 20))
            phi[0] = 1.0
            w, ok = mq.solve_weights(phi)
            assert ok
            assert np.all(w >= 0.0)
            w_ref = nnls(phi, e1)[0]
            obj = np.linalg.norm(phi @ w - e1)
            obj_ref = np.linalg.norm(phi @ w_ref - e1)
            assert obj <= obj_ref + 1e-9

    def test_kkt_conditions_hold(self):
        rng = np.random.default_rng(9)
        phis = []
        for _ in range(30):
            phi = rng.normal(size=(10, 16))
            phi[0] = 1.0
            phis.append(phi)
        # exactness matrices of the solver: the gm4 order-4 basis at
        # clustered starts below, near and above N = 70 nodes
        gm = gm4()
        basis = basis_for(gm, 4)
        for M in (15, 70, 140):
            phis.append(mq.assemble_phi(basis, clustered_start(gm, M, seed=0)))
        for phi in phis:
            e1 = np.zeros(phi.shape[0])
            e1[0] = 1.0
            w, ok = mq.solve_weights(phi)
            assert ok
            grad = 2.0 * phi.T @ (phi @ w - e1)
            scale = np.abs(phi.T @ e1).max()
            active = w == 0.0
            assert np.all(grad[active] >= -1e-10)
            assert np.all(np.abs(grad[~active]) <= 1e-10 * scale)

    def test_budget_exhaustion_reports_nonconvergence(self, monkeypatch):
        def exhausted(A, b):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr("mixquad._lapack.nnls", exhausted)
        rng = np.random.default_rng(10)
        phi = rng.normal(size=(8, 12))
        phi[0] = 1.0
        w, ok = mq.solve_weights(phi)
        assert not ok
        assert np.all(w == 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, nnls_route, bad):
        phi = np.ones((3, 4))
        phi[1, 2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            mq.solve_weights(phi)


def test_stacked_jacobian_is_the_weighted_per_node_jacobians():
    # column k * dim + i is w_k times dPsi/dxi_i at node k, bit for bit
    for gm, order, M in [(corr2d(), 4, 9), (gm4(), 4, 21), (builtin_mixture("gm6"), 2, 35)]:
        basis = basis_for(gm, order)
        nodes = clustered_start(gm, M, seed=4)
        w = np.random.default_rng(M).random(M)
        jall = _jacobian(basis, _monomials(basis, nodes))
        expect = np.concatenate([w[k] * jall[:, :, k] for k in range(M)], axis=1)
        assert np.array_equal(mq.stacked_jacobian(basis, nodes, w), expect)


# an order-2 basis in d = 2, a residual on it, and two node sets whose second
# node is not finite, for the calls below
DEGENERATE_SETUP = (
    "import numpy as np, mixquad as mq\n"
    "from mixquad import quadrature\n"
    "gm = mq.GaussianMixture([1.0], [[0.0, 0.0]], [np.eye(2)])\n"
    "basis = mq.gram_schmidt(mq.raw_moments(gm, 4), 2, 2)\n"
    "r = np.ones(basis.size)\n"
    "nan_nodes, inf_nodes = (np.array([[0.0, 0.0], [bad, 1.0]]) for bad in (np.nan, np.inf))\n"
)


@pytest.mark.parametrize("call, message", [
    ("mq.solve_weights(np.empty((6, 0)))", "phi must be a nonempty matrix, got shape (6, 0)"),
    ("mq.solve_weights(np.empty((0, 3)))", "phi must be a nonempty matrix, got shape (0, 3)"),
    ("mq.solve_weights(np.ones(3))", "phi must be a nonempty matrix, got shape (3,)"),
    ("mq.bcd_solve(basis, np.empty((0, 2)), mq.SolverConfig())",
     "bcd_solve needs at least one node, got shape (0, 2)"),
    ("quadrature.gauss_newton_step(basis, np.empty((0, 2)), np.empty(0), r, 1e-6)",
     "gauss_newton_step needs at least one node, got shape (0, 2)"),
    ("mq.QuadratureRule(np.empty((0, 2)), np.empty(0), 0.0, 2)",
     "QuadratureRule needs at least one node, got shape (0, 2)"),
    ("mq.bcd_solve(basis, nan_nodes, mq.SolverConfig())",
     "nodes must be finite; bcd_solve got nan at node 1"),
    ("mq.bcd_solve(basis, inf_nodes, mq.SolverConfig())",
     "nodes must be finite; bcd_solve got inf at node 1"),
    ("quadrature.gauss_newton_step(basis, nan_nodes, np.ones(2), r, 1e-6)",
     "nodes must be finite; gauss_newton_step got nan at node 1"),
    ("quadrature.gauss_newton_step(basis, inf_nodes, np.ones(2), r, 1e-6)",
     "nodes must be finite; gauss_newton_step got inf at node 1"),
    ("mq.QuadratureRule(nan_nodes, np.ones(2), 0.0, 2)",
     "nodes must be finite; QuadratureRule got nan at node 1"),
    ("mq.QuadratureRule(inf_nodes, np.ones(2), 0.0, 2)",
     "nodes must be finite; QuadratureRule got inf at node 1"),
], ids=["no-columns", "no-rows", "vector", "bcd_solve", "gauss_newton_step", "QuadratureRule",
        "bcd_solve-nan", "bcd_solve-inf", "gauss_newton_step-nan", "gauss_newton_step-inf",
        "QuadratureRule-nan", "QuadratureRule-inf"])
def test_degenerate_calls_fail_by_name_not_by_signal(call, message):
    # each in its own interpreter, since a compiled routine given an empty
    # matrix can abort the process
    proc = subprocess.run([sys.executable, "-c", DEGENERATE_SETUP + call],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.rstrip().endswith(f"ValueError: {message}")


class TestGaussNewtonStep:
    def test_zero_residual_leaves_nodes_unchanged(self, hermite2):
        nodes = np.array([[-1.0], [1.0]])
        w = np.array([0.5, 0.5])
        r = np.zeros(3)
        out, lam, improved, _ = mq.gauss_newton_step(hermite2, nodes, w, r, 1e-3)
        assert improved
        assert lam == GN_DAMPING
        assert np.array_equal(out, nodes)

    def test_zero_weight_node_is_pinned(self, hermite2):
        nodes = np.array([[-0.8], [1.2], [3.0]])
        w = np.array([0.55, 0.45, 0.0])
        phi = mq.assemble_phi(hermite2, nodes)
        r, _ = mq.residual(phi, w)
        out, _, _, _ = mq.gauss_newton_step(hermite2, nodes, w, r, GN_DAMPING)
        assert abs(out[2, 0] - 3.0) <= 1e-12

    def test_iteration_drives_residual_to_stationary_point(self, hermite2):
        # alternating with exact weight solves from (-0.9, 1.1)
        nodes = np.array([[-0.9], [1.1]])
        lam = GN_DAMPING
        for _ in range(60):
            phi = mq.assemble_phi(hermite2, nodes)
            w, _ = mq.solve_weights(phi)
            r, nrm = mq.residual(phi, w)
            nodes, lam, _, _ = mq.gauss_newton_step(hermite2, nodes, w, r, lam)
        phi = mq.assemble_phi(hermite2, nodes)
        w, _ = mq.solve_weights(phi)
        _, nrm = mq.residual(phi, w)
        assert nrm < 1e-10
        assert np.all(np.abs(nodes) < 2.0)

    def test_failed_line_search_keeps_nodes_and_raises_damping(self, hermite2, monkeypatch):
        monkeypatch.setattr("mixquad.quadrature.MAX_GN_BACKTRACKS", 0)
        nodes = np.array([[-0.9], [1.1]])
        phi = mq.assemble_phi(hermite2, nodes)
        w, _ = mq.solve_weights(phi)
        r, _ = mq.residual(phi, w)
        out, lam, improved, _ = mq.gauss_newton_step(hermite2, nodes, w, r, 1e-6)
        assert not improved
        assert np.array_equal(out, nodes)
        assert lam == pytest.approx(1e-5)

    def test_failed_factorization_keeps_nodes_and_raises_damping(self, hermite2, monkeypatch):
        def not_positive_definite(a, **kwargs):
            return a, 1  # LAPACK info > 0: leading minor 1 not positive definite

        monkeypatch.setattr("mixquad._lapack.dpotrf", not_positive_definite)
        nodes = np.array([[-0.9], [1.1]])
        phi = mq.assemble_phi(hermite2, nodes)
        w, _ = mq.solve_weights(phi)
        r, _ = mq.residual(phi, w)
        out, lam, improved, _ = mq.gauss_newton_step(hermite2, nodes, w, r, 1e-6)
        assert not improved
        assert np.array_equal(out, nodes)
        assert lam == pytest.approx(1e-5)

    @pytest.mark.parametrize("backtracks", [20, 0])
    def test_returned_state_is_the_evaluation_of_the_returned_nodes(self, hermite2, backtracks,
                                                                    monkeypatch):
        # accepted move (20 backtracks) and failed one (0): the pair handed
        # back is the monomial table and Phi of the nodes handed back
        nodes = np.array([[-0.9], [1.1]])
        phi = mq.assemble_phi(hermite2, nodes)
        w, _ = mq.solve_weights(phi)
        r, _ = mq.residual(phi, w)
        monkeypatch.setattr("mixquad.quadrature.MAX_GN_BACKTRACKS", backtracks)
        out, _, improved, (mono, phi_out) = mq.gauss_newton_step(
            hermite2, nodes, w, r, GN_DAMPING
        )
        assert improved == (backtracks > 0)
        assert np.array_equal(phi_out, mq.assemble_phi(hermite2, out))
        assert np.array_equal(mono, out.T ** np.arange(3)[:, None])

    @pytest.mark.parametrize("N, n", [(12, 5), (12, 12), (5, 12)])
    def test_damped_step_matches_stacked_least_squares(self, N, n):
        # both sides of the smaller-dimension switch: n <= N and n > N
        rng = np.random.default_rng(N + n)
        for lam in (GN_DAMPING, 1e-2, 1.0):
            J = rng.normal(size=(N, n))
            r = rng.normal(size=N)
            A = np.vstack([J, np.sqrt(lam) * np.eye(n)])
            ref = np.linalg.lstsq(A, np.concatenate([-r, np.zeros(n)]), rcond=None)[0]
            assert_allclose(_damped_step(J, r, lam), ref, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("N, n", [(12, 5), (12, 12), (5, 12), (210, 105), (70, 144)])
    def test_damped_step_is_the_cho_solve_step_bit_for_bit(self, N, n):
        # the step scipy's cho_factor / cho_solve give on a copy of the matrix
        rng = np.random.default_rng(N * n)
        for lam in (GN_DAMPING, 1e-2, 1.0):
            J = rng.normal(size=(N, n))
            r = rng.normal(size=N)
            A, rhs = (J.T @ J, J.T @ r) if n <= N else (J @ J.T, r)
            A[np.diag_indices_from(A)] += lam
            y = cho_solve(cho_factor(A, check_finite=False), rhs, check_finite=False)
            ref = -y if n <= N else -(J.T @ y)
            assert np.array_equal(_damped_step(J, r, lam), ref)


# gm4 at p=1 and corr2d at p=2: the basis and the whole solver in well under 2 s
ROUTE_CASES = [(gm4(), 2), (corr2d(), 4)]


def route_rule(gm, order):
    """rule_to_json of the seed-0 rule of a case, on the routines _lapack holds now."""
    return rule_to_json(mq.adaptive_rule(basis_for(gm, order), gm, mq.SolverConfig(seed=0)))


@pytest.fixture(scope="module")
def import_route_rules():
    """The ROUTE_CASES rules on the routines _lapack binds at import, made
    before a test replaces them."""
    return [route_rule(gm, order) for gm, order in ROUTE_CASES]


class TestLapackRoutes:
    """The routines of mixquad._lapack against scipy's public functions, NNLS on both routes."""

    @pytest.mark.parametrize("N, n", [(12, 5), (5, 12), (210, 105), (70, 144), (210, 210)])
    def test_upper_cholesky_and_solve_are_scipys(self, N, n):
        rng = np.random.default_rng(N + 7 * n)
        for lam in (GN_DAMPING, 1e-2, 1.0):
            J = rng.normal(size=(N, n))
            r = rng.normal(size=N)
            A, rhs = (J.T @ J, J.T @ r) if n <= N else (J @ J.T, r)
            A[np.diag_indices_from(A)] += lam
            ref = cho_solve(cho_factor(A, check_finite=False), rhs, check_finite=False)
            kept = rhs.copy()
            U, info = _lapack.dpotrf(A.copy().T, lower=False)
            y, _ = _lapack.dpotrs(U, rhs, lower=False)
            assert info == 0
            assert np.array_equal(y, ref)
            assert np.array_equal(rhs, kept)
            # the solver's step, whose n > N solve must not overwrite r
            r_kept = r.copy()
            step = _damped_step(J, r, lam)
            assert np.array_equal(step, -ref if n <= N else -(J.T @ ref))
            assert np.array_equal(r, r_kept)

    def test_factorization_failure_reports_the_minor(self):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert _lapack.dpotrf(A.T, lower=False)[1] == 2
        with pytest.raises(LinAlgError, match="leading minor 1 "):
            _damped_step(np.eye(2), np.ones(2), -3.0)

    def test_nnls_is_scipys(self, nnls_route):
        rng = np.random.default_rng(13)
        problems = []
        for m, n in [(12, 20), (20, 12), (1, 5), (30, 30)]:
            for _ in range(10):
                problems.append((rng.normal(size=(m, n)), rng.normal(size=m)))
        # the solver's problems: the gm4 order-4 basis at clustered starts
        gm = gm4()
        basis = basis_for(gm, 4)
        for M in (15, 70, 140):
            phi = mq.assemble_phi(basis, clustered_start(gm, M, seed=1))
            problems.append((phi, np.eye(len(phi))[0]))
        for A, b in problems:
            x_ref, rnorm_ref = nnls(A, b)
            x, rnorm = nnls_route(A, b)
            assert np.array_equal(x, x_ref)
            assert rnorm == rnorm_ref
            if b[0] == 1.0 and not b[1:].any():
                assert np.array_equal(mq.solve_weights(A)[0], x_ref)

    def test_nnls_checks_its_arguments(self, nnls_route):
        with pytest.raises(ValueError, match="infs or NaNs"):
            nnls_route(np.ones((3, 2)), np.array([1.0, np.nan, 1.0]))

    def test_rules_are_those_of_the_routes_bound_at_import(self, nnls_route, import_route_rules):
        # so a scipy without the NNLS extension cannot change a rule silently
        assert [route_rule(gm, order) for gm, order in ROUTE_CASES] == import_route_rules

    def test_modules_found_by_no_file_are_imported_the_ordinary_way(self, monkeypatch,
                                                                     import_route_rules):
        imported = []

        def import_module(name, package=None):
            imported.append(name)
            return real_import_module(name, package)

        real_import_module = importlib.import_module
        with monkeypatch.context() as patch:
            patch.setattr(importlib, "import_module", import_module)
            # with no extension suffix, the file lookup of _compiled finds nothing
            patch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
            flapack, nnls_routine = _lapack._compiled("linalg._flapack"), _lapack._nnls()
        assert imported == ["scipy.linalg._flapack", "scipy.optimize._slsqplib"]
        monkeypatch.setattr(_lapack, "_flapack", flapack)
        monkeypatch.setattr(_lapack, "_route", nnls_routine)
        assert [route_rule(gm, order) for gm, order in ROUTE_CASES] == import_route_rules

    def test_direct_nnls_reports_its_iteration_limit(self, monkeypatch):
        calls = []

        def limited(A, b, maxiter):
            calls.append(maxiter)
            return np.ones(A.shape[1]), 0.0, 3

        monkeypatch.setattr(_lapack, "_nnls_extension", lambda: SimpleNamespace(nnls=limited))
        monkeypatch.setattr(_lapack, "_route", _lapack._nnls())
        w, ok = mq.solve_weights(np.ones((4, 7)))
        assert not ok
        assert np.array_equal(w, np.zeros(7))
        assert calls == [210]

    def test_public_nnls_gets_the_same_iteration_limit(self, monkeypatch):
        calls = []

        def public_nnls(A, b, *, maxiter=None):
            calls.append(maxiter)
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(_lapack, "_nnls_extension", lambda: None)
        monkeypatch.setattr("scipy.optimize.nnls", public_nnls)
        monkeypatch.setattr(_lapack, "_route", _lapack._nnls())
        assert mq.solve_weights(np.ones((4, 7)))[1] is False
        assert calls == [210]

    @staticmethod
    def _missing(name):
        raise ImportError(f"No module named 'scipy.{name}'")

    @pytest.mark.parametrize("extension", [
        pytest.param(_missing, id="missing"),
        pytest.param(lambda name: SimpleNamespace(nnls=lambda A, b: (np.ones(1), 0.0, 1)),
                     id="two-arguments"),
        pytest.param(lambda name: SimpleNamespace(nnls=lambda A, b, maxiter: (np.ones(1), 0.0)),
                     id="two-results"),
        pytest.param(lambda name: SimpleNamespace(nnls=lambda A, b, maxiter: (np.ones(1), 0.0, 0)),
                     id="other-info-code"),
    ])
    def test_nnls_extension_of_another_signature_is_not_used(self, monkeypatch, extension):
        # scipy >= 1.10 is allowed, and older builds name or call their NNLS otherwise
        monkeypatch.setattr(_lapack, "_compiled", extension)
        assert _lapack._nnls_extension() is None
        assert _lapack._nnls() is nnls

    def test_cholesky_factors_in_place_and_keeps_the_other_triangle(self):
        # the upper triangle is that of an SPD matrix, the lower one is junk
        A = np.asfortranarray([[4.0, 2.0, -2.0], [-9.0, 5.0, 1.0], [7.0, -8.0, 6.0]])
        below = A[np.tril_indices(3, -1)].copy()
        ref = cho_factor(np.triu(A) + np.triu(A, 1).T, check_finite=False)[0]
        U, info = _lapack.dpotrf(A, lower=False)
        assert info == 0
        assert np.shares_memory(U, A)
        assert np.array_equal(np.triu(A), np.triu(ref))
        assert np.array_equal(A[np.tril_indices(3, -1)], below)


def _reference_bcd(basis, start, cfg):
    """bcd_solve with every node set evaluated afresh, as the solver first ran.

    Phi is rebuilt by assemble_phi at the top of each outer iteration, and
    the node move builds the stacked Jacobian and each line-search Phi from
    the nodes, through the public functions.
    """
    nodes = np.atleast_2d(np.asarray(start, dtype=float))
    lam, stall, hist, converged = GN_DAMPING, 0, [], False
    for _ in range(quadrature.MAX_OUTER_ITERS):
        phi = mq.assemble_phi(basis, nodes)
        w, solved = mq.solve_weights(phi)
        r, nrm = mq.residual(phi, w)
        hist.append(nrm)
        if not solved:
            break
        if nrm <= cfg.residual_tol:
            converged = True
            break
        improved = False
        try:
            step = _damped_step(mq.stacked_jacobian(basis, nodes, w), r, lam)
        except LinAlgError:
            step = None
        s = 1.0
        for _ in range(quadrature.MAX_GN_BACKTRACKS if step is not None else 0):
            cand = nodes + s * step.reshape(nodes.shape)
            if mq.residual(mq.assemble_phi(basis, cand), w)[1] <= float(np.linalg.norm(r)):
                nodes, lam, improved = cand, GN_DAMPING, True
                break
            s *= LINE_SEARCH_SHRINK
        if not improved:
            lam *= 10.0
        stall = 0 if improved else stall + 1
        if stall >= STALL_LIMIT:
            break
    else:
        phi = mq.assemble_phi(basis, nodes)
        w, solved = mq.solve_weights(phi)
        _, nrm = mq.residual(phi, w)
        hist.append(nrm)
        converged = solved and nrm <= cfg.residual_tol
    return nodes, w, nrm, tuple(hist), converged


class TestBcdSolve:
    def test_optimal_start_converges_immediately(self, hermite2):
        cfg = mq.SolverConfig()
        rule = mq.bcd_solve(hermite2, np.array([[-1.0], [1.0]]), cfg)
        assert rule.converged
        assert len(rule.history) == 1
        assert np.array_equal(rule.nodes, [[-1.0], [1.0]])
        assert_allclose(rule.weights, [0.5, 0.5], atol=1e-12)

    def test_tensor_start_in_two_dims_is_exact(self):
        gm = gauss2d()
        basis = basis_for(gm, 2)
        start = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
        rule = mq.bcd_solve(basis, start, mq.SolverConfig())
        assert rule.converged and rule.residual_norm <= 1e-10
        # the rule then reproduces the exact second moments
        for f, expect in [
            (lambda x: x[:, 0] ** 2, 1.0),
            (lambda x: x[:, 1] ** 2, 1.0),
            (lambda x: x[:, 0] * x[:, 1], 0.0),
        ]:
            got = float(np.sum(rule.weights * f(rule.nodes)))
            assert abs(got - expect) <= 1e-9

    def test_history_is_monotone_non_increasing(self):
        gm = corr2d()
        basis = basis_for(gm, 2)
        cfg = mq.SolverConfig(seed=3)
        for M in (4, 6, 9):
            start = clustered_start(gm, M, seed=3)
            rule = mq.bcd_solve(basis, start, cfg)
            hist = np.array(rule.history)
            assert np.all(np.diff(hist) <= 1e-12)

    def test_deterministic_given_inputs(self):
        gm = corr2d()
        basis = basis_for(gm, 2)
        cfg = mq.SolverConfig(seed=5)
        start = clustered_start(gm, 6, seed=5)
        a = mq.bcd_solve(basis, start, cfg)
        b = mq.bcd_solve(basis, start, cfg)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.weights, b.weights)
        assert a.history == b.history

    def test_node_moves_go_through_the_public_gauss_newton_step(self, monkeypatch):
        # perfbench's tracer counts the node moves by patching this name
        calls, step = [], quadrature.gauss_newton_step

        def counting_step(*args, **kwargs):
            calls.append(None)
            return step(*args, **kwargs)

        monkeypatch.setattr("mixquad.quadrature.gauss_newton_step", counting_step)
        gm = corr2d()
        rule = mq.bcd_solve(basis_for(gm, 4), clustered_start(gm, 9, seed=3), mq.SolverConfig())
        assert rule.converged and len(rule.history) > 1
        assert len(calls) == len(rule.history) - 1

    def test_unreachable_tolerance_reports_nonconvergence(self, hermite2, monkeypatch):
        # one node cannot match E[x^2] = 1 at mean 0: the best residual is
        # 1 / sqrt(3), at the node 0 with weight 2 / 3
        monkeypatch.setattr("mixquad.quadrature.MAX_OUTER_ITERS", 40)
        rule = mq.bcd_solve(hermite2, np.array([[0.4]]), mq.SolverConfig())
        assert not rule.converged
        assert rule.residual_norm > 0.0
        assert rule.residual_norm >= 1.0 / np.sqrt(3.0) - 1e-12
        # the final weight refresh may add one entry past the outer budget
        assert len(rule.history) <= 40 + 1


    @pytest.mark.parametrize("limits", [{}, {"MAX_OUTER_ITERS": 5}, {"MAX_GN_BACKTRACKS": 0},
                                        {"MAX_OUTER_ITERS": 0}],
                             ids=["default", "budget", "stall", "zero-budget"])
    def test_carried_node_sets_give_the_rule_of_fresh_evaluation(self, monkeypatch, limits):
        # converged, budget-exhausted, stalled and zero-budget exits of
        # bcd_solve, bit for bit, with one weight solve per history entry
        for name, value in limits.items():
            monkeypatch.setattr(f"mixquad.quadrature.{name}", value)
        solves, solve = [], quadrature.solve_weights

        def counting_solve(phi):
            solves.append(None)
            return solve(phi)

        monkeypatch.setattr("mixquad.quadrature.solve_weights", counting_solve)
        corr = corr2d()
        cases = [(basis_for(corr, q), clustered_start(corr, M, seed=3))
                 for q in (2, 4) for M in (4, 6, 9)]
        g4 = gm4()
        cases.append((basis_for(g4, 4), clustered_start(g4, 21, seed=0, count=700)))
        cfg = mq.SolverConfig(seed=3)
        for basis, start in cases:
            solves.clear()
            rule = mq.bcd_solve(basis, start, cfg)
            assert len(solves) == len(rule.history)
            nodes, w, nrm, hist, converged = _reference_bcd(basis, start, cfg)
            assert np.array_equal(rule.nodes, nodes)
            assert np.array_equal(rule.weights, w)
            assert rule.history == hist
            assert rule.residual_norm == nrm and rule.converged == converged
            if limits == {"MAX_OUTER_ITERS": 0}:
                assert len(hist) == 1 and np.array_equal(nodes, start)

    def test_each_node_set_gets_one_monomial_table(self, monkeypatch):
        # one table for the start and one per line-search trial; no table
        # for the outer iterations' Phi or the Jacobians. Every trial forms
        # one residual, and so does every outer iteration.
        import mixquad.basis
        import mixquad.quadrature

        tables, residuals = [], []
        monomials, residual = mixquad.basis._monomials, mixquad.quadrature.residual

        def counting_monomials(basis, X):
            tables.append(X.copy())
            return monomials(basis, X)

        def counting_residual(phi, w):
            residuals.append(None)
            return residual(phi, w)

        monkeypatch.setattr("mixquad.basis._monomials", counting_monomials)
        monkeypatch.setattr("mixquad.quadrature._monomials", counting_monomials, raising=False)
        monkeypatch.setattr("mixquad.quadrature.residual", counting_residual)
        gm = corr2d()
        cfg = mq.SolverConfig(seed=3)
        rule = mq.bcd_solve(basis_for(gm, 2), clustered_start(gm, 4, seed=3), cfg)
        trials = len(residuals) - len(rule.history)
        assert trials > 0
        assert len(tables) == 1 + trials

    def test_unconverged_weight_solve_stops_the_solve(self, hermite2, monkeypatch):
        # all-zero weights make every node move a zero step that counts as an
        # improvement, so the stall exit would never fire
        def exhausted(A, b):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr("mixquad._lapack.nnls", exhausted)
        rule = mq.bcd_solve(hermite2, np.array([[-0.9], [1.1]]), mq.SolverConfig())
        assert not rule.converged
        assert len(rule.history) == 1
        assert np.all(rule.weights == 0.0)


class TestInitNodes:
    """Start nodes: centroids of a cut of the clustered candidate cloud."""

    def test_requesting_all_candidates_returns_the_samples(self):
        gm = corr2d()
        nodes = clustered_start(gm, 25, seed=11, count=25)
        assert np.array_equal(nodes, mq.sample(gm, 25, seed=11))

    def test_single_node_is_the_cloud_mean(self):
        gm = corr2d()
        nodes = clustered_start(gm, 1, seed=12, count=40)
        assert_allclose(nodes[0], mq.sample(gm, 40, seed=12).mean(axis=0), rtol=1e-12)

    def test_two_separated_lobes_yield_one_centroid_each(self):
        gm = mq.GaussianMixture(
            [0.5, 0.5],
            [[-10.0, 0.0], [10.0, 0.0]],
            [np.eye(2) * 0.25, np.eye(2) * 0.25],
        )
        nodes = clustered_start(gm, 2, seed=13)
        xs = np.sort(nodes[:, 0])
        assert abs(xs[0] + 10.0) < 1.0 and abs(xs[1] - 10.0) < 1.0

    def test_deterministic_given_seed(self):
        gm = corr2d()
        assert np.array_equal(clustered_start(gm, 7, seed=14), clustered_start(gm, 7, seed=14))

    @pytest.mark.parametrize("name", ["gm4", "gm6"])
    def test_matches_cut_tree_centroids_on_sampled_clouds(self, name):
        gm = builtin_mixture(name)
        for seed, M in [(0, 1), (0, 18), (1, 35), (2, 53), (3, 299)]:
            X = mq.sample(gm, 300, seed)
            labels = cut_tree(linkage(X, method="complete"), n_clusters=M).ravel()
            ref = np.array([X[labels == c].mean(axis=0) for c in range(M)])
            got = clustered_start(gm, M, seed=seed, count=300)
            assert np.array_equal(got, ref), (seed, M)

    def test_tied_lattice_cuts_into_m_nonempty_clusters(self):
        # tied merge heights: the merge list is scipy's row for row, so every
        # cut is that of scipy's merge list (cut_tree reorders tied merges
        # itself, and its cut can differ between two tied merges)
        axes = np.meshgrid(np.arange(5.0), np.arange(5.0), np.arange(3.0), indexing="ij")
        X = np.stack(axes, axis=-1).reshape(-1, 3)
        pairs = _complete_linkage(X)
        Z = linkage(X, method="complete")
        assert np.array_equal(merge_heights(X, pairs), Z[:, 2])
        for M in range(1, len(X) + 1):
            cut = _cut_labels(pairs, M)
            assert np.array_equal(cut, scipy_cut(Z, M)), M
            labels, first = np.unique(cut, return_index=True)
            assert np.array_equal(labels, np.arange(M))
            assert np.all(np.diff(first) > 0)


def merge_heights(X, pairs):
    """Height of each merge of a sorted merge list, recomputed from pdist.

    The largest pdist distance between the members of the two clusters it
    joins: the complete-linkage distance scipy reports in Z[:, 2].
    """
    D = squareform(pdist(X))
    members = {i: [i] for i in range(len(X))}
    heights = []
    for a, b in pairs.tolist():
        A, B = members.pop(a), members[b]
        heights.append(D[np.ix_(A, B)].max())
        B.extend(A)
    return np.array(heights)


def scipy_cut(Z, M):
    """Cluster of each sample after the first n - M rows of a scipy linkage Z.

    Row k of Z forms cluster n + k; clusters are numbered by their smallest
    member. The reference the slot-based _cut_labels is checked against.
    """
    n = len(Z) + 1
    up = np.arange(2 * n - M)
    up[Z[: n - M, :2].astype(int).ravel()] = np.repeat(np.arange(n, 2 * n - M), 2)
    while not np.array_equal(up, up[up]):
        up = up[up]
    _, first, root = np.unique(up[:n], return_index=True, return_inverse=True)
    return np.searchsorted(np.sort(first), first)[root]


class TestCompleteLinkage:
    @pytest.mark.parametrize("n", [300, 700, 2100])
    @pytest.mark.parametrize("name", ["gm4", "gm6"])
    def test_matches_scipy_on_sampled_clouds(self, name, n):
        # n = 2100 at seed 0 is the candidate cloud of gm6 at p=2
        X = mq.sample(builtin_mixture(name), n, 0)
        assert np.array_equal(_distances(X), pdist(X).astype(np.float32))
        pairs = _complete_linkage(X)
        Z = linkage(X, method="complete")
        assert np.array_equal(merge_heights(X, pairs), Z[:, 2])
        for M in range(1, n):
            assert np.array_equal(_cut_labels(pairs, M), scipy_cut(Z, M)), M

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float32_ties_are_decided_as_scipy_decides_them(self, seed):
        # a lattice moved by less than float32 resolves: its distances tie in
        # float32 but not in float64, so the linkage is the plain lattice's,
        # and scipy's on the float32-rounded distances with every tie rule
        axes = np.meshgrid(np.arange(5.0), np.arange(5.0), np.arange(3.0), indexing="ij")
        lattice = np.stack(axes, axis=-1).reshape(-1, 3)
        X = lattice + np.random.default_rng(seed).uniform(-1e-9, 1e-9, lattice.shape)
        D = pdist(X)
        assert len(np.unique(D)) == len(D)
        assert np.array_equal(D.astype(np.float32), pdist(lattice).astype(np.float32))
        pairs = _complete_linkage(X)
        assert np.array_equal(pairs, _complete_linkage(lattice))
        Z = linkage(D.astype(np.float32).astype(np.float64), method="complete")
        # rounding is monotone, so each float32 height is the rounded float64 one
        assert np.array_equal(merge_heights(X, pairs).astype(np.float32), Z[:, 2])
        for M in range(1, len(X) + 1):
            assert np.array_equal(_cut_labels(pairs, M), scipy_cut(Z, M)), M

    def test_large_tied_lattice_matches_scipy(self):
        # 2,000 points whose distances tie in float32 and float64 alike
        axes = np.meshgrid(np.arange(20.0), np.arange(10.0), np.arange(10.0), indexing="ij")
        X = np.stack(axes, axis=-1).reshape(-1, 3)
        pairs = _complete_linkage(X)
        Z = linkage(pdist(X).astype(np.float32).astype(np.float64), method="complete")
        for M in (1, 2, 10, 100, 1000, 1999):
            assert np.array_equal(_cut_labels(pairs, M), scipy_cut(Z, M)), M

    def test_peak_memory_is_one_distance_buffer(self):
        # scipy's linkage reads about 1.13 here, but tracemalloc cannot see
        # the private copy its Cython nn_chain makes, so this pins only the
        # in-place linkage
        import tracemalloc

        n = 1000
        X = mq.sample(builtin_mixture("gm6"), n, 0)
        tracemalloc.start()
        try:
            _complete_linkage(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 4 * n * (n - 1) / 2

    def test_non_finite_distances_rejected(self):
        X = np.array([[0.0, 0.0], [1e200, 0.0], [1.0, 1.0]])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
            _complete_linkage(X)

    def test_distances_beyond_the_float32_range_rejected(self):
        # finite in float64, so only the float32 buffer cannot hold them
        X = np.array([[0.0, 0.0], [1e39, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="float32 range"):
            _complete_linkage(X)


class TestAdaptiveRule:
    def test_standard_normal_needs_two_nodes(self):
        gm = gauss1d()
        basis = basis_for(gm, 2)
        rule = mq.adaptive_rule(basis, gm, mq.SolverConfig(seed=0))
        assert rule.converged
        assert rule.n_nodes == 2
        assert rule.residual_norm <= 1e-8
        assert_allclose(rule.weights.sum(), 1.0, atol=1e-8)

    def test_accepted_rules_decrease_monotonically(self, corr2d_rule):
        gm, basis, rule, accepted = corr2d_rule
        assert rule.converged
        counts = [r.n_nodes for r in accepted]
        assert counts == sorted(counts, reverse=True)
        assert len(set(counts)) == len(counts)
        assert counts[-1] == rule.n_nodes
        for r in accepted:
            assert r.converged and r.residual_norm <= 1e-8
            assert np.all(r.weights >= 0.0)

    def test_exactness_against_moment_oracle(self, corr2d_rule):
        gm, basis, rule, _ = corr2d_rule
        mom = mq.raw_moments(gm, 2 * basis.order)
        mom_vec = np.array([mom[mi.exponents] for mi in basis.indices])
        exact = basis.coeff_matrix @ mom_vec  # E[Psi_j]
        rng = np.random.default_rng(15)
        phi = mq.assemble_phi(basis, rule.nodes)
        for _ in range(100):
            a = rng.uniform(-1.0, 1.0, size=basis.size)
            got = float(a @ (phi @ rule.weights))
            want = float(a @ exact)
            assert abs(got - want) <= 10.0 * 1e-8 * np.linalg.norm(a)

    @pytest.mark.parametrize("p", range(1, 7))
    @pytest.mark.parametrize("name", ["gauss1d", "two_lobes_1d"])
    def test_one_dimensional_rule_is_the_gauss_rule(self, name, p):
        gm = gauss1d() if name == "gauss1d" else two_lobes_1d()
        basis = basis_for(gm, 2 * p)
        accepted = []
        rule = mq.adaptive_rule(basis, gm, mq.SolverConfig(seed=0), on_accept=accepted.append)
        assert rule.converged and rule.n_nodes == p + 1
        assert rule.residual_norm <= 1e-12
        assert [r.n_nodes for r in accepted] == [p + 1]
        if name == "gauss1d":
            x, w = hermegauss(p + 1)
            order = np.argsort(rule.nodes[:, 0])
            assert_allclose(rule.nodes[order, 0], x, rtol=0.0, atol=1e-12)
            assert_allclose(rule.weights[order], w / w.sum(), rtol=0.0, atol=1e-12)

    def test_odd_order_basis_gives_the_two_point_gauss_rule(self):
        gm = gauss1d()
        rule = mq.adaptive_rule(basis_for(gm, 3), gm, mq.SolverConfig(seed=0))
        assert rule.converged and rule.n_nodes == 2
        order = np.argsort(rule.nodes[:, 0])
        assert_allclose(rule.nodes[order, 0], [-1.0, 1.0], rtol=0.0, atol=1e-12)
        assert_allclose(rule.weights[order], [0.5, 0.5], rtol=0.0, atol=1e-12)

    def test_failed_gauss_start_falls_back_to_clustered_starts(self, monkeypatch):
        monkeypatch.setattr("mixquad.quadrature._gauss_nodes", lambda basis, gm: np.zeros((3, 1)))
        gm = gauss1d()
        basis = basis_for(gm, 4)
        accepted = []
        rule = mq.adaptive_rule(basis, gm, mq.SolverConfig(seed=0), on_accept=accepted.append)
        assert [r.n_nodes for r in accepted] == [5, 4, 3]
        assert rule.converged and rule.n_nodes == 3
        assert rule.residual_norm <= 1e-8

    @pytest.mark.parametrize("tol, verdict", [
        (1e-8, "a rule with nodes among the 30 cloud points meets the tolerance"),
        (1e-30, "no rule with nodes among the 30 cloud points meets the tolerance"),
    ])
    def test_increase_phase_abort_is_reported(self, monkeypatch, tol, verdict):
        # every solve fails after one outer step, so the increase phase runs past the cap
        solve = mq.bcd_solve

        def never_converges(basis, nodes, cfg):
            return replace(solve(basis, nodes, cfg), converged=False)

        monkeypatch.setattr("mixquad.quadrature.bcd_solve", never_converges)
        gm = gauss1d()
        basis = basis_for(gm, 2)
        monkeypatch.setattr("mixquad.quadrature.MAX_OUTER_ITERS", 1)
        cfg = mq.SolverConfig(residual_tol=tol, seed=0)
        with pytest.raises(mq.IncreasePhaseError) as info:
            mq.adaptive_rule(basis, gm, cfg)
        assert info.value.M > info.value.cap
        assert info.value.cap == 10 * basis.size
        assert verdict in str(info.value)
        # one NNLS over the whole candidate cloud gives the best residual
        X = mq.sample(gm, 10 * basis.size, 0)
        phi = mq.assemble_phi(basis, X)
        _, best = mq.residual(phi, mq.solve_weights(phi)[0])
        assert info.value.cloud_residual == best
        assert f"(best {best:.3e})" in str(info.value)

    def test_one_linkage_cut_for_every_increase_phase_start(self, monkeypatch):
        import mixquad.quadrature

        gm = gm4()
        basis = basis_for(gm, 4)
        cfg = mq.SolverConfig(seed=0)
        links, starts, accepted = [], [], []
        link, solve = mixquad.quadrature._complete_linkage, mixquad.quadrature.bcd_solve

        def counting_linkage(X):
            links.append(len(X))
            return link(X)

        def recording_solve(basis, nodes, cfg):
            if not accepted:
                starts.append(np.array(nodes))
            return solve(basis, nodes, cfg)

        monkeypatch.setattr("mixquad.quadrature._complete_linkage", counting_linkage)
        monkeypatch.setattr("mixquad.quadrature.bcd_solve", recording_solve)
        mq.adaptive_rule(basis, gm, cfg, on_accept=accepted.append)
        assert links == [10 * basis.size]
        assert [len(x) for x in starts] == [21]
        for x in starts:
            assert np.array_equal(x, clustered_start(gm, len(x), seed=0, count=10 * basis.size))

    @pytest.mark.parametrize("name, order, first", [
        ("gauss2d", 2, 3),  # M0 = 2 < N_1 = 3: rung 2 skipped by proof
        ("gauss2d", 4, 8),  # M0 = 5 < N_2 = 6: rung 5 skipped by proof
        ("gauss2d", 6, 15),  # M0 = 10 >= N_3 = 10: rung 10 skipped on evidence
        ("gauss2d", 3, 4),  # odd order: the M0 rung can converge and is kept
        ("gauss2d", 1, 1),  # order 1: the M0 = 1 rung is kept, one node is exact
        ("gm6", 4, 45),  # M0 = 30 >= N_2 = 28
        ("gauss1d", 4, 3),  # d = 1: the Gauss start at M0
    ])
    def test_first_solve_skips_the_rungs_whose_outcome_is_known(self, monkeypatch, name, order,
                                                               first):
        gm = {"gauss2d": gauss2d, "gauss1d": gauss1d}.get(name, lambda: builtin_mixture(name))()
        basis = basis_for(gm, order)
        starts = []

        def first_solve_only(basis, nodes, cfg):
            starts.append(len(nodes))
            raise StopIteration

        monkeypatch.setattr("mixquad.quadrature.bcd_solve", first_solve_only)
        with pytest.raises(StopIteration):
            mq.adaptive_rule(basis, gm, mq.SolverConfig(seed=0))
        assert starts == [first]

    @pytest.mark.parametrize("name, p", [("gm4", 2), ("gm6", 1)])
    def test_rungs_below_n_k_end_above_the_gram_bound(self, name, p):
        # a rule exact through degree 2k needs M >= N_k nodes; with fewer,
        # G - I = T r bounds the residual below by 1 / sigma_max(T)
        gm = builtin_mixture(name)
        basis = basis_for(gm, 2 * p)
        T = product_tensor(gm, basis)
        Nk = T.shape[0]
        assert_allclose(T[:, :, 0], np.eye(Nk), rtol=0.0, atol=1e-12)
        bound = 1.0 / np.linalg.norm(T.reshape(Nk * Nk, -1), 2)
        assert bound >= 0.1
        cfg = mq.SolverConfig(seed=0)
        rule = mq.bcd_solve(basis, clustered_start(gm, Nk - 1, seed=0), cfg)
        assert not rule.converged
        assert rule.residual_norm >= bound
        phi = mq.assemble_phi(basis, rule.nodes)
        r, _ = mq.residual(phi, rule.weights)
        gram = (phi[:Nk] * rule.weights) @ phi[:Nk].T
        assert_allclose(gram - np.eye(Nk), T @ r, rtol=0.0, atol=1e-10)

    def test_rung_skipped_by_proof_would_have_failed(self, monkeypatch):
        # gm6 at p = 1: the ladder 4 -> 6 -> 9 starts at 9, as 6 < N_1 = 7
        gm = builtin_mixture("gm6")
        basis = basis_for(gm, 2)
        solve, starts = quadrature.bcd_solve, []

        def recording_solve(basis, nodes, cfg):
            starts.append(len(nodes))
            return solve(basis, nodes, cfg)

        monkeypatch.setattr("mixquad.quadrature.bcd_solve", recording_solve)
        cfg = mq.SolverConfig(seed=0)
        rule = mq.adaptive_rule(basis, gm, cfg)
        assert starts == [9, 8, 7, 6]
        assert rule.converged and rule.n_nodes == comb(7, 6)
        # the skipped rung, cut from the same cloud, ends above the Gram bound
        T = product_tensor(gm, basis)
        bound = 1.0 / np.linalg.norm(T.reshape(T.shape[0] ** 2, -1), 2)
        assert bound >= 0.33
        skipped = solve(basis, clustered_start(gm, 6, seed=0, count=10 * basis.size), cfg)
        assert not skipped.converged and skipped.residual_norm >= bound

    @pytest.mark.parametrize("name, M", [("gm4", 18), ("gm6", 35)])
    def test_decrease_phase_deletes_the_lightest_node(self, monkeypatch, name, M):
        gm = builtin_mixture(name)
        basis = basis_for(gm, 4)
        solve, accepted, trials = quadrature.bcd_solve, [], []

        def recording_solve(basis, nodes, cfg):
            if accepted:
                trials.append((accepted[-1], np.array(nodes)))
            return solve(basis, nodes, cfg)

        monkeypatch.setattr("mixquad.quadrature.bcd_solve", recording_solve)
        rule = mq.adaptive_rule(basis, gm, mq.SolverConfig(seed=0), on_accept=accepted.append)
        assert rule is accepted[-1] and rule.n_nodes == M
        # one trial after each accepted rule; the last one failed
        assert [prev for prev, _ in trials] == accepted
        for prev, start in trials:
            lightest = int(np.argmin(prev.weights))
            assert np.array_equal(start, np.delete(prev.nodes, lightest, axis=0))

    @pytest.mark.parametrize("d, p, seed", [(2, 3, 0), (3, 3, 1), (5, 2, 2), (2, 4, 3)])
    def test_first_rung_fails_where_it_is_not_provably_infeasible(self, d, p, seed):
        # the evidence for skipping the M0 rung at M0 >= N_k: its solve from
        # adaptive_rule's start does not converge
        gm = random_mixture(d, seed)
        basis = basis_for(gm, 2 * p)
        M0 = ceil(basis.size / (d + 1))
        assert M0 >= comb(d + p, d)
        cfg = mq.SolverConfig(seed=0)
        rule = mq.bcd_solve(basis, clustered_start(gm, M0, seed=0, count=10 * basis.size), cfg)
        assert not rule.converged

    def test_deterministic_given_seed(self):
        gm = corr2d()
        basis = basis_for(gm, 2)
        a = mq.adaptive_rule(basis, gm, mq.SolverConfig(seed=2))
        b = mq.adaptive_rule(basis, gm, mq.SolverConfig(seed=2))
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.weights, b.weights)


class TestSolverConfig:
    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan, np.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="residual_tol must be finite and > 0"):
            mq.SolverConfig(residual_tol=tol)

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            mq.SolverConfig(seed=-1)

    @pytest.mark.parametrize("seed", [1.5, "2", True], ids=["float", "str", "bool"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
            mq.SolverConfig(seed=seed)

    def test_numpy_integer_seed_is_accepted(self):
        assert mq.SolverConfig(seed=np.int64(3)).seed == 3


class TestRuleValidationAndSerialization:
    def test_negative_weights_rejected_exactly(self):
        with pytest.raises(ValueError, match="nonnegative"):
            mq.QuadratureRule(
                nodes=[[0.0], [1.0]],
                weights=[1.0 + 1e-15, -1e-15],
                residual_norm=0.0,
                basis_order=2,
            )

    def test_weight_count_must_match(self):
        with pytest.raises(ValueError, match="weight"):
            mq.QuadratureRule(
                nodes=[[0.0], [1.0]], weights=[1.0], residual_norm=0.0, basis_order=2
            )
