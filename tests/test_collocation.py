"""Projection onto the basis, surrogate statistics, and model adapters."""

import subprocess
import sys
import tracemalloc
from functools import cache

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import gaussian_kde

import mixquad as mq
from mixquad import benchmarks
from mixquad._lapack import blas_thread_controls
from mixquad.collocation import EVAL_CHUNK
from mixquad.rules import MIN_DENSITY_SAMPLES


def gauss1d():
    return mq.GaussianMixture([1.0], [[0.0]], [[[1.0]]])


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
def gh_setup():
    """Two-point exact rule for the standard normal with a linear basis."""
    gm = gauss1d()
    mom = mq.raw_moments(gm, 4)
    basis_2p = mq.gram_schmidt(mom, 1, 2)
    basis_p = mq.gram_schmidt(mom, 1, 1)
    phi = mq.assemble_phi(basis_2p, np.array([[-1.0], [1.0]]))
    _, nrm = mq.residual(phi, np.array([0.5, 0.5]))
    rule = mq.QuadratureRule(
        nodes=[[-1.0], [1.0]],
        weights=[0.5, 0.5],
        residual_norm=nrm,
        basis_order=2,
        converged=True,
    )
    return gm, basis_p, rule


@pytest.fixture(scope="module")
def corr2d_setup():
    gm = corr2d()
    mom = mq.raw_moments(gm, 8)
    basis_2p = mq.gram_schmidt(mom, 2, 4)
    basis_p = mq.gram_schmidt(mom, 2, 2)
    rule = mq.adaptive_rule(basis_2p, gm, mq.SolverConfig(seed=0))
    assert rule.converged
    return gm, basis_p, rule


class TestProject:
    def test_constant_model_gives_unit_first_coefficient(self, corr2d_setup):
        _, basis_p, rule = corr2d_setup
        s = mq.project(rule, basis_p, np.full(rule.n_nodes, 7.0))
        assert_allclose(s.coefficients[0], 7.0, rtol=1e-9)
        assert np.abs(s.coefficients[1:]).max() <= 1e-7

    def test_each_basis_function_projects_to_unit_vector(self, corr2d_setup):
        _, basis_p, rule = corr2d_setup
        vals = mq.eval_basis_batch(basis_p, rule.nodes)  # (M, N_p)
        for j in range(basis_p.size):
            s = mq.project(rule, basis_p, vals[:, j])
            e = np.zeros(basis_p.size)
            e[j] = 1.0
            assert_allclose(s.coefficients, e, atol=1e-7)

    def test_polynomial_model_is_reproduced_at_fresh_points(self, corr2d_setup):
        gm, basis_p, rule = corr2d_setup
        rng = np.random.default_rng(20)
        a = rng.uniform(-1.0, 1.0, size=basis_p.size)
        y = mq.eval_basis_batch(basis_p, rule.nodes) @ a
        s = mq.project(rule, basis_p, y)
        assert_allclose(s.coefficients, a, atol=1e-7)
        X = mq.sample(gm, 1000, seed=21)
        direct = mq.eval_basis_batch(basis_p, X) @ a
        err = mq.evaluate_batch(s, X) - direct
        assert np.sqrt(np.mean(err ** 2)) <= 1e-6 * max(1.0, np.sqrt(np.mean(direct ** 2)))

    def test_projection_is_linear(self, corr2d_setup):
        _, basis_p, rule = corr2d_setup
        rng = np.random.default_rng(22)
        y1 = rng.normal(size=rule.n_nodes)
        y2 = rng.normal(size=rule.n_nodes)
        s1 = mq.project(rule, basis_p, y1)
        s2 = mq.project(rule, basis_p, y2)
        s12 = mq.project(rule, basis_p, 2.0 * y1 - 3.0 * y2)
        assert_allclose(
            s12.coefficients, 2.0 * s1.coefficients - 3.0 * s2.coefficients, atol=1e-12
        )

    def test_nonfinite_value_names_the_node(self, corr2d_setup):
        _, basis_p, rule = corr2d_setup
        y = np.ones(rule.n_nodes)
        y[3] = np.nan
        with pytest.raises(ValueError, match="value nan at node index 3"):
            mq.project(rule, basis_p, y)
        V = np.ones((rule.n_nodes, 3))
        V[5, 2], V[4, 1] = np.nan, -np.inf
        with pytest.raises(ValueError, match="value -inf at node index 4"):
            mq.project_columns(rule, basis_p, V)

    def test_wrong_value_count_rejected(self, corr2d_setup):
        _, basis_p, rule = corr2d_setup
        with pytest.raises(ValueError, match="values"):
            mq.project(rule, basis_p, np.ones(rule.n_nodes + 1))

    def test_rule_not_exact_through_order_2p_rejected(self, corr2d_setup):
        gm, _, rule = corr2d_setup  # rule exact through order 4
        basis_3 = mq.gram_schmidt(mq.raw_moments(gm, 6), 2, 3)
        with pytest.raises(ValueError, match="order 3 needs .* order 6.* order 4"):
            mq.project(rule, basis_3, np.ones(rule.n_nodes))
        with pytest.raises(ValueError, match="order 3 needs .* order 6.* order 4"):
            mq.project_columns(rule, basis_3, np.ones((rule.n_nodes, 2)))

    def test_metadata_recorded(self, corr2d_setup):
        _, basis_p, rule = corr2d_setup
        s = mq.project(rule, basis_p, np.ones(rule.n_nodes), model_name="ones")
        assert s.meta == {"model": "ones", "sample_count": rule.n_nodes}


@cache
def builtin_case(name):
    """(gm, basis_2p, basis_p, rule): builtin mixture name and its seed-0 p=2 rule, built once."""
    gm = benchmarks.builtin_mixture(name)
    mom = mq.raw_moments(gm, 8)
    basis_2p = mq.gram_schmidt(mom, gm.dim, 4)
    rule = mq.adaptive_rule(basis_2p, gm, mq.SolverConfig(seed=0))
    return gm, basis_2p, mq.gram_schmidt(mom, gm.dim, 2), rule


@pytest.fixture(scope="module", params=["gm4", "gm6", "corr2d"])
def projection_case(request, corr2d_setup):
    """(basis_p, rule, y): a benchmark model at its mixture's p=2 rule, or corr2d."""
    if request.param == "corr2d":
        _, basis_p, rule = corr2d_setup
        return basis_p, rule, np.sin(rule.nodes @ [1.0, -2.0])
    _, _, basis_p, rule = builtin_case(request.param)
    model = benchmarks.builtin_model("ro6" if request.param == "gm6" else "filter4")
    return basis_p, rule, model(rule.nodes)


def test_project_is_the_one_column_case_of_project_columns(projection_case):
    # bit for bit the direct product of the basis values with the weighted values
    basis_p, rule, y = projection_case
    c = mq.project(rule, basis_p, y).coefficients
    direct = mq.eval_basis_batch(basis_p, rule.nodes).T @ (rule.weights * y)
    assert np.array_equal(c, direct)
    assert np.array_equal(c, mq.project_columns(rule, basis_p, y[:, None])[0])


def gauss_hermite_union(gm, q):
    """Nodes and weights of one tensor Gauss-Hermite rule per component, q points per axis.

    hermegauss integrates against exp(-z^2 / 2); component k's nodes are
    mu_k + L_k z, with L_k the Cholesky factor of its covariance, and its
    weights pi_k prod_i w_i / (2 pi)^(d / 2). The union is exact for every
    polynomial of degree <= 2 q - 1 in each coordinate.
    """
    z, w = np.polynomial.hermite_e.hermegauss(q)
    d = gm.dim
    grid = np.indices((q,) * d).reshape(d, -1).T
    Z, W = z[grid], w[grid].prod(axis=1) / (2 * np.pi) ** (d / 2)
    nodes = np.concatenate([mu + Z @ np.linalg.cholesky(S).T
                            for mu, S in zip(gm.means, gm.covariances)])
    return nodes, np.concatenate([pi * W for pi in gm.mix_weights])


def reference_projection(gm, basis, model, q):
    """c* = sum W y Psi over gauss_hermite_union(gm, q): the projection up to rounding."""
    X, W = gauss_hermite_union(gm, q)
    return mq.eval_basis_batch(basis, X).T @ (W * model(X))


@pytest.mark.parametrize("name, model_name, per_axis, floor", [
    ("gm4", "filter4", (8, 10), "0.50%"),
    ("gm6", "ro6", (5, 6), "0.34%"),
])
def test_exact_projection_reference(name, model_name, per_axis, floor, capfd):
    # the std error that criterion 7's draw (seed 2024, 10^5 samples) leaves
    # to an exact projection, below which no rule's error can be read
    gm, basis_2p, basis_p, rule = builtin_case(name)
    model = benchmarks.builtin_model(model_name)
    X, W = gauss_hermite_union(gm, per_axis[0])
    assert mq.residual(mq.assemble_phi(basis_2p, X), W)[1] <= 1e-12
    coarse, exact = (reference_projection(gm, basis_p, model, q) for q in per_axis)
    assert np.linalg.norm(coarse - exact) <= 1e-5 * np.linalg.norm(exact)
    y_mc = model(mq.sample(gm, 10 ** 5, 2024))
    std_exact = np.sqrt(np.sum(exact[1:] ** 2))
    std_floor = abs(std_exact - y_mc.std()) / y_mc.std()
    assert f"{std_floor:.2%}" == floor
    surr = mq.project(rule, basis_p, model(rule.nodes))
    err = np.linalg.norm(surr.coefficients - exact) / np.linalg.norm(exact)
    with capfd.disabled():
        print(f"\n{model_name}: std floor {std_floor:.4%}; rule of {rule.n_nodes} nodes: "
              f"||c - c*|| / ||c*|| = {err:.2e}, std {mq.statistics(surr)[2]:.6g} against "
              f"c*'s {std_exact:.6g}", flush=True)


class TestProjectColumns:
    def test_matches_individual_projections(self, corr2d_setup):
        _, basis_p, rule = corr2d_setup
        rng = np.random.default_rng(23)
        V = rng.normal(size=(rule.n_nodes, 5))
        C = mq.project_columns(rule, basis_p, V)
        assert C.shape == (5, basis_p.size)
        for f in range(5):
            s = mq.project(rule, basis_p, V[:, f])
            assert_allclose(C[f], s.coefficients, rtol=1e-12, atol=1e-15)

    def test_shape_mismatch_rejected(self, corr2d_setup):
        _, basis_p, rule = corr2d_setup
        with pytest.raises(ValueError, match="shape"):
            mq.project_columns(rule, basis_p, np.ones((rule.n_nodes + 2, 3)))


class TestEvaluateAndStatistics:
    def test_linear_model_end_to_end(self, gh_setup):
        # y = 3 + 2 xi under N(0, 1): mean 3, variance 4
        _, basis_p, rule = gh_setup
        y = 3.0 + 2.0 * rule.nodes[:, 0]
        s = mq.project(rule, basis_p, y)
        assert_allclose(mq.evaluate_batch(s, [[1.0]]), [5.0], rtol=1e-12)
        mean, var, std = mq.statistics(s)
        assert_allclose([mean, var, std], [3.0, 4.0, 2.0], rtol=1e-12)

    def test_unit_coefficient_vectors(self, corr2d_setup):
        _, basis_p, rule = corr2d_setup
        e0 = np.zeros(basis_p.size)
        e0[0] = 1.0
        s0 = mq.Surrogate(basis=basis_p, coefficients=e0, rule_residual=0.0)
        assert mq.statistics(s0) == (1.0, 0.0, 0.0)
        e1 = np.zeros(basis_p.size)
        e1[1] = 1.0
        s1 = mq.Surrogate(basis=basis_p, coefficients=e1, rule_residual=0.0)
        assert mq.statistics(s1) == (0.0, 1.0, 1.0)

    def test_chunked_evaluation_covers_the_tail(self, corr2d_setup):
        gm, basis_p, rule = corr2d_setup
        rng = np.random.default_rng(26)
        s = mq.Surrogate(
            basis=basis_p,
            coefficients=rng.normal(size=basis_p.size),
            rule_residual=0.0,
        )
        # two full chunks and a three-point tail
        X = mq.sample(gm, 2 * EVAL_CHUNK + 3, seed=27)
        out = mq.evaluate_batch(s, X)
        direct = mq.eval_basis_batch(basis_p, X) @ s.coefficients
        assert_allclose(out, direct, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("name", ["gm4", "gm6"])
    @pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
    def test_agrees_with_the_basis_values_block_by_block(self, name, p):
        # the polynomial in the monomials rounds otherwise than the basis
        # values times the coefficients, only in the last bits
        gm = benchmarks.builtin_mixture(name)
        basis = mq.gram_schmidt(mq.raw_moments(gm, 2 * p), gm.dim, p)
        c = np.random.default_rng(p).normal(size=basis.size)
        s = mq.Surrogate(basis=basis, coefficients=c, rule_residual=0.0)
        X = mq.sample(gm, 2 * EVAL_CHUNK + 3, seed=p)
        ref = np.concatenate([mq.eval_basis_batch(basis, X[lo : lo + EVAL_CHUNK]) @ c
                              for lo in range(0, len(X), EVAL_CHUNK)])
        assert np.abs(mq.evaluate_batch(s, X) - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_same_bits_at_one_and_two_blas_threads(self):
        gm = benchmarks.gm6()
        basis = mq.gram_schmidt(mq.raw_moments(gm, 4), gm.dim, 2)
        c = np.random.default_rng(30).normal(size=basis.size)
        s = mq.Surrogate(basis=basis, coefficients=c, rule_residual=0.0)
        X = mq.sample(gm, 3 * EVAL_CHUNK + 5, seed=30)
        controls = blas_thread_controls()
        before = [get() for get, _ in controls]
        outputs = []
        try:
            for n in (1, 2):
                for _, set_ in controls:
                    set_(n)
                outputs.append(mq.evaluate_batch(s, X))
        finally:
            for (_, set_), n in zip(controls, before):
                set_(n)
        assert np.array_equal(outputs[0], outputs[1])

    def test_variance_matches_monte_carlo(self, corr2d_setup):
        gm, basis_p, rule = corr2d_setup
        rng = np.random.default_rng(28)
        s = mq.Surrogate(
            basis=basis_p,
            coefficients=rng.uniform(-1.0, 1.0, size=basis_p.size),
            rule_residual=0.0,
        )
        _, var, _ = mq.statistics(s)
        ys = mq.evaluate_batch(s, mq.sample(gm, 5 * 10 ** 5, seed=29))
        sample_var = ys.var()
        centered = ys - ys.mean()
        se = np.sqrt((np.mean(centered ** 4) - sample_var ** 2) / ys.size)
        assert abs(sample_var - var) <= 3.0 * se

    def test_coefficient_length_validated(self, corr2d_setup):
        _, basis_p, _ = corr2d_setup
        with pytest.raises(ValueError, match="coefficient"):
            mq.Surrogate(basis=basis_p, coefficients=np.ones(basis_p.size + 1), rule_residual=0.0)


class TestDensityEstimate:
    def test_constant_output_is_degenerate_single_bin(self, gh_setup):
        gm, basis_p, _ = gh_setup
        c = np.zeros(basis_p.size)
        c[0] = 5.0
        s = mq.Surrogate(basis=basis_p, coefficients=c, rule_residual=0.0)
        est = mq.density_estimate(s, gm, 2000, seed=0)
        assert est.degenerate
        assert est.bin_density.size == 1
        width = est.bin_edges[1] - est.bin_edges[0]
        assert_allclose(est.bin_density[0] * width, 1.0, rtol=1e-12)
        assert est.kde_points.size == 0

    def test_histogram_integrates_to_one(self, gh_setup):
        gm, basis_p, rule = gh_setup
        s = mq.project(rule, basis_p, 3.0 + 2.0 * rule.nodes[:, 0])
        est = mq.density_estimate(s, gm, 20000, seed=1)
        widths = np.diff(est.bin_edges)
        assert_allclose(np.sum(est.bin_density * widths), 1.0, rtol=1e-9)

    def test_linear_gaussian_case_matches_normal_law(self, gh_setup):
        gm, basis_p, rule = gh_setup
        s = mq.project(rule, basis_p, 3.0 + 2.0 * rule.nodes[:, 0])
        est = mq.density_estimate(s, gm, 10 ** 5, seed=2)
        assert abs(est.outputs.mean() - 3.0) < 0.03
        assert abs(est.outputs.std() - 2.0) < 0.03
        # KDE close to the exact N(3, 4) density in L1
        exact = np.exp(-((est.kde_points - 3.0) ** 2) / 8.0) / np.sqrt(8.0 * np.pi)
        l1 = np.trapezoid(np.abs(est.kde_density - exact), est.kde_points)
        assert l1 < 0.05

    def test_deterministic_given_seed(self, gh_setup):
        gm, basis_p, rule = gh_setup
        s = mq.project(rule, basis_p, 3.0 + 2.0 * rule.nodes[:, 0])
        a = mq.density_estimate(s, gm, 5000, seed=3)
        b = mq.density_estimate(s, gm, 5000, seed=3)
        c = mq.density_estimate(s, gm, 5000, seed=4)
        assert np.array_equal(a.outputs, b.outputs)
        assert np.array_equal(a.kde_density, b.kde_density)
        assert not np.array_equal(a.outputs, c.outputs)

    @pytest.mark.parametrize("name", ["gm4", "gm6"])
    def test_outputs_are_the_surrogate_at_the_samples(self, name):
        # drawn and evaluated block by block, in other blocks than evaluate_batch's
        gm = benchmarks.builtin_mixture(name)
        basis = mq.gram_schmidt(mq.raw_moments(gm, 4), gm.dim, 2)
        c = np.random.default_rng(34).normal(size=basis.size)
        s = mq.Surrogate(basis=basis, coefficients=c, rule_residual=0.0)
        ref = mq.evaluate_batch(s, mq.sample(gm, 3 * EVAL_CHUNK + 5, seed=35))
        ys = mq.density_estimate(s, gm, ref.size, seed=35).outputs
        assert np.abs(ys - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_never_holds_the_samples_at_once(self):
        # the n x d sample matrix alone would take n * d * 8 bytes
        gm = benchmarks.gm6()
        basis = mq.gram_schmidt(mq.raw_moments(gm, 4), gm.dim, 2)
        c = np.random.default_rng(36).normal(size=basis.size)
        s = mq.Surrogate(basis=basis, coefficients=c, rule_residual=0.0)
        n = 10 ** 5
        mq.density_estimate(s, gm, MIN_DENSITY_SAMPLES, seed=37)  # first-call setup
        tracemalloc.start()
        try:
            mq.density_estimate(s, gm, n, seed=37)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * gm.dim * 8

    def test_mixture_of_another_dimension_rejected(self, gh_setup):
        _, basis_p, rule = gh_setup
        s = mq.project(rule, basis_p, rule.nodes[:, 0])
        with pytest.raises(ValueError, match="mixture has dimension 2, basis expects 1"):
            mq.density_estimate(s, corr2d(), 2000, seed=0)

    def test_tiny_sample_count_rejected(self, gh_setup):
        gm, basis_p, rule = gh_setup
        s = mq.project(rule, basis_p, rule.nodes[:, 0])
        with pytest.raises(ValueError, match="n_samples"):
            mq.density_estimate(s, gm, 10, seed=0)

    @pytest.mark.parametrize("mixture,model", [("gm4", "filter4"), ("gm6", "ro6")])
    def test_binned_kde_matches_exact_kde(self, mixture, model):
        # order-2 surrogate of the benchmark model, fitted by least squares
        gm = benchmarks.builtin_mixture(mixture)
        basis_p = mq.gram_schmidt(mq.raw_moments(gm, 4), gm.dim, 2)
        X = mq.sample(gm, 4000, seed=31)
        c = np.linalg.lstsq(
            mq.eval_basis_batch(basis_p, X), benchmarks.BUILTIN_MODELS[model](X), rcond=None
        )[0]
        s = mq.Surrogate(basis=basis_p, coefficients=c, rule_residual=0.0)
        est = mq.density_estimate(s, gm, 10 ** 5, seed=32)
        kde = gaussian_kde(est.outputs, bw_method="silverman")
        h = np.sqrt(kde.covariance[0, 0])
        pts = np.linspace(est.outputs.min() - 3.0 * h, est.outputs.max() + 3.0 * h, 512)
        assert_allclose(est.kde_points, pts, rtol=0.0, atol=1e-12 * np.abs(pts).max())
        exact = kde(pts)
        assert np.abs(est.kde_density - exact).max() <= 1e-4 * exact.max()
        assert abs(np.trapezoid(est.kde_density, est.kde_points) - 1.0) <= 1e-3

    def test_binned_kde_grid_adapts_to_a_heavy_outlier(self, gh_setup, monkeypatch):
        # range/h near 2000: the points, and the grid with them, follow the range
        gm, basis_p, rule = gh_setup
        ys = np.append(np.random.default_rng(33).normal(size=99_999), 300.0)
        # the surrogate y = x maps draws injected in one block onto the outputs
        monkeypatch.setattr(mq.collocation, "_draws",
                            lambda gm, n, seed: [(np.arange(n), ys[:, None])])
        s = mq.project(rule, basis_p, rule.nodes[:, 0])
        est = mq.density_estimate(s, gm, ys.size, seed=0)
        assert np.array_equal(est.outputs, ys)
        exact = gaussian_kde(ys, bw_method="silverman")(est.kde_points)
        assert np.abs(est.kde_density - exact).max() <= 1e-4 * exact.max()

    def test_points_resolve_the_bulk_beside_a_far_outlier(self):
        # one draw of 1e5 falls near 300; 512 points would lie about 4 h apart
        gm = mq.GaussianMixture([1 - 1e-5, 1e-5], [[0.0], [300.0]], [[[1.0]], [[1.0]]])
        basis_p = mq.gram_schmidt(mq.raw_moments(gm, 2), 1, 1)
        c = np.linalg.solve(basis_p.coeff_matrix.T, [0.0, 1.0])  # y = x
        s = mq.Surrogate(basis=basis_p, coefficients=c, rule_residual=0.0)
        est = mq.density_estimate(s, gm, 10 ** 5, seed=0)
        assert est.outputs.max() > 100.0
        h = np.std(est.outputs, ddof=1) * (0.75 * est.outputs.size) ** -0.2
        assert np.diff(est.kde_points).max() <= 0.5 * h * (1 + 1e-12)
        assert np.count_nonzero(np.abs(est.kde_points) < 3.0) >= 50
        assert abs(np.trapezoid(est.kde_density, est.kde_points) - 1.0) <= 1e-6


def test_import_leaves_scipy_stats_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, mixquad; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"


class TestEvaluateModel:
    def test_builtin_models_are_finite_and_deterministic(self):
        from mixquad.benchmarks import builtin_mixture

        for name, d in (("ro6", 6), ("filter4", 4)):
            gm = builtin_mixture("gm6" if d == 6 else "gm4")
            nodes = mq.sample(gm, 50, seed=5)
            adapter = mq.ModelAdapter.builtin(name)
            a = mq.evaluate_model(adapter, nodes)
            b = mq.evaluate_model(adapter, nodes)
            assert a.shape == (50,)
            assert np.all(np.isfinite(a))
            assert np.array_equal(a, b)
            assert adapter.describe() == f"builtin:{name}"
        for adapter, label in ((mq.ModelAdapter.batch_file("run/v.csv"), "file:run/v.csv"),
                               (mq.ModelAdapter.command("./sim --batch"), "cmd:./sim --batch")):
            assert adapter.describe() == label

    def test_unknown_builtin_rejected(self):
        # when the adapter is built, before any node is evaluated
        with pytest.raises(mq.AdapterError, match="available") as info:
            mq.ModelAdapter.builtin("nope")
        # the message of the one lookup, benchmarks.builtin_model
        with pytest.raises(ValueError) as lookup:
            benchmarks.builtin_model("nope")
        assert str(info.value) == str(lookup.value)

    def test_batch_file_round_trip(self, tmp_path, corr2d_setup):
        _, basis_p, rule = corr2d_setup
        values_path = tmp_path / "values.csv"
        y = 2.0 * rule.nodes[:, 0]
        values_path.write_text("# simulator output\n\n" + "".join(f"{v!r}\n" for v in y.tolist()))
        adapter = mq.ModelAdapter.batch_file(values_path)
        got = mq.evaluate_model(adapter, rule.nodes)
        assert np.array_equal(got, y)

    def test_batch_file_missing_reported(self, tmp_path):
        adapter = mq.ModelAdapter.batch_file(tmp_path / "absent.csv")
        with pytest.raises(mq.AdapterError, match="absent.csv"):
            mq.evaluate_model(adapter, np.zeros((2, 2)))

    def test_batch_file_count_mismatch_reported(self, tmp_path):
        p = tmp_path / "values.csv"
        p.write_text("1.0\n2.0\n")
        adapter = mq.ModelAdapter.batch_file(p)
        nodes = np.zeros((3, 2))
        nodes[2] = [1 / 3, -1.25]
        # the first node without a value is named in round-trip decimals
        with pytest.raises(
            mq.AdapterError,
            match=r"2 values for 3 nodes.*node 2 at \(0\.3333333333333333, -1\.25\)",
        ):
            mq.evaluate_model(adapter, nodes)

    def test_batch_file_bad_number_reported(self, tmp_path):
        p = tmp_path / "values.csv"
        p.write_text("1.0\nnot-a-number\n")
        adapter = mq.ModelAdapter.batch_file(p)
        with pytest.raises(mq.AdapterError, match="line 2"):
            mq.evaluate_model(adapter, np.zeros((2, 2)))

    def test_subprocess_sum_model_projects_exactly(self, corr2d_setup):
        gm, basis_p, rule = corr2d_setup
        cmd = (
            sys.executable
            + ' -c "import sys; [print(sum(map(float, l.split()))) for l in sys.stdin]"'
        )
        adapter = mq.ModelAdapter.command(cmd)
        y = mq.evaluate_model(adapter, rule.nodes)
        assert_allclose(y, rule.nodes.sum(axis=1), rtol=1e-15)
        # a linear model is reproduced exactly by the quadratic surrogate
        s = mq.project(rule, basis_p, y, model_name=adapter.describe())
        X = mq.sample(gm, 500, seed=6)
        assert_allclose(mq.evaluate_batch(s, X), X.sum(axis=1), atol=1e-6)

    def test_subprocess_failure_exit_code_reported(self):
        cmd = sys.executable + ' -c "import sys; sys.exit(3)"'
        with pytest.raises(mq.AdapterError, match="status 3"):
            mq.evaluate_model(mq.ModelAdapter.command(cmd), np.zeros((2, 2)))

    def test_subprocess_garbage_output_reported(self):
        cmd = sys.executable + ' -c "print(\'abc\')"'
        with pytest.raises(mq.AdapterError, match="not a number"):
            mq.evaluate_model(mq.ModelAdapter.command(cmd), np.zeros((1, 2)))

    def test_subprocess_count_mismatch_reported(self):
        cmd = sys.executable + ' -c "print(1.0)"'
        nodes = np.array([[0.0, 0.0], [1 / 3, -1.25], [2.0, 2.0]])
        with pytest.raises(
            mq.AdapterError,
            match=r"1 values for 3 nodes.*node 1 at \(0\.3333333333333333, -1\.25\)",
        ):
            mq.evaluate_model(mq.ModelAdapter.command(cmd), nodes)
