"""Index enumeration, moment-based orthonormalization, and basis evaluation."""

from itertools import product
from math import comb, sqrt

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mixquad as mq
from mixquad import _lapack, benchmarks
from mixquad._lapack import blas_thread_controls
from mixquad.basis import (
    _graded_lex,
    _graded_lex_rank,
    _jacobian,
    _moment_gram,
    _monomials,
    _one_blas_thread,
    _tails,
)
from mixquad.collocation import EVAL_CHUNK


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


def hermite_basis(q):
    return mq.gram_schmidt(mq.raw_moments(gauss1d(), 2 * q), 1, q)


# Normalized probabilists' Hermite coefficients: He_j / sqrt(j!).
HERMITE_ROWS = {
    0: [1.0],
    1: [0.0, 1.0],
    2: [-1.0 / sqrt(2.0), 0.0, 1.0 / sqrt(2.0)],
    3: [0.0, -3.0 / sqrt(6.0), 0.0, 1.0 / sqrt(6.0)],
    4: [3.0 / sqrt(24.0), 0.0, -6.0 / sqrt(24.0), 0.0, 1.0 / sqrt(24.0)],
}


class TestEnumerateIndices:
    def test_first_order_pair_in_two_dims(self):
        got = [mi.exponents for mi in mq.enumerate_indices(2, 1)]
        assert got == [(0, 0), (1, 0), (0, 1)]

    def test_counts_match_binomial(self):
        assert len(mq.enumerate_indices(6, 2)) == comb(8, 2)
        assert len(mq.enumerate_indices(6, 4)) == comb(10, 4)
        assert len(mq.enumerate_indices(1, 7)) == 8

    @pytest.mark.parametrize("d, q", [(1, 6), (2, 5), (3, 4), (6, 3)])
    def test_matches_brute_force_enumeration(self, d, q):
        brute = [g for g in product(range(q + 1), repeat=d) if sum(g) <= q]
        brute.sort(key=lambda g: (sum(g), tuple(-e for e in g)))
        got = [mi.exponents for mi in mq.enumerate_indices(d, q)]
        assert got == brute
        # the rank formula inverts the enumeration
        E = _graded_lex(d, q)
        assert np.array_equal(_graded_lex_rank(_tails(E)), np.arange(len(E)))

    def test_graded_with_descending_tiebreak(self):
        out = mq.enumerate_indices(4, 3)
        totals = [sum(mi.exponents) for mi in out]
        assert totals == sorted(totals)
        for a, b in zip(out, out[1:]):
            if sum(a.exponents) == sum(b.exponents):
                assert a.exponents > b.exponents

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mq.enumerate_indices(0, 2)
        with pytest.raises(ValueError):
            mq.enumerate_indices(2, -1)


class TestGramSchmidt:
    def test_standard_normal_recovers_hermite_rows(self):
        basis = hermite_basis(4)
        for j, row in HERMITE_ROWS.items():
            assert_allclose(basis.coeff_matrix[j, : j + 1], row, atol=1e-12)

    def test_first_function_is_exactly_one(self):
        basis = mq.gram_schmidt(mq.raw_moments(corr2d(), 4), 2, 2)
        assert basis.coeff_matrix[0, 0] == 1.0
        assert np.all(basis.coeff_matrix[0, 1:] == 0.0)

    def test_higher_functions_have_zero_mean(self):
        gm = corr2d()
        mom = mq.raw_moments(gm, 8)
        basis = mq.gram_schmidt(mom, 2, 4)
        mom_vec = np.array([mom[mi.exponents] for mi in basis.indices])
        means = basis.coeff_matrix @ mom_vec
        assert abs(means[0] - 1.0) < 1e-14
        assert np.abs(means[1:]).max() < 1e-10

    def test_two_point_mixture_linear_normalization(self):
        # E[xi^2] = 2, so the linear function is xi / sqrt(2)
        gm = mq.GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[[1.0]], [[1.0]]])
        basis = mq.gram_schmidt(mq.raw_moments(gm, 2), 1, 1)
        assert_allclose(basis.coeff_matrix[1], [0.0, 1.0 / sqrt(2.0)], atol=1e-14)

    def test_lower_triangular_with_positive_diagonal(self):
        basis = mq.gram_schmidt(mq.raw_moments(corr2d(), 8), 2, 4)
        C = basis.coeff_matrix
        assert np.allclose(C, np.tril(C))
        assert np.all(np.diag(C) > 0.0)

    def test_orthonormality_residual_within_tolerance(self):
        gm = corr2d()
        basis = mq.gram_schmidt(mq.raw_moments(gm, 8), 2, 4)
        mom = mq.raw_moments(gm, 8)
        G = np.empty((basis.size, basis.size))
        for a, mia in enumerate(basis.indices):
            for b, mib in enumerate(basis.indices):
                g = tuple(x + y for x, y in zip(mia.exponents, mib.exponents))
                G[a, b] = mom[g]
        resid = np.abs(basis.coeff_matrix @ G @ basis.coeff_matrix.T - np.eye(basis.size)).max()
        assert resid <= 1e-8
        assert_allclose(basis.gram_residual, resid, rtol=1e-6, atol=1e-15)

    @pytest.mark.parametrize("name", ["gm4", "gm6"])
    def test_moment_gram_matches_table_lookup(self, name):
        gm = getattr(benchmarks, name)()
        mom = mq.raw_moments(gm, 8)
        E = [mi.exponents for mi in mq.enumerate_indices(gm.dim, 4)]
        G = np.array([[mom[tuple(x + y for x, y in zip(a, b))] for b in E] for a in E])
        assert np.array_equal(_moment_gram(mom, np.array(E)), G)

    def test_lower_order_basis_is_prefix_of_higher(self):
        gm = corr2d()
        mom = mq.raw_moments(gm, 8)
        b2 = mq.gram_schmidt(mom, 2, 2)
        b4 = mq.gram_schmidt(mom, 2, 4)
        n = b2.size
        assert [mi.exponents for mi in b4.indices[:n]] == [mi.exponents for mi in b2.indices]
        assert np.array_equal(b4.coeff_matrix[:n, :n], b2.coeff_matrix)

    def test_covariance_scaling_relation_1d(self):
        # under x -> s x the orthonormal functions satisfy psi_s(x) = psi_1(x/s)
        s = 2.5
        gm = mq.GaussianMixture([1.0], [[0.0]], [[[s * s]]])
        bs = mq.gram_schmidt(mq.raw_moments(gm, 8), 1, 4)
        b1 = hermite_basis(4)
        x = np.linspace(-3.0, 3.0, 7)[:, None]
        assert_allclose(mq.eval_basis_batch(bs, s * x), mq.eval_basis_batch(b1, x), atol=1e-9)

    def test_degenerate_support_reported_with_index(self):
        # E[xi^4] = 1 is the two-point measure at +-1: {1, xi} span everything
        # and xi^2 - 1 vanishes (zero pivot); 0.5 is no measure (negative
        # pivot); 1 + 1e-13 leaves a positive pivot below the tolerance
        for m4 in (1.0, 0.5, 1.0 + 1e-13):
            table = mq.MomentTable(dim=1, max_order=4, array=np.array([1.0, 0.0, 1.0, 0.0, m4]))
            with pytest.raises(mq.DegenerateBasisError) as info:
                mq.gram_schmidt(table, 1, 2)
            assert info.value.index == 2, m4
            assert info.value.norm2 <= 1e-12, m4

    def test_moment_table_of_wrong_length_rejected(self):
        # too short a table used to end in an IndexError inside gram_schmidt
        msg = r"moment array has shape \(3,\), expected \(5,\) for dim 1 and max order 4"
        with pytest.raises(ValueError, match=msg):
            mq.MomentTable(dim=1, max_order=4, array=np.array([1.0, 0.0, 1.0]))

    def test_moment_table_of_another_dimension_rejected(self):
        mom = mq.raw_moments(corr2d(), 4)
        with pytest.raises(ValueError, match="dimension 2, basis dimension is 1"):
            mq.gram_schmidt(mom, 1, 2)

    def test_insufficient_moment_order_rejected(self):
        mom = mq.raw_moments(gauss1d(), 4)
        with pytest.raises(ValueError, match="order"):
            mq.gram_schmidt(mom, 1, 3)

    @pytest.mark.parametrize("field, coeff, gram_residual", [
        ("coeff_matrix", [[1.0, 0.0], [np.nan, 1.0]], 0.0),
        ("coeff_matrix", [[1.0, 0.0], [0.0, np.inf]], 0.0),
        ("gram_residual", np.eye(2), np.nan),
        ("gram_residual", np.eye(2), np.inf),
        ("gram_residual", np.eye(2), -1e-16),
    ], ids=["nan-coefficient", "inf-coefficient", "nan-residual", "inf-residual",
            "negative-residual"])
    def test_non_finite_or_negative_field_rejected(self, field, coeff, gram_residual):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            mq.OrthoBasis(1, 1, np.array(coeff), gram_residual)

    def test_monte_carlo_orthonormality(self):
        gm = corr2d()
        basis = mq.gram_schmidt(mq.raw_moments(gm, 4), 2, 2)
        X = mq.sample(gm, 10 ** 6, seed=1)
        vals = mq.eval_basis_batch(basis, X)  # (n, N)
        prod_mean = vals.T @ vals / X.shape[0]
        for a in range(basis.size):
            for b in range(a + 1):
                target = 1.0 if a == b else 0.0
                se = np.std(vals[:, a] * vals[:, b]) / sqrt(X.shape[0])
                if se == 0.0:  # constant product, e.g. psi_0 * psi_0
                    assert prod_mean[a, b] == target
                    continue
                z = abs(prod_mean[a, b] - target) / se
                assert z <= 3.5, f"({a},{b}): z={z:.2f}"


class TestLapackRoutes:
    """The lower Cholesky factor and its inverse of _lapack against scipy's functions."""

    def test_lower_cholesky_and_inverse_are_scipys(self):
        from scipy.linalg import solve_triangular
        from scipy.linalg.lapack import dpotrf

        cases = [(mq.raw_moments(gm, 2 * q), gm.dim, q) for gm, q in [
            (gauss1d(), 4), (corr2d(), 4), (benchmarks.builtin_mixture("gm4"), 3),
            (benchmarks.builtin_mixture("gm6"), 2),
        ]]
        # degenerate tables (see test_degenerate_support_reported_with_index):
        # a zero and a negative pivot stop dpotrf (info > 0), a tiny one does not
        for m4 in (1.0, 0.5, 1.0 + 1e-13):
            cases.append((mq.MomentTable(dim=1, max_order=4,
                                         array=np.array([1.0, 0.0, 1.0, 0.0, m4])), 1, 2))
        infos = []
        for moments, d, q in cases:
            G = _moment_gram(moments, _graded_lex(d, q))
            eye = np.eye(len(G))
            with _one_blas_thread():
                L_ref, info_ref = dpotrf(G, lower=1, clean=1)
                L, info = _lapack.dpotrf(np.array(G, order="F"), lower=True)
            L[np.triu_indices(len(G), 1)] = 0.0
            infos.append(info)
            assert info == info_ref
            assert np.array_equal(L, L_ref)
            if info or np.diag(L).min() ** 2 <= 1e-12:
                with pytest.raises(mq.DegenerateBasisError) as err:
                    mq.gram_schmidt(moments, d, q)
                assert err.value.index == 2
                continue
            with _one_blas_thread():
                C_ref = solve_triangular(L_ref, eye, lower=True)
            assert np.array_equal(_lapack.solve_triangular(L, eye, lower=True), C_ref)
            assert np.array_equal(mq.gram_schmidt(moments, d, q).coeff_matrix, C_ref)
        assert infos[-3:-1] == [3, 3] and infos[-1] == 0

    def test_triangular_solve_checks_its_arguments(self):
        L = np.asfortranarray(np.tril(np.ones((3, 3))))
        bad = L.copy(order="F")
        bad[2, 0] = np.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            _lapack.solve_triangular(bad, np.eye(3), lower=True)
        singular = L.copy(order="F")
        singular[1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="resolution failed at diagonal 1"):
            _lapack.solve_triangular(singular, np.eye(3), lower=True)


class TestEvalBasis:
    def test_first_entry_is_one_everywhere(self):
        basis = mq.gram_schmidt(mq.raw_moments(corr2d(), 6), 2, 3)
        rng = np.random.default_rng(2)
        vals = mq.eval_basis_batch(basis, rng.normal(size=(64, 2)))
        assert np.all(vals[:, 0] == 1.0)

    def test_hermite_values_at_one(self):
        basis = hermite_basis(2)
        assert_allclose(mq.eval_basis_batch(basis, [[1.0]])[0], [1.0, 1.0, 0.0], atol=1e-14)

    def test_matches_direct_monomial_expansion(self):
        rng = np.random.default_rng(3)
        for gm, q in [(corr2d(), 3), (benchmarks.gm4(), 4)]:
            basis = mq.gram_schmidt(mq.raw_moments(gm, 2 * q), gm.dim, q)
            C, E, d = basis.coeff_matrix, basis.exponent_matrix(), gm.dim
            X = rng.normal(size=(100, d))
            mono = np.prod(X[:, None, :] ** E, axis=2)  # (n, N)
            assert_allclose(mq.eval_basis_batch(basis, X), mono @ C.T, rtol=1e-12, atol=1e-12)
            J = _jacobian(basis, _monomials(basis, X))
            for i in range(d):
                # d/dxi_i xi^alpha = alpha_i * xi^(alpha - e_i)
                lowered = np.maximum(E - np.eye(d, dtype=int)[i], 0)
                dmono = E[:, i] * np.prod(X[:, None, :] ** lowered, axis=2)
                assert_allclose(J[:, i, :], C @ dmono.T, rtol=1e-12, atol=1e-12)

    def test_no_points_give_empty_tables(self):
        basis = mq.gram_schmidt(mq.raw_moments(corr2d(), 4), 2, 2)
        X = np.empty((0, 2))
        assert mq.eval_basis_batch(basis, X).shape == (0, basis.size)
        assert mq.assemble_phi(basis, X).shape == (basis.size, 0)
        assert mq.stacked_jacobian(basis, X, np.empty(0)).shape == (basis.size, 0)
        s = mq.Surrogate(basis=basis, coefficients=np.ones(basis.size), rule_residual=0.0)
        assert mq.evaluate_batch(s, X).shape == (0,)

    def test_dimension_mismatch_rejected(self):
        basis = hermite_basis(2)
        with pytest.raises(ValueError):
            mq.eval_basis_batch(basis, [[0.0, 0.0]])

    @pytest.mark.parametrize("name", ["gm4", "gm6"])
    def test_monomials_equal_left_to_right_power_products(self, name):
        # the grade-by-grade table multiplies the same factors in the same order
        gm = benchmarks.builtin_mixture(name)
        for q in range(1, 7):
            idx = mq.enumerate_indices(gm.dim, q)
            basis = mq.OrthoBasis(gm.dim, q, np.eye(len(idx)), 0.0)
            for n in (1, 36, 2 * EVAL_CHUNK + 3):
                X = mq.sample(gm, n, seed=q)
                mono = _monomials(basis, X)
                for a, alpha in enumerate(basis.exponent_matrix()):
                    ref = np.ones(n)
                    for i, e in enumerate(alpha):
                        if e:
                            power = X[:, i]
                            for _ in range(e - 1):
                                power = power * X[:, i]
                            ref = ref * power
                    assert np.array_equal(mono[a], ref), (q, n, tuple(alpha))

    def test_blocks_cover_every_point(self):
        # EVAL_CHUNK points per block, with a short last block; one product
        # over all points agrees to rounding (its last bits may differ: the
        # block size is part of the artifact contract, pinned below)
        gm = benchmarks.gm4()
        basis = mq.gram_schmidt(mq.raw_moments(gm, 4), gm.dim, 2)
        X = mq.sample(gm, 2 * EVAL_CHUNK + 3, seed=5)
        mono = _monomials(basis, X)
        vals = mq.eval_basis_batch(basis, X)
        assert_allclose(vals, (basis.coeff_matrix @ mono).T, rtol=1e-14, atol=1e-14)

    def test_evaluators_take_one_product_per_block_of_2048_rows(self):
        # on gm6 at order 2, blocks of 1001, 7 or 3 rows, or a point alone,
        # give other last bits, so artifacts are byte-identical only with the
        # blocks [k * EVAL_CHUNK, (k + 1) * EVAL_CHUNK) of 2,048 rows
        assert EVAL_CHUNK == 2048
        gm = benchmarks.gm6()
        basis = mq.gram_schmidt(mq.raw_moments(gm, 4), gm.dim, 2)
        X = mq.sample(gm, 3 * EVAL_CHUNK + 5, seed=8)
        blocks = [(basis.coeff_matrix @ _monomials(basis, X[lo : lo + EVAL_CHUNK])).T
                  for lo in range(0, len(X), EVAL_CHUNK)]
        assert np.array_equal(mq.eval_basis_batch(basis, X), np.concatenate(blocks))
        # the surrogate is one polynomial in the monomials, a = c C, with one
        # matrix-vector product per block
        c = np.random.default_rng(8).normal(size=basis.size)
        s = mq.Surrogate(basis=basis, coefficients=c, rule_residual=0.0)
        a = c @ basis.coeff_matrix
        values = [a @ _monomials(basis, X[lo : lo + EVAL_CHUNK])
                  for lo in range(0, len(X), EVAL_CHUNK)]
        assert np.array_equal(mq.evaluate_batch(s, X), np.concatenate(values))


class TestOneBlasThread:
    def test_pins_every_bundled_openblas_and_restores_it(self):
        controls = blas_thread_controls()
        before = [get() for get, _ in controls]
        try:
            for _, set_ in controls:
                set_(2)
            with pytest.raises(RuntimeError), _one_blas_thread():
                assert [get() for get, _ in controls] == [1] * len(controls)
                raise RuntimeError("restored on the way out")
            assert [get() for get, _ in controls] == [2] * len(controls)
        finally:
            for (_, set_), n in zip(controls, before):
                set_(n)


class TestEvalBasisJacobian:
    def test_constant_row_is_zero(self):
        basis = mq.gram_schmidt(mq.raw_moments(corr2d(), 4), 2, 2)
        J = _jacobian(basis, _monomials(basis, np.array([[0.3, -0.7]])))
        assert np.all(J[0] == 0.0)

    def test_cubic_hermite_derivative(self):
        # d/dx (x^3 - 3x)/sqrt(6) at x=2 is 9/sqrt(6)
        basis = hermite_basis(3)
        J = _jacobian(basis, _monomials(basis, np.array([[2.0]])))
        assert_allclose(J[3, 0, 0], 9.0 / sqrt(6.0), rtol=1e-13)

    def test_matches_central_differences(self):
        gm = corr2d()
        basis = mq.gram_schmidt(mq.raw_moments(gm, 6), 2, 3)
        rng = np.random.default_rng(6)
        h = 1e-5
        X = rng.normal(size=(50, 2))
        J = _jacobian(basis, _monomials(basis, X))
        for i in range(2):
            step = h * np.eye(2)[i]
            fd = mq.eval_basis_batch(basis, X + step) - mq.eval_basis_batch(basis, X - step)
            assert_allclose(J[:, i, :], fd.T / (2.0 * h), rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("d, q", [(1, 5), (2, 4), (6, 4)])
    def test_parent_table_points_at_lowered_exponent(self, d, q):
        idx = mq.enumerate_indices(d, q)
        basis = mq.OrthoBasis(d, q, np.eye(len(idx)), 0.0)
        E = basis.exponent_matrix()
        parent = basis._parents
        assert parent.shape == (len(idx), d) and not parent.flags.writeable
        for a in range(len(idx)):
            for i in range(d):
                if E[a, i] > 0:
                    assert np.array_equal(E[parent[a, i]], E[a] - np.eye(d, dtype=int)[i])

    @pytest.mark.parametrize("d, q", [(1, 5), (2, 4), (6, 4)])
    def test_prefix_table_points_at_alpha_without_its_last_coordinate(self, d, q):
        idx = mq.enumerate_indices(d, q)
        basis = mq.OrthoBasis(d, q, np.eye(len(idx)), 0.0)
        E = basis.exponent_matrix()
        prefix = basis._prefixes
        assert prefix.shape == (len(idx), 2) and not prefix.flags.writeable
        for a in range(1, len(idx)):
            j = max(np.flatnonzero(E[a]))
            lowered = E[a].copy()
            lowered[j] = 0
            assert np.array_equal(E[prefix[a, 0]], lowered)
            assert prefix[a, 1] == j * (q + 1) + E[a, j]
