"""Mixture construction, sampling, density, and exact raw moments."""

import json
from itertools import product
from math import comb

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from numpy.testing import assert_allclose

import mixquad as mq
from mixquad.basis import EVAL_CHUNK
from mixquad.benchmarks import builtin_mixture


def gauss1d():
    return mq.GaussianMixture([1.0], [[0.0]], [[[1.0]]])


def two_point_1d():
    """0.5 N(-1, 1) + 0.5 N(+1, 1)."""
    return mq.GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[[1.0]], [[1.0]]])


def corr2d():
    return mq.GaussianMixture(
        [0.5, 0.5],
        [[-0.5, 0.3], [0.4, -0.4]],
        [
            [[1.0, 0.24], [0.24, 0.64]],
            [[0.49, -0.28], [-0.28, 1.0]],
        ],
    )


def _reference_raw_moments(gm, max_order):
    """The moment recursion one multi-index at a time, as raw_moments first ran.

    Returns the values dict, or the (gamma, component) of the first overflow.
    """
    index_list = mq.enumerate_indices(gm.dim, max_order)
    d = gm.dim
    tables = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(gm.n_components):
            mu, cov = gm.means[k], gm.covariances[k]
            m = {(0,) * d: 1.0}
            for mi in index_list[1:]:
                g = mi.exponents
                i = next(j for j in range(d) if g[j] > 0)
                base = list(g)
                base[i] -= 1
                val = mu[i] * m[tuple(base)]
                for j in range(d):
                    if base[j] > 0:
                        b2 = list(base)
                        b2[j] -= 1
                        val += cov[i, j] * base[j] * m[tuple(b2)]
                if not np.isfinite(val):
                    return g, k
                m[tuple(g)] = val
            tables.append(m)
    w = gm.mix_weights
    values = {}
    for mi in index_list:
        g = mi.exponents
        values[g] = float(sum(w[k] * tables[k][g] for k in range(gm.n_components)))
    values[(0,) * d] = 1.0
    return values


class TestGaussianMixtureValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            mq.GaussianMixture([0.6, 0.6], [[0.0], [0.0]], [[[1.0]], [[1.0]]])

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            mq.GaussianMixture([1.5, -0.5], [[0.0], [0.0]], [[[1.0]], [[1.0]]])

    def test_asymmetric_covariance_names_component(self):
        cov_bad = [[1.0, 0.3], [0.1, 1.0]]
        with pytest.raises(ValueError, match="component 1"):
            mq.GaussianMixture(
                [0.5, 0.5],
                [[0.0, 0.0], [0.0, 0.0]],
                [np.eye(2), cov_bad],
            )

    def test_indefinite_covariance_names_component(self):
        cov_bad = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(ValueError, match="component 0"):
            mq.GaussianMixture([1.0], [[0.0, 0.0]], [cov_bad])

    @pytest.mark.parametrize(
        "weights, means, cov, match",
        [
            ([np.nan, 1.0], [0.0, 0.0], [1.0, 0.5], "component 0: weight nan"),
            ([0.5, np.inf], [0.0, 0.0], [1.0, 0.5], "component 1: weight inf"),
            ([0.5, 0.5], [0.0, np.nan], [1.0, 0.5], "component 1: mean"),
            ([0.5, 0.5], [np.inf, 0.0], [1.0, 0.5], "component 0: mean"),
            ([0.5, 0.5], [0.0, 0.0], [1.0, np.nan], "component 1: mean and covariance"),
        ],
        ids=["weight-nan", "weight-inf", "mean-nan", "mean-inf", "cov-nan"],
    )
    def test_non_finite_input_names_component(self, weights, means, cov, match):
        # json.loads accepts NaN and Infinity, so a mixture file can carry them
        with pytest.raises(ValueError, match=match):
            mq.GaussianMixture(weights, [[m] for m in means], [[[c]] for c in cov])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="component 1"):
            mq.GaussianMixture(
                [0.5, 0.5],
                [[0.0, 0.0], [0.0, 0.0, 0.0]],
                [np.eye(2), np.eye(3)],
            )

    def test_non_vector_first_mean_names_its_shape(self):
        with pytest.raises(ValueError, match=r"component 0: mean must be a vector, got shape \(1, 2\)"):
            mq.GaussianMixture([1.0], [[[0.0, 0.0]]], [np.eye(2)])

    def test_component_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            mq.GaussianMixture([1.0], [[0.0], [1.0]], [[[1.0]], [[1.0]]])

    def test_stored_arrays_are_read_only(self):
        gm = two_point_1d()
        with pytest.raises(ValueError):
            gm.mix_weights[0] = 0.9

    def test_caller_arrays_stay_writeable(self):
        w, m, S = np.ones(1), np.zeros(2), np.eye(2)
        gm = mq.GaussianMixture(w, [m], [S])
        assert gm.means[0] is not m and gm.covariances[0] is not S and gm.mix_weights is not w
        m[0], S[0, 1], w[0] = 1.0, 0.5, 0.5
        assert gm.means[0][0] == 0.0 and gm.covariances[0][0, 1] == 0.0
        assert gm.mix_weights[0] == 1.0


class TestSample:
    def test_identity_case_matches_law_of_large_numbers(self):
        gm = mq.GaussianMixture([1.0], [np.zeros(2)], [np.eye(2)])
        X = mq.sample(gm, 10 ** 5, seed=7)
        assert np.abs(X.mean(axis=0)).max() < 0.02
        cov = np.cov(X.T)
        assert np.abs(cov - np.eye(2)).max() < 0.05

    def test_degenerate_mixture_draws_only_from_first_component(self):
        gm = mq.GaussianMixture(
            [1.0, 0.0], [[0.0], [100.0]], [[[1.0]], [[1.0]]]
        )
        X = mq.sample(gm, 5000, seed=3)
        assert np.abs(X).max() < 50.0

    def test_two_point_mixture_second_moment(self):
        # E[xi^2] = sum_k pi_k (mu_k^2 + sigma_k^2) = 2
        X = mq.sample(two_point_1d(), 10 ** 6, seed=11)
        assert abs(np.mean(X ** 2) - 2.0) < 0.01

    def test_deterministic_given_seed(self):
        gm = corr2d()
        a = mq.sample(gm, 1000, seed=42)
        b = mq.sample(gm, 1000, seed=42)
        c = mq.sample(gm, 1000, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            mq.sample(gauss1d(), 0, seed=0)

    @pytest.mark.parametrize("gm, n, seed", [
        *[(name, n, seed) for name in ("gm4", "gm6") for n in (1, 3 * EVAL_CHUNK + 5)
          for seed in range(3)],
        ("two_point_1d", 3 * EVAL_CHUNK + 5, 0),
        ("gm6", 100_000, 1),
    ])
    def test_row_blocks_draw_the_one_shot_samples(self, gm, n, seed):
        gm = two_point_1d() if gm == "two_point_1d" else builtin_mixture(gm)
        assert np.array_equal(mq.sample(gm, n, seed), _one_shot_sample(gm, n, seed))

    def test_peak_memory_is_about_the_result(self):
        import tracemalloc

        n, gm = 100_000, builtin_mixture("gm6")
        mq.sample(gm, 10, seed=0)  # the generator's first use imports modules
        tracemalloc.start()
        try:
            mq.sample(gm, n, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * n * gm.dim * 8


def _one_shot_sample(gm, n, seed):
    """sample as it first ran: one draw and one product per component."""
    rng = np.random.default_rng(seed)
    comps = rng.choice(gm.n_components, size=n, p=gm.mix_weights)
    X = np.empty((n, gm.dim))
    for k in range(gm.n_components):
        mask = comps == k
        L = np.linalg.cholesky(gm.covariances[k])
        X[mask] = gm.means[k] + rng.standard_normal((int(mask.sum()), gm.dim)) @ L.T
    return X


class TestRawMoments:
    def test_standard_normal_moments(self):
        mom = mq.raw_moments(gauss1d(), 6)
        assert mom[(0,)] == 1.0
        assert_allclose(mom[(2,)], 1.0, rtol=1e-14)
        assert_allclose(mom[(4,)], 3.0, rtol=1e-14)
        assert_allclose(mom[(6,)], 15.0, rtol=1e-14)
        assert abs(mom[(1,)]) < 1e-15 and abs(mom[(3,)]) < 1e-15

    def test_independent_coordinates_factorize(self):
        gm = mq.GaussianMixture([1.0], [np.zeros(2)], [np.eye(2)])
        mom = mq.raw_moments(gm, 6)
        assert mom[(1, 1)] == 0.0
        assert_allclose(mom[(2, 4)], 3.0, rtol=1e-14)
        assert_allclose(mom[(4, 2)], 3.0, rtol=1e-14)
        assert_allclose(mom[(2, 2)], 1.0, rtol=1e-14)

    def test_two_point_mixture_moments(self):
        # per component: m4 = mu^4 + 6 mu^2 + 3 = 10 at mu = +-1
        mom = mq.raw_moments(two_point_1d(), 4)
        assert_allclose(mom[(1,)], 0.0, atol=1e-15)
        assert_allclose(mom[(2,)], 2.0, rtol=1e-14)
        assert_allclose(mom[(3,)], 0.0, atol=1e-14)
        assert_allclose(mom[(4,)], 10.0, rtol=1e-14)

    def test_diagonal_zero_mean_matches_double_factorial_products(self):
        sig = [0.7, 1.3, 0.4]
        gm = mq.GaussianMixture([1.0], [np.zeros(3)], [np.diag(np.array(sig) ** 2)])
        mom = mq.raw_moments(gm, 8)

        def uni(s, k):
            if k % 2 == 1:
                return 0.0
            m = k // 2
            dfact = 1.0
            for t in range(2 * m - 1, 0, -2):
                dfact *= t
            return s ** (2 * m) * dfact

        for g in mom.values:
            expect = uni(sig[0], g[0]) * uni(sig[1], g[1]) * uni(sig[2], g[2])
            if expect == 0.0:
                assert abs(mom[g]) < 1e-12
            else:
                assert_allclose(mom[g], expect, rtol=1e-10)

    def test_tensor_gauss_hermite_cross_check(self):
        """Independent oracle: transformed tensor Gauss-Hermite quadrature."""
        mean = np.array([0.3, -0.2])
        cov = np.array([[1.3, 0.6], [0.6, 0.9]])
        gm = mq.GaussianMixture([1.0], [mean], [cov])
        mom = mq.raw_moments(gm, 8)
        z, wz = hermegauss(16)  # exact for 1d polynomials to degree 31
        wz = wz / np.sqrt(2.0 * np.pi)
        L = np.linalg.cholesky(cov)
        pts = []
        wts = []
        for (i, zi), (j, zj) in product(enumerate(z), enumerate(z)):
            pts.append(mean + L @ np.array([zi, zj]))
            wts.append(wz[i] * wz[j])
        pts = np.array(pts)
        wts = np.array(wts)
        for g, val in mom.values.items():
            oracle = float(np.sum(wts * pts[:, 0] ** g[0] * pts[:, 1] ** g[1]))
            assert_allclose(val, oracle, rtol=1e-10, atol=1e-12, err_msg=f"gamma={g}")

    def test_mixture_moment_is_weighted_sum_of_components(self):
        gm = corr2d()
        mom = mq.raw_moments(gm, 5)
        parts = [
            mq.raw_moments(
                mq.GaussianMixture([1.0], [gm.means[k]], [gm.covariances[k]]), 5
            )
            for k in range(2)
        ]
        for g in mom.values:
            expect = 0.5 * parts[0][g] + 0.5 * parts[1][g]
            assert_allclose(mom[g], expect, rtol=1e-12, atol=1e-15)

    def test_component_permutation_invariance(self):
        gm = corr2d()
        swapped = mq.GaussianMixture(
            list(gm.mix_weights[::-1]),
            [gm.means[1], gm.means[0]],
            [gm.covariances[1], gm.covariances[0]],
        )
        ma = mq.raw_moments(gm, 6)
        mb = mq.raw_moments(swapped, 6)
        for g in ma.values:
            assert abs(ma[g] - mb[g]) <= 1e-12 * max(1.0, abs(ma[g]))

    def test_table_is_complete_with_unit_zero_entry(self):
        gm = corr2d()
        mom = mq.raw_moments(gm, 7)
        assert mom.values[(0, 0)] == 1.0
        assert len(mom.values) == comb(2 + 7, 2)
        for mi in mq.enumerate_indices(2, 7):
            assert mi.exponents in mom.values

    def test_monte_carlo_agreement_within_three_standard_errors(self):
        """Module invariant at unit scale; the acceptance suite runs the full one."""
        gm = corr2d()
        order = 6
        n = 2 * 10 ** 5
        table = mq.raw_moments(gm, 2 * order)
        X = mq.sample(gm, n, seed=0)
        for mi in mq.enumerate_indices(2, order):
            g = mi.exponents
            v = X[:, 0] ** g[0] * X[:, 1] ** g[1]
            m = table[g]
            var = table[(2 * g[0], 2 * g[1])] - m * m
            if var <= 0.0:
                continue
            z = abs(v.mean() - m) / np.sqrt(var / n)
            assert z <= 3.0, f"gamma={g}: z={z:.2f}"

    def test_overflow_reports_offending_gamma(self):
        gm = mq.GaussianMixture([1.0], [[0.0]], [[[1e250]]])
        with pytest.raises(mq.MomentOverflowError, match="gamma"):
            mq.raw_moments(gm, 16)
        try:
            mq.raw_moments(gm, 16)
        except mq.MomentOverflowError as exc:
            assert sum(exc.gamma) > 0

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            mq.raw_moments(gauss1d(), -1)

    @pytest.mark.parametrize("name", ["gm4", "gm6", "corr2d", "gauss1d", "two_point_1d"])
    def test_grade_at_once_recursion_is_bit_identical(self, name):
        gm = {"corr2d": corr2d, "gauss1d": gauss1d, "two_point_1d": two_point_1d}.get(
            name, lambda: builtin_mixture(name)
        )()
        for order in (0, 1, 8):
            got = mq.raw_moments(gm, order).values
            ref = _reference_raw_moments(gm, order)
            assert list(got) == list(ref)
            # bytes, so that -0.0 and 0.0 differ
            assert np.array(list(got.values())).tobytes() == np.array(list(ref.values())).tobytes()

    @pytest.mark.parametrize(
        "scales",
        [(1e250,), (1e250, 1.0), (1.0, 1e250), (1e120, 1e250)],
        ids=["one", "first", "second", "both"],
    )
    def test_overflow_names_the_gamma_and_component_of_the_recursion(self, scales):
        # with two components the first to overflow in component order is
        # named, even where a later component overflows at a lower order
        K = len(scales)
        cov = np.array([[1.0, 0.3], [0.3, 0.5]])
        gm = mq.GaussianMixture(
            [1.0 / K] * K, [[0.2 * k, -0.1] for k in range(K)], [s * cov for s in scales]
        )
        gamma, component = _reference_raw_moments(gm, 16)
        with pytest.raises(mq.MomentOverflowError) as info:
            mq.raw_moments(gm, 16)
        assert info.value.gamma == gamma and info.value.component == component
        assert str(info.value) == str(mq.MomentOverflowError(gamma, component))


class TestMixtureJson:
    def test_schema_keys_and_order(self):
        obj = json.loads(mq.mixture_to_json(two_point_1d()))
        assert list(obj.keys()) == ["dim", "components"]
        assert list(obj["components"][0].keys()) == ["weight", "mean", "cov"]

    def test_declared_dimension_mismatch_rejected(self):
        text = json.dumps(
            {
                "dim": 3,
                "components": [{"weight": 1.0, "mean": [0.0], "cov": [[1.0]]}],
            }
        )
        with pytest.raises(ValueError, match="dim"):
            mq.mixture_from_json(text)
