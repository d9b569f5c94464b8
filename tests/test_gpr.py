"""GP predictive distributions and their Kriging equivalences."""

import numpy as np
import pytest

from gpkrige import (
    Dataset,
    InputError,
    KernelSpec,
    MeanSpec,
    NumericalError,
    build_gram,
    gpr_predict,
    gpr_predict_basis,
    kernel_matrix,
    ordinary_krige,
    simple_krige,
    universal_krige,
)
from gpkrige.gpr import GaussianPredictive
from gpkrige.kriging import _Engine
from gpkrige.oracle import joint_prior
from helpers import random_instance, random_spd

SE1 = KernelSpec("squared_exponential", 1.0, (1.0,))
ZERO_MEAN = MeanSpec.known_constant(0.0)


class TestJointPrior:
    def test_no_test_points_returns_training_blocks(self):
        data = Dataset([[0.0], [1.0]], [1.0, 2.0], noise_variance=0.1)
        mean_vec, cov = joint_prior(data, SE1, ZERO_MEAN, np.empty((0, 1)))
        np.testing.assert_allclose(mean_vec, [0.0, 0.0])
        np.testing.assert_allclose(cov, build_gram(SE1, data.x, 0.1))

    def test_duplicated_location_block(self):
        data = Dataset([[0.0]], [1.0])
        _, cov = joint_prior(data, SE1, ZERO_MEAN, [[0.0]])
        np.testing.assert_allclose(cov, np.ones((2, 2)))

    def test_blocks_match_elementwise_kernel(self):
        data = Dataset([[0.0], [1.0]], [1.0, 2.0], noise_variance=0.2)
        xs = np.array([[0.5]])
        mean_vec, cov = joint_prior(data, SE1, ZERO_MEAN, xs)
        assert mean_vec.shape == (3,)
        np.testing.assert_allclose(cov[:2, :2], build_gram(SE1, data.x, 0.2))
        np.testing.assert_allclose(cov[:2, 2:], kernel_matrix(SE1, data.x, xs))
        assert cov[2, 2] == 1.0
        # noise never reaches the test block
        np.testing.assert_allclose(cov, cov.T)

    def test_kernel_dimension_mismatch_rejected(self):
        data = Dataset([[0.0, 0.0], [1.0, 0.5]], [1.0, 2.0])
        with pytest.raises(InputError, match="kernel dimension 1"):
            joint_prior(data, SE1, ZERO_MEAN, [[0.5, 0.5]])


class TestGaussianPredictive:
    def test_negative_variance_beyond_tolerance_raises(self):
        with pytest.raises(NumericalError, match="negative beyond tolerance"):
            GaussianPredictive(mean=[0.0, 0.0], covariance=np.diag([1.0, -1e-6]))

    def test_round_off_negative_variance_is_clamped(self):
        post = GaussianPredictive(mean=[0.0, 0.0], covariance=np.diag([1.0, -1e-12]))
        assert post.variance.tolist() == [1.0, 0.0]

    def test_entries_above_half_the_float_max_stay_finite(self):
        # symmetrized by halves: the sum of cov and cov^T would overflow
        big = np.array([[1e308, 0.0], [0.0, 1e308]])
        np.testing.assert_array_equal(GaussianPredictive(np.zeros(2), big).covariance, big)

    def test_covariance_shape_must_match_mean(self):
        with pytest.raises(InputError, match="does not match 2 means"):
            GaussianPredictive(mean=[0.0, 0.0], covariance=np.eye(3))

    @pytest.mark.parametrize("mean, cov, name", [
        (["1.5", True], np.eye(2), "mean must be numeric"),
        ([1.5, 1.0], [["1", 0], [0, 1]], "covariance must be numeric"),
        ([1.5, np.inf], np.eye(2), "mean must be finite"),
        ([1.5, 1.0], [[1.0, 0.0], [0.0, np.nan]], "covariance must be finite"),
    ])
    def test_numbers_go_through_the_shared_validator(self, mean, cov, name):
        # each of these was once read as a number or kept as NaN
        with pytest.raises(InputError, match=name):
            GaussianPredictive(mean=mean, covariance=cov)


class TestGprPredict:
    def test_exact_at_training_point(self):
        data = Dataset([[0.0], [1.0]], [1.0, 2.0])
        post = gpr_predict(data, SE1, ZERO_MEAN, [[1.0]])
        assert post.mean[0] == pytest.approx(2.0, abs=1e-9)
        assert post.variance[0] <= 1e-9

    def test_equals_simple_kriging_examples(self):
        data = Dataset([[0.0], [1.0]], [1.0, 2.0])
        post = gpr_predict(data, SE1, ZERO_MEAN, [[0.5]])
        sk = simple_krige(data, SE1, ZERO_MEAN, [0.5])
        assert post.mean[0] == pytest.approx(sk.mean, abs=1e-12)
        assert post.variance[0] == pytest.approx(sk.error_variance, abs=1e-12)

    def test_duplicated_test_points_give_identical_rows(self):
        data = Dataset([[0.0], [2.0]], [1.0, -1.0])
        post = gpr_predict(data, SE1, ZERO_MEAN, [[0.7], [0.7]])
        np.testing.assert_allclose(post.covariance[0], post.covariance[1], atol=1e-12)
        assert post.mean[0] == post.mean[1]

    def test_sk_equivalence_random_instances(self):
        # 50 instances, with and without noise
        rng = np.random.default_rng(40)
        for i in range(50):
            noise = 0.0 if i % 2 == 0 else 0.1
            data, kernel, _ = random_instance(rng, n=int(rng.integers(2, 31)),
                                              noise=noise)
            xs = rng.uniform(0, 4, (3, data.dim))
            post = gpr_predict(data, kernel, ZERO_MEAN, xs)
            for j in range(3):
                sk = simple_krige(data, kernel, ZERO_MEAN, xs[j])
                assert abs(post.mean[j] - sk.mean) <= 1e-9 * max(1.0, abs(sk.mean))
                assert abs(post.variance[j] - sk.error_variance) <= 1e-9

    def test_posterior_never_exceeds_prior_variance(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            data, kernel, _ = random_instance(rng, n=8)
            xs = rng.uniform(0, 4, (5, data.dim))
            post = gpr_predict(data, kernel, ZERO_MEAN, xs)
            assert np.all(post.variance <= kernel.variance + 1e-12)

    def test_monotone_information(self):
        # conditioning on one more observation cannot raise the variance
        rng = np.random.default_rng(42)
        for _ in range(10):
            data, kernel, xstar = random_instance(rng, n=7, dim=1)
            smaller = Dataset(data.x[:-1], data.y[:-1], data.noise_variance)
            v_small = gpr_predict(smaller, kernel, ZERO_MEAN, [xstar]).variance[0]
            v_full = gpr_predict(data, kernel, ZERO_MEAN, [xstar]).variance[0]
            assert v_full <= v_small + 1e-10

    def test_posterior_covariance_psd(self):
        rng = np.random.default_rng(43)
        data, kernel, _ = random_instance(rng, n=10, dim=2)
        xs = rng.uniform(0, 4, (6, 2))
        post = gpr_predict(data, kernel, ZERO_MEAN, xs)
        eig = np.linalg.eigvalsh(post.covariance)
        assert eig.min() >= -1e-9

    def test_observation_space_option_adds_noise(self):
        data = Dataset([[0.0], [1.0]], [1.0, 2.0], noise_variance=0.3)
        latent = gpr_predict(data, SE1, ZERO_MEAN, [[0.5]])
        observed = gpr_predict(data, SE1, ZERO_MEAN, [[0.5]], observe_noise=True)
        assert observed.variance[0] == pytest.approx(latent.variance[0] + 0.3)
        assert observed.mean[0] == latent.mean[0]


class TestGprPredictBasis:
    def test_noninformative_constant_equals_ordinary(self):
        rng = np.random.default_rng(44)
        one = MeanSpec.basis([lambda x: 1.0])
        for _ in range(10):
            data, kernel, xstar = random_instance(rng, n=8)
            post = gpr_predict_basis(data, kernel, one, [xstar])
            ok = ordinary_krige(data, kernel, xstar)
            assert abs(post.mean[0] - ok.mean) <= 1e-8 * max(1.0, abs(ok.mean))
            assert abs(post.variance[0] - ok.error_variance) <= 1e-8

    def test_noninformative_basis_equals_universal(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            data, kernel, xstar = random_instance(rng, n=9, dim=1)
            mean = MeanSpec.polynomial(1, 1)
            post = gpr_predict_basis(data, kernel, mean, [xstar])
            uk = universal_krige(data, kernel, mean, xstar)
            assert abs(post.mean[0] - uk.mean) <= 1e-8 * max(1.0, abs(uk.mean))
            assert abs(post.variance[0] - uk.error_variance) <= 1e-8

    def test_noninformative_independent_of_prior_mean(self):
        rng = np.random.default_rng(46)
        data, kernel, xstar = random_instance(rng, n=8, dim=1)
        a = gpr_predict_basis(
            data, kernel, MeanSpec.polynomial(1, 1, prior_mean=[0.0, 0.0]), [xstar]
        )
        b = gpr_predict_basis(
            data, kernel, MeanSpec.polynomial(1, 1, prior_mean=[37.0, -5.0]), [xstar]
        )
        assert abs(a.mean[0] - b.mean[0]) <= 1e-12
        assert abs(a.variance[0] - b.variance[0]) <= 1e-12

    def test_diffuse_prior_converges_to_noninformative(self):
        rng = np.random.default_rng(47)
        data, kernel, xstar = random_instance(rng, n=8, dim=1)
        flat = gpr_predict_basis(data, kernel, MeanSpec.polynomial(1, 1), [xstar])
        diffuse = MeanSpec.polynomial(1, 1, prior_mean=[1.0, 1.0],
                                      prior_cov=1e8 * np.eye(2))
        post = gpr_predict_basis(data, kernel, diffuse, [xstar])
        assert abs(post.mean[0] - flat.mean[0]) <= 1e-5
        assert abs(post.variance[0] - flat.variance[0]) <= 1e-5

    def test_degenerate_prior_pins_coefficients(self):
        rng = np.random.default_rng(48)
        data, kernel, xstar = random_instance(rng, n=7, dim=1)
        b = [0.7, -0.2]
        pinned = MeanSpec.polynomial(1, 1, prior_mean=b, prior_cov=1e-12 * np.eye(2))
        post = gpr_predict_basis(data, kernel, pinned, [xstar])
        known = gpr_predict(data, kernel,
                            MeanSpec.polynomial(1, 1, coefficients=b), [xstar])
        assert abs(post.mean[0] - known.mean[0]) <= 1e-8
        assert abs(post.variance[0] - known.variance[0]) <= 1e-8

    def test_finite_prior_matches_dense_conditioning_oracle(self):
        # condition the joint Gaussian [Y, Z*] directly at a moderate prior
        # beta ~ N(b, B): Y ~ N(Mb, S + M B M^T), Cov(Y, Z*) = K* + M B F*^T,
        # Cov(Z*) = K** + F* B F*^T; means and the full m x m covariance
        rng = np.random.default_rng(49)
        data, kernel, xstar = random_instance(rng, n=7, dim=1)
        cases = [(data, kernel, np.array([xstar]), np.array([[2.0, 0.3], [0.3, 1.0]]),
                  np.array([0.4, -0.1]))]
        for noise in (0.0, 0.1):
            data, kernel, _ = random_instance(rng, n=20, dim=2, noise=noise)
            xs = rng.uniform(data.x.min(axis=0), data.x.max(axis=0), (6, 2))
            cases.append((data, kernel, xs, random_spd(rng, 3), rng.normal(size=3)))
        for data, kernel, xs, prior_cov, b in cases:
            mean = MeanSpec.polynomial(data.dim, 1, prior_mean=b, prior_cov=prior_cov)
            post = gpr_predict_basis(data, kernel, mean, xs)

            m = np.hstack([np.ones((data.n, 1)), data.x])
            ms = np.hstack([np.ones((len(xs), 1)), xs])
            v = m @ prior_cov @ m.T + build_gram(kernel, data.x, data.noise_variance)
            c = m @ prior_cov @ ms.T + kernel_matrix(kernel, data.x, xs)
            vss = ms @ prior_cov @ ms.T + build_gram(kernel, xs)
            sol = np.linalg.solve(v, np.column_stack([c, data.y - m @ b]))
            oracle_mean = ms @ b + c.T @ sol[:, -1]
            oracle_cov = vss - c.T @ sol[:, :-1]
            np.testing.assert_allclose(post.mean, oracle_mean, rtol=0, atol=1e-9)
            np.testing.assert_allclose(post.covariance, oracle_cov, rtol=0, atol=1e-9)

    def test_prior_must_be_positive_definite(self):
        data = Dataset([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
        bad = MeanSpec.polynomial(1, 1, prior_cov=np.zeros((2, 2)))
        with pytest.raises(InputError):
            gpr_predict_basis(data, SE1, bad, [[0.5]])

    def test_known_mean_rejected(self):
        data = Dataset([[0.0], [1.0]], [0.0, 1.0])
        with pytest.raises(InputError):
            gpr_predict_basis(data, SE1, ZERO_MEAN, [[0.5]])


class TestMapPredict:
    def test_symmetric_ok_case(self):
        data = Dataset([[0.0], [1.0]], [1.0, 2.0])
        post = gpr_predict_basis(data, SE1, MeanSpec.basis([lambda x: 1.0]), [[0.5]])
        assert post.mean[0] == pytest.approx(1.5, abs=1e-10)


@pytest.mark.parametrize("predict, variant, mean", [
    (gpr_predict, "gpr", MeanSpec.known_constant(0.5)),
    (gpr_predict_basis, "gpr-basis", MeanSpec.polynomial(2, 1)),
    (gpr_predict_basis, "gpr-basis", MeanSpec.polynomial(2, 1, prior_mean=[0.0, 1.0, 0.0],
                                                         prior_cov=np.diag([1.0, 2.0, 0.5]))),
], ids=["gpr", "gpr-basis", "gpr-basis-prior"])
def test_off_diagonal_is_the_engine_posterior_cov(predict, variant, mean):
    # off the diagonal, which holds the engine's clamped variances, the joint
    # covariance is the engine's K** - V^T V + Gamma h^T, symmetrized by halves
    rng = np.random.default_rng(44)
    data, kernel, _ = random_instance(rng, n=15, dim=2, noise=0.1)
    xs = rng.uniform(0.0, 6.0, (7, 2))
    engine = _Engine(data, kernel, xs)
    cov = engine.posterior_cov(engine.predict(variant, mean))
    off = ~np.eye(7, dtype=bool)
    np.testing.assert_array_equal(predict(data, kernel, mean, xs).covariance[off],
                                  (0.5 * cov + 0.5 * cov.T)[off])
