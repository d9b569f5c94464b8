"""Simple/Ordinary/Universal Kriging, GLS estimators, and path equivalences."""

import dataclasses
import math

import numpy as np
import pytest

from gpkrige import (
    Dataset,
    InputError,
    KernelSpec,
    MeanSpec,
    NumericalError,
    SingularityError,
    build_gram,
    gls_beta,
    gpr_predict,
    kernel_matrix,
    ls_predict,
    ordinary_krige,
    predict_points,
    sample_field,
    simple_krige,
    universal_krige,
)
from gpkrige import kriging, linalg
from gpkrige.kernels import KERNEL_FAMILIES
from gpkrige.kriging import _Engine
from gpkrige.linalg import spd_factor
from gpkrige.oracle import (
    _direct_route,
    _plugin_route,
    gls_constant,
    joint_prior,
    ordinary_krige_direct,
    sk_with_plugin_mean,
)
from helpers import ONE_BLOCK, random_instance

SE1 = KernelSpec("squared_exponential", 1.0, (1.0,))
WHITE = KernelSpec("white_noise_only", 1.0, (1.0,))
ZERO_MEAN = MeanSpec.known_constant(0.0)


def dense_blup_oracle(data, kernel, mean_values, mean_star, xstar):
    """Evaluate the known-mean BLUP formulas with a plain dense solve."""
    gram = build_gram(kernel, data.x, data.noise_variance)
    kstar = kernel_matrix(kernel, data.x, [xstar])[:, 0]
    s = np.linalg.solve(gram, kstar)
    mean = mean_star + s @ (data.y - mean_values)
    estimator_var = kstar @ s
    return mean, kernel.variance - estimator_var, estimator_var


class TestBlupGeneral:
    def test_single_point_exact(self):
        data = Dataset([[0.0]], [2.0])
        p = simple_krige(data, SE1, ZERO_MEAN, [0.0])
        assert p.mean == pytest.approx(2.0, abs=1e-12)
        assert p.error_variance == pytest.approx(0.0, abs=1e-12)

    def test_decorrelation_limit(self):
        data = Dataset([[0.0]], [2.0])
        p = simple_krige(data, SE1, ZERO_MEAN, [1e6])
        assert p.mean == pytest.approx(0.0, abs=1e-12)
        assert p.error_variance == pytest.approx(1.0, abs=1e-12)

    def test_noisy_two_points_against_dense_oracle(self):
        data = Dataset([[0.0], [1.0]], [1.0, 2.0], noise_variance=0.5)
        p = simple_krige(data, SE1, ZERO_MEAN, [0.0])
        mean, err, est = dense_blup_oracle(data, SE1, np.zeros(2), 0.0, [0.0])
        assert p.mean == pytest.approx(mean, abs=1e-12)
        assert p.error_variance == pytest.approx(err, abs=1e-12)
        assert p.estimator_variance == pytest.approx(est, abs=1e-12)

    def test_error_variance_independent_of_y(self):
        rng = np.random.default_rng(20)
        x = rng.uniform(0, 5, (6, 1))
        a = simple_krige(Dataset(x, rng.normal(size=6)), SE1, ZERO_MEAN, [2.0])
        b = simple_krige(Dataset(x, rng.normal(size=6) + 7.0), SE1, ZERO_MEAN, [2.0])
        assert a.error_variance == b.error_variance
        assert a.estimator_variance == b.estimator_variance

    def test_sk_variance_decomposition(self):
        # noise-free: error variance = V[Z*] - V[T(Y)]
        rng = np.random.default_rng(21)
        for _ in range(10):
            data, kernel, xstar = random_instance(rng, n=8)
            p = simple_krige(data, kernel, ZERO_MEAN, xstar)
            assert p.error_variance == pytest.approx(
                kernel.variance - p.estimator_variance, abs=1e-9
            )

    def test_lam0_identity(self):
        mean = MeanSpec.known(lambda x: 2.0 + 0.5 * x[0])
        data = Dataset([[0.0], [2.0]], [3.0, 1.0])
        p = simple_krige(data, SE1, mean, [1.0])
        m_vec = np.array([2.0, 3.0])
        assert p.weights.lam0 == pytest.approx(2.5 - p.weights.lam @ m_vec, abs=1e-10)

    def test_unidentified_mean_rejected(self):
        data = Dataset([[0.0]], [1.0])
        with pytest.raises(InputError):
            simple_krige(data, SE1, MeanSpec.constant_unknown(), [0.0])


class TestSimpleKrige:
    def test_zero_residuals_return_trend(self):
        mean = MeanSpec.known(lambda x: 1.0 + x[0])
        x = np.array([[0.0], [1.0], [2.0]])
        data = Dataset(x, 1.0 + x[:, 0])
        p = simple_krige(data, SE1, mean, [0.7])
        assert p.mean == pytest.approx(1.7, abs=1e-12)

    def test_exact_interpolation(self):
        data = Dataset([[0.0], [1.0], [3.0]], [1.0, 2.0, 0.0])
        for i in range(3):
            p = simple_krige(data, SE1, ZERO_MEAN, data.x[i])
            assert p.mean == pytest.approx(data.y[i], abs=1e-9)
            assert p.error_variance <= 1e-9

    def test_symmetric_midpoint_closed_form(self):
        data = Dataset([[0.0], [1.0]], [1.0, 2.0])
        p = simple_krige(data, SE1, ZERO_MEAN, [0.5])
        expected = math.exp(-0.125) * 3.0 / (1.0 + math.exp(-0.5))
        assert p.mean == pytest.approx(expected, abs=1e-12)
        mean, err, _ = dense_blup_oracle(data, SE1, np.zeros(2), 0.0, [0.5])
        assert p.mean == pytest.approx(mean, abs=1e-12)
        assert p.error_variance == pytest.approx(err, abs=1e-12)

    def test_duplicate_points_raise_singularity(self):
        data = Dataset([[0.0], [0.0]], [1.0, 2.0])
        with pytest.raises(SingularityError):
            simple_krige(data, SE1, ZERO_MEAN, [0.5])

    def test_duplicate_points_fine_with_noise(self):
        data = Dataset([[0.0], [0.0]], [1.0, 2.0], noise_variance=0.3)
        p = simple_krige(data, SE1, ZERO_MEAN, [0.5])
        assert np.isfinite(p.mean)


def residual_sk(data, kernel, mean, xstar):
    """Run SK with a known mean and zero-mean SK of the residuals y - m(X)."""
    m = mean.function or (lambda x: mean.constant)
    m_vec = np.array([m(row) for row in data.x])
    a = simple_krige(data, kernel, mean, xstar)
    b = simple_krige(dataclasses.replace(data, y=data.y - m_vec), kernel, ZERO_MEAN, xstar)
    return a, b, m(np.atleast_1d(xstar)), m_vec


class TestMeanSubtractionRoute:
    # SK with a known mean m is zero-mean SK of the residuals y - m(X) with
    # m(x*) added back, and lam0 = m(x*) - lam . m(X)
    def test_identical_on_examples(self):
        mean = MeanSpec.known(lambda x: 1.0 + x[0])
        data = Dataset([[0.0], [1.0], [3.0]], [1.0, 2.0, 0.0])
        for xstar in ([0.5], [2.0], [3.0]):
            a, b, m_star, m_vec = residual_sk(data, SE1, mean, xstar)
            assert abs(a.mean - (m_star + b.mean)) <= 1e-12
            assert abs(a.error_variance - b.error_variance) <= 1e-12
            np.testing.assert_allclose(a.weights.lam, b.weights.lam, atol=1e-12)
            assert abs(a.weights.lam0 - (m_star - b.weights.lam @ m_vec)) <= 1e-12

    def test_zero_mean_trivially_identical(self):
        data = Dataset([[0.0], [2.0]], [1.0, -1.0])
        a, b, m_star, _ = residual_sk(data, SE1, ZERO_MEAN, [1.0])
        assert a.mean == m_star + b.mean

    def test_random_instances(self):
        rng = np.random.default_rng(22)
        mean = MeanSpec.known(lambda x: 2.0 - 0.3 * x[0])
        for _ in range(10):
            data, kernel, xstar = random_instance(rng, n=5, dim=1)
            a, b, m_star, _ = residual_sk(data, kernel, mean, xstar)
            assert abs(a.mean - (m_star + b.mean)) <= 1e-12
            assert abs(a.error_variance - b.error_variance) <= 1e-12


class TestOrdinaryKrige:
    def test_white_noise_degenerates_to_sample_mean(self):
        data = Dataset([[0.0], [1.0], [2.0]], [1.0, 2.0, 3.0])
        p = ordinary_krige(data, WHITE, [0.5])
        np.testing.assert_allclose(p.weights.lam, np.full(3, 1.0 / 3.0), atol=1e-12)
        assert p.mean == pytest.approx(2.0, abs=1e-12)
        assert p.weights.mu_tilde[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_symmetric_pair(self):
        data = Dataset([[0.0], [1.0]], [1.0, 2.0])
        p = ordinary_krige(data, SE1, [0.5])
        np.testing.assert_allclose(p.weights.lam, [0.5, 0.5], atol=1e-12)
        assert p.mean == pytest.approx(1.5, abs=1e-12)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            data, kernel, xstar = random_instance(rng)
            p = ordinary_krige(data, kernel, xstar)
            assert abs(p.weights.lam.sum() - 1.0) <= 1e-10

    def test_n1_degenerate(self):
        data = Dataset([[0.0]], [4.0])
        p = ordinary_krige(data, SE1, [2.0])
        np.testing.assert_allclose(p.weights.lam, [1.0], atol=1e-12)
        expected_mu = 1.0 - math.exp(-2.0)
        assert p.weights.mu_tilde[0] == pytest.approx(expected_mu, abs=1e-12)
        assert p.mean == 4.0

    def test_variance_decomposition_formula(self):
        # error variance = SK part + (1 - 1' S^-1 k*)^2 / (1' S^-1 1)
        rng = np.random.default_rng(24)
        for _ in range(10):
            data, kernel, xstar = random_instance(rng, n=9)
            gram = build_gram(kernel, data.x, 0.0)
            kstar = kernel_matrix(kernel, data.x, [xstar])[:, 0]
            s = np.linalg.solve(gram, kstar)
            w = np.linalg.solve(gram, np.ones(data.n))
            expected = (kernel.variance - kstar @ s
                        + (1.0 - s.sum()) ** 2 / w.sum())
            p = ordinary_krige(data, kernel, xstar)
            assert p.error_variance == pytest.approx(expected, abs=1e-9)

    def test_compact_variance_form(self):
        # sigma*^2 - lam'k* + mu_tilde (stored sign) equals the expanded form
        rng = np.random.default_rng(55)
        for _ in range(10):
            data, kernel, xstar = random_instance(rng, n=8)
            p = ordinary_krige(data, kernel, xstar)
            kstar = kernel_matrix(kernel, data.x, [xstar])[:, 0]
            compact = (kernel.variance - p.weights.lam @ kstar
                       + p.weights.mu_tilde[0])
            assert abs(compact - p.error_variance) <= 1e-9


class TestOrdinaryKrigeDirect:
    def test_agrees_with_block_path(self):
        cases = [
            (Dataset([[0.0], [1.0], [2.0]], [1.0, 2.0, 3.0]), WHITE, [0.5]),
            (Dataset([[0.0], [1.0]], [1.0, 2.0]), SE1, [0.5]),
            (Dataset([[0.0], [1.0], [3.0]], [1.0, 2.0, 0.0]), SE1, [0.5]),
        ]
        for data, kernel, xstar in cases:
            a = ordinary_krige(data, kernel, xstar)
            b = ordinary_krige_direct(data, kernel, xstar)
            assert abs(a.mean - b.mean) <= 1e-10
            assert abs(a.error_variance - b.error_variance) <= 1e-10
            np.testing.assert_allclose(a.weights.lam, b.weights.lam, atol=1e-10)
            np.testing.assert_allclose(a.weights.mu_tilde, b.weights.mu_tilde,
                                       atol=1e-10)

    def test_random_instances(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            data, kernel, xstar = random_instance(rng)
            a = ordinary_krige(data, kernel, xstar)
            b = ordinary_krige_direct(data, kernel, xstar)
            assert abs(a.mean - b.mean) <= 1e-10 * max(1.0, abs(a.mean))
            assert abs(a.error_variance - b.error_variance) <= 1e-10


class TestGls:
    def test_constant_white_noise_is_sample_mean(self):
        data = Dataset([[0.0], [1.0], [2.0]], [1.0, 2.0, 3.0])
        assert gls_constant(data, WHITE) == pytest.approx(2.0, abs=1e-12)

    def test_constant_single_point(self):
        assert gls_constant(Dataset([[0.0]], [4.0]), SE1) == pytest.approx(4.0)

    def test_constant_symmetric_pair(self):
        data = Dataset([[0.0], [1.0]], [1.0, 2.0])
        assert gls_constant(data, SE1) == pytest.approx(1.5, abs=1e-12)

    def test_beta_reduces_to_constant(self):
        rng = np.random.default_rng(26)
        one = MeanSpec.basis([lambda x: 1.0])
        for _ in range(20):
            data, kernel, _ = random_instance(rng, n=8)
            beta = gls_beta(data, kernel, one)
            assert abs(beta[0] - gls_constant(data, kernel)) <= 1e-12

    def test_beta_exact_linear_data_white_noise(self):
        data = Dataset([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
        beta = gls_beta(data, WHITE, MeanSpec.polynomial(1, 1))
        np.testing.assert_allclose(beta, [0.0, 1.0], atol=1e-12)

    def test_beta_normal_equation_residual(self):
        rng = np.random.default_rng(27)
        mean = MeanSpec.polynomial(1, 1)
        for _ in range(10):
            data, kernel, _ = random_instance(rng, n=6, dim=1)
            beta = gls_beta(data, kernel, mean)
            gram = build_gram(kernel, data.x, 0.0)
            m = np.hstack([np.ones((6, 1)), data.x])
            resid = m.T @ np.linalg.solve(gram, data.y - m @ beta)
            assert np.abs(resid).max() <= 1e-9

    def test_rank_deficient_basis_rejected(self):
        data = Dataset([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
        dup = MeanSpec.basis([lambda x: 1.0, lambda x: 1.0])
        with pytest.raises(SingularityError, match="linearly dependent"):
            gls_beta(data, SE1, dup)


@pytest.mark.parametrize("call", [
    lambda data, known, unknown: sk_with_plugin_mean(data, SE1, known, [0.5]),
    lambda data, known, unknown: gls_beta(data, SE1, known),
    lambda data, known, unknown: ls_predict(data, known, [0.5]),
    lambda data, known, unknown: joint_prior(data, SE1, unknown, [[0.5]]),
    lambda data, known, unknown: sample_field(SE1, unknown, data.x, 0.0, 1),
    lambda data, known, unknown: predict_points(data, SE1, [[0.5]], "sk", unknown),
    lambda data, known, unknown: gpr_predict(data, SE1, unknown, [[0.5]]),
], ids=["sk_with_plugin_mean", "gls_beta", "ls_predict", "joint_prior", "sample_field",
        "predict_points_sk", "gpr_predict"])
def test_bad_mean_rejected_before_factoring(call):
    # the Gram of two identical noise-free points is singular, so only a
    # mean check that runs before any factorization can raise InputError
    data = Dataset([[0.0], [0.0]], [1.0, 1.0])
    with pytest.raises(InputError):
        call(data, MeanSpec.known_constant(1.0), MeanSpec.constant_unknown())


@pytest.mark.parametrize("max_jitter", ["1e-6", True, -1.0, math.inf])
@pytest.mark.parametrize("call", [
    lambda data, jitter: ordinary_krige(data, SE1, [0.5], max_jitter=jitter),
    lambda data, jitter: predict_points(data, SE1, [[0.5]], "ok", max_jitter=jitter),
    lambda data, jitter: gls_beta(data, SE1, MeanSpec.polynomial(1, 1), max_jitter=jitter),
    lambda data, jitter: gpr_predict(data, SE1, ZERO_MEAN, [[0.5]], max_jitter=jitter),
    lambda data, jitter: ordinary_krige_direct(data, SE1, [0.5], max_jitter=jitter),
], ids=["ordinary_krige", "predict_points", "gls_beta", "gpr_predict",
        "ordinary_krige_direct"])
def test_bad_max_jitter_rejected_before_factoring(monkeypatch, call, max_jitter):
    def no_cholesky(a):
        raise AssertionError("a Cholesky was attempted")

    monkeypatch.setattr(linalg, "_try_cholesky", no_cholesky)
    data = Dataset([[0.0], [1.0], [2.0]], [1.0, 2.0, 0.5])
    with pytest.raises(InputError, match="max_jitter must be"):
        call(data, max_jitter)


@pytest.mark.parametrize("call", [
    lambda data, mean: predict_points(data, SE1, [[0.5]], "uk", mean),
    lambda data, mean: ls_predict(data, mean, [0.5]),
    lambda data, mean: sk_with_plugin_mean(data, SE1, mean, [0.5]),
], ids=["predict_points_uk", "ls_predict", "sk_with_plugin_mean"])
def test_basis_size_checked_before_the_basis_is_built(monkeypatch, call):
    # a degree-5 basis has 6 functions, more than the 3 observations
    def no_basis(*args):
        raise AssertionError("the basis was evaluated")

    monkeypatch.setattr(kriging, "basis_matrix", no_basis)
    data = Dataset([[0.0], [1.0], [2.0]], [1.0, 2.0, 0.5])
    with pytest.raises(InputError, match="6 basis functions exceed 3 observations"):
        call(data, MeanSpec.polynomial(1, 5))


def test_engine_remembers_a_failed_factor(monkeypatch):
    # each use raises its own error, unchained, without refactoring S
    orders, factor = [], kriging._factor_in_place

    def counted(a, *args, **kwargs):
        orders.append(len(a))
        return factor(a, *args, **kwargs)

    monkeypatch.setattr(kriging, "_factor_in_place", counted)
    engine = _Engine(Dataset([[0.0], [0.0]], [1.0, 2.0]), SE1, np.array([[0.5]]))
    errors = []
    for observing in (False, False, True):
        user = engine.observing(np.array([3.0, 4.0])) if observing else engine
        with pytest.raises(SingularityError) as err:
            user.predict("sk", MeanSpec.known_constant(0.0))
        errors.append(err.value)
    assert orders == [2]
    assert len({id(e) for e in errors}) == 3
    for e in errors:
        assert (str(e), e.pivot) == (str(errors[0]), 1)
        assert e.__cause__ is None and e.__context__ is None


def test_engine_batches_follow_the_responses():
    # a mean assumption is fitted once per engine, whichever variant
    # resolves to it; a copy observing other responses fits it afresh
    data = Dataset([[0.0], [1.0], [2.0]], [1.0, 2.0, 0.5])
    xs = np.array([[0.5], [1.5]])
    engine = _Engine(data, SE1, xs)
    known = MeanSpec.known_constant(0.25)
    sk = engine.predict("sk", known)
    assert engine.predict("gpr", known) is sk
    assert engine.predict("ok") is engine.predict("uk", MeanSpec.constant_unknown())
    y = np.array([-1.0, 0.0, 3.0])
    observed = engine.observing(y).predict("sk", known)
    fresh = _Engine(dataclasses.replace(data, y=y), SE1, xs).predict("sk", known)
    assert observed is not sk
    np.testing.assert_array_equal(observed.mean, fresh.mean)
    assert not np.array_equal(observed.mean, sk.mean)


@pytest.mark.parametrize("n", [1, 2, ONE_BLOCK - 1, ONE_BLOCK + 1, 600])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("family", sorted(KERNEL_FAMILIES))
def test_engine_factor_is_the_public_factor(family, dim, n):
    # S factored in the buffer its upper triangle was built in is, bit for
    # bit, spd_factor's factor of build_gram's full, checked Gram
    rng = np.random.default_rng(n + 10 * dim)
    data = Dataset(rng.uniform(0.0, 3.0, (n, dim)), rng.normal(size=n), 1e-3)
    kernel = KernelSpec(family, 1.3, tuple(rng.uniform(0.2, 1.5, dim)))
    factor = kriging._factor_observation_cov(data, kernel, 0.0)
    public = spd_factor(build_gram(kernel, data.x, data.noise_variance))
    assert factor.jitter_used == public.jitter_used == 0.0
    assert factor.chol.flags.f_contiguous and public.chol.flags.f_contiguous
    np.testing.assert_array_equal(factor.chol, public.chol)


@pytest.mark.parametrize("refused", [0, 2])
@pytest.mark.parametrize("family", ["squared_exponential", "matern52"])
def test_engine_jitter_retries_start_from_an_untouched_s(monkeypatch, family, refused):
    # coincident points make the noise-free S singular; the first ``refused``
    # jittered attempts are reported failed after LAPACK has overwritten
    # their input, so the engine's factor is the public one only if every
    # retry starts from an untouched S
    cholesky, calls = linalg._try_cholesky, []

    def refusing(a):
        chol, pivot = cholesky(a)
        calls.append(a.shape[0])
        return (None, 0) if 1 < len(calls) <= 1 + refused else (chol, pivot)

    monkeypatch.setattr(linalg, "_try_cholesky", refusing)
    x = np.repeat(np.random.default_rng(4).uniform(0.0, 1.0, (40, 2)), 2, axis=0)
    data, kernel = Dataset(x, np.zeros(80)), KernelSpec(family, 1.0, (0.3, 0.3))
    factor = kriging._factor_observation_cov(data, kernel, 1e-6)
    calls.clear()
    public = spd_factor(build_gram(kernel, x, 0.0), max_jitter=1e-6)
    assert factor.jitter_used == public.jitter_used == pytest.approx(1e-12 * 10.0 ** refused)
    np.testing.assert_array_equal(factor.chol, public.chol)


def test_compact_and_expanded_ok_variances_must_agree(monkeypatch):
    # the OK weights check the engine's expanded variance against the
    # classic compact form; a variance that drifts from it is an error
    predict = _Engine.predict

    def drifted(self, variant, mean=None):
        batch = predict(self, variant, mean)
        return dataclasses.replace(batch, variance=batch.variance + 1e-6)

    monkeypatch.setattr(_Engine, "predict", drifted)
    data = Dataset([[0.0], [1.0], [2.0]], [1.0, 2.0, 0.5])
    with pytest.raises(NumericalError, match="expanded and compact OK variance forms disagree"):
        ordinary_krige(data, SE1, [0.5])


ENGINE_MEANS = {
    "sk": MeanSpec.polynomial(2, 1, coefficients=[0.5, -1.0, 2.0]),
    "ok": None,
    "uk": MeanSpec.polynomial(2, 1),
    "gpr": MeanSpec.known_constant(1.5),
    "gpr-basis": MeanSpec.polynomial(2, 1, prior_mean=[0.0, 1.0, 0.0],
                                     prior_cov=np.diag([1.0, 2.0, 0.5])),
}


@pytest.mark.parametrize("variant", ENGINE_MEANS)
def test_engine_rows_do_not_depend_on_their_batch(variant):
    # one engine over a and b stacked gives, row for row, the very numbers
    # of one engine over a and another over b
    rng = np.random.default_rng(97)
    for noise in (0.0, 0.1, 0.0, 0.1):
        data, kernel, _ = random_instance(rng, n=int(rng.integers(5, 30)), dim=2,
                                          noise=noise)
        a = rng.uniform(0.0, 8.0, (int(rng.integers(1, 9)), 2))
        b = rng.uniform(0.0, 8.0, (5, 2))
        mean = ENGINE_MEANS[variant]
        both = _Engine(data, kernel, np.vstack([a, b])).predict(variant, mean)
        alone = [_Engine(data, kernel, xs).predict(variant, mean) for xs in (a, b)]
        assert np.array_equal(both.mean, np.concatenate([r.mean for r in alone]))
        assert np.array_equal(both.variance, np.concatenate([r.variance for r in alone]))


@pytest.mark.parametrize("variant", ENGINE_MEANS)
def test_one_triangular_solve_over_the_targets(monkeypatch, variant):
    # the target stage is one dtrsm of the n x n factor over all m targets;
    # nothing is solved against S itself (the only cho_solve left is the
    # p x p constraint Gram's)
    rng = np.random.default_rng(41)
    data, kernel, _ = random_instance(rng, n=12, dim=2, noise=0.1)
    xs = rng.uniform(0.0, 8.0, (7, 2))
    trsm, cho = [], []
    dtrsm, cho_solve = linalg.dtrsm, linalg.cho_solve

    def counted_trsm(alpha, a, b, **kwargs):
        trsm.append((a.shape[0], b.shape[1], kwargs.get("trans_a", 0)))
        return dtrsm(alpha, a, b, **kwargs)

    def counted_cho(c_and_lower, b, **kwargs):
        cho.append(c_and_lower[0].shape[0])
        return cho_solve(c_and_lower, b, **kwargs)

    monkeypatch.setattr(linalg, "dtrsm", counted_trsm)
    monkeypatch.setattr(linalg, "cho_solve", counted_cho)
    _Engine(data, kernel, xs).predict(variant, ENGINE_MEANS[variant])
    assert [call for call in trsm if call[1] == 7] == [(12, 7, 0)]
    assert all(order == 12 for order, _, _ in trsm)
    assert 12 not in cho


class TestPluginRoute:
    def test_constant_case_equals_ordinary(self):
        data = Dataset([[0.0], [1.0], [3.0]], [1.0, 2.0, 0.0])
        a = ordinary_krige(data, SE1, [0.5])
        b = sk_with_plugin_mean(data, SE1, MeanSpec.constant_unknown(), [0.5])
        assert abs(a.mean - b.mean) <= 1e-10
        assert abs(a.error_variance - b.error_variance) <= 1e-10

    def test_basis_case_interpolates(self):
        data = Dataset([[0.0], [1.0], [3.0]], [1.0, 2.0, 0.0])
        p = sk_with_plugin_mean(data, SE1, MeanSpec.polynomial(1, 1), data.x[1])
        assert p.mean == pytest.approx(data.y[1], abs=1e-9)

    def test_white_noise_mean_is_sample_mean(self):
        data = Dataset([[0.0], [1.0], [2.0]], [1.0, 2.0, 3.0])
        p = sk_with_plugin_mean(data, WHITE, MeanSpec.constant_unknown(), [0.5])
        assert p.mean == pytest.approx(2.0, abs=1e-12)

    def test_basis_case_equals_universal(self):
        rng = np.random.default_rng(28)
        mean = MeanSpec.polynomial(1, 1)
        for _ in range(10):
            data, kernel, xstar = random_instance(rng, n=7, dim=1)
            a = universal_krige(data, kernel, mean, xstar)
            b = sk_with_plugin_mean(data, kernel, mean, xstar)
            assert abs(a.mean - b.mean) <= 1e-10 * max(1.0, abs(a.mean))
            assert abs(a.error_variance - b.error_variance) <= 1e-10


class TestOracleBlocks:
    """Each oracle's block form, row by row, is its public one-point function."""

    # route -> (block form, one-point function, mean for the data or None)
    ROUTES = {
        "ok_direct": (_direct_route, ordinary_krige_direct, None),
        "plugin_constant": (_plugin_route, sk_with_plugin_mean,
                            lambda data: MeanSpec.constant_unknown()),
        "plugin_basis": (_plugin_route, sk_with_plugin_mean,
                         lambda data: MeanSpec.polynomial(data.dim, 1)),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_rows_match_one_point_calls(self, route):
        block, single, mean_for = self.ROUTES[route]
        rng = np.random.default_rng(39)
        for i in range(6):
            data, kernel, _ = random_instance(rng, n=9, noise=0.2 * (i % 2))
            spec = () if mean_for is None else (mean_for(data),)
            xs = rng.uniform(0.0, 6.0, (7, data.dim))
            factor = kriging._factor_observation_cov(data, kernel, 0.0)
            for row, rec in zip(xs, block(data, kernel, *spec, xs, factor).records()):
                one = single(data, kernel, *spec, row)
                assert rec.mean == one.mean
                assert rec.error_variance == one.error_variance
                assert rec.estimator_variance == one.estimator_variance
                assert rec.weights.lam0 == one.weights.lam0
                np.testing.assert_array_equal(rec.weights.lam, one.weights.lam)
                np.testing.assert_array_equal(rec.weights.mu_tilde, one.weights.mu_tilde)


class TestUniversalKrige:
    def test_p1_reduces_to_ordinary(self):
        rng = np.random.default_rng(29)
        one = MeanSpec.basis([lambda x: 1.0])
        for _ in range(20):
            data, kernel, xstar = random_instance(rng)
            a = universal_krige(data, kernel, one, xstar)
            b = ordinary_krige(data, kernel, xstar)
            assert abs(a.mean - b.mean) <= 1e-10 * max(1.0, abs(b.mean))
            assert abs(a.error_variance - b.error_variance) <= 1e-10

    def test_exact_interpolation(self):
        data = Dataset([[0.0], [1.0], [3.0]], [1.0, 2.0, 0.0])
        mean = MeanSpec.polynomial(1, 1)
        for i in range(3):
            p = universal_krige(data, SE1, mean, data.x[i])
            assert p.mean == pytest.approx(data.y[i], abs=1e-9)
            assert p.error_variance <= 1e-8

    def test_linear_data_extrapolates_trend(self):
        # residuals y - M beta vanish, so the prediction is the pure trend
        x = np.array([[0.0], [1.0], [2.0]])
        data = Dataset(x, x[:, 0])
        mean = MeanSpec.polynomial(1, 1)
        beta = gls_beta(data, SE1, mean)
        m = np.hstack([np.ones((3, 1)), x])
        assert np.abs(data.y - m @ beta).max() <= 1e-10
        p = universal_krige(data, SE1, mean, [4.0])
        assert p.mean == pytest.approx(4.0, abs=1e-9)

    def test_constraint_satisfied(self):
        rng = np.random.default_rng(30)
        mean = MeanSpec.polynomial(2, 1)
        for _ in range(10):
            data, kernel, xstar = random_instance(rng, n=10, dim=2)
            p = universal_krige(data, kernel, mean, xstar)
            m = np.hstack([np.ones((10, 1)), data.x])
            fstar = np.concatenate([[1.0], np.asarray(xstar)])
            np.testing.assert_allclose(m.T @ p.weights.lam, fstar, atol=1e-9)

    def test_too_many_basis_functions(self):
        data = Dataset([[0.0], [1.0]], [0.0, 1.0])
        with pytest.raises(InputError):
            universal_krige(data, SE1, MeanSpec.polynomial(1, 2), [0.5])

    def test_variance_at_least_sk(self):
        rng = np.random.default_rng(31)
        mean = MeanSpec.polynomial(1, 1)
        for _ in range(10):
            data, kernel, xstar = random_instance(rng, dim=1)
            uk = universal_krige(data, kernel, mean, xstar)
            sk = simple_krige(data, kernel, ZERO_MEAN, xstar)
            assert uk.error_variance >= sk.error_variance - 1e-9


class TestLsPredict:
    def test_constant_basis_is_sample_mean(self):
        data = Dataset([[0.0], [1.0], [5.0]], [1.0, 2.0, 6.0])
        assert ls_predict(data, MeanSpec.constant_unknown(), [100.0]) == pytest.approx(3.0)

    def test_exact_linear_trend(self):
        x = np.array([[0.0], [1.0], [2.0]])
        data = Dataset(x, 2.0 * x[:, 0] + 1.0)
        assert ls_predict(data, MeanSpec.polynomial(1, 1), [5.0]) == pytest.approx(11.0)

    def test_equals_gls_under_white_noise(self):
        rng = np.random.default_rng(32)
        mean = MeanSpec.polynomial(1, 1)
        for _ in range(10):
            x = rng.uniform(0, 5, (8, 1))
            data = Dataset(x, rng.normal(size=8))
            beta = gls_beta(data, WHITE, mean)
            ls_value = ls_predict(data, mean, [2.5])
            assert abs(ls_value - (beta[0] + 2.5 * beta[1])) <= 1e-10


class TestBlupOptimality:
    """No feasible weight vector beats the returned error variance."""

    @staticmethod
    def objective(lam_matrix, gram, kstar, sigma_star2):
        quad = np.einsum("ij,jk,ik->i", lam_matrix, gram, lam_matrix)
        return quad + sigma_star2 - 2.0 * lam_matrix @ kstar

    def test_sk_unconstrained(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            data, kernel, xstar = random_instance(rng, n=4)
            p = simple_krige(data, kernel, ZERO_MEAN, xstar)
            gram = build_gram(kernel, data.x, 0.0)
            kstar = kernel_matrix(kernel, data.x, [xstar])[:, 0]
            cand = rng.normal(size=(500, data.n), scale=2.0)
            values = self.objective(cand, gram, kstar, kernel.variance)
            assert values.min() >= p.error_variance - 1e-9

    def test_ok_constrained(self):
        rng = np.random.default_rng(34)
        for _ in range(5):
            data, kernel, xstar = random_instance(rng, n=4)
            p = ordinary_krige(data, kernel, xstar)
            gram = build_gram(kernel, data.x, 0.0)
            kstar = kernel_matrix(kernel, data.x, [xstar])[:, 0]
            cand = rng.normal(size=(500, data.n), scale=2.0)
            cand += (1.0 - cand.sum(axis=1))[:, None] / data.n
            values = self.objective(cand, gram, kstar, kernel.variance)
            assert values.min() >= p.error_variance - 1e-9


class TestNoiseHandling:
    def test_noise_smooths_instead_of_interpolating(self):
        data = Dataset([[0.0], [1.0]], [0.0, 2.0], noise_variance=0.5)
        p = ordinary_krige(data, SE1, [0.0])
        assert abs(p.mean - 0.0) > 1e-3  # no longer an exact interpolator
        assert p.error_variance > 0.0

    def test_all_variants_accept_noise(self):
        rng = np.random.default_rng(35)
        data, kernel, xstar = random_instance(rng, n=6, dim=1, noise=0.2)
        assert np.isfinite(simple_krige(data, kernel, ZERO_MEAN, xstar).mean)
        assert np.isfinite(ordinary_krige(data, kernel, xstar).mean)
        assert np.isfinite(
            universal_krige(data, kernel, MeanSpec.polynomial(1, 1), xstar).mean
        )

    def test_noise_free_limit_recovers_definition(self):
        rng = np.random.default_rng(36)
        data, kernel, xstar = random_instance(rng, n=6, dim=1)
        tiny = Dataset(data.x, data.y, 1e-14)
        a = ordinary_krige(data, kernel, xstar)
        b = ordinary_krige(tiny, kernel, xstar)
        assert abs(a.mean - b.mean) <= 1e-8


class TestVarianceAgainstObjective:
    """The reported variances must equal dense evaluations at the weights.

    For an unbiased linear predictor the error variance is the quadratic
    objective lam' S lam + sigma*^2 - 2 lam' k* at the solution, and the
    estimator variance is lam' S lam; computing both densely gives an
    oracle independent of the closed-form expressions the library uses.
    """

    @staticmethod
    def dense_check(pred, data, kernel, xstar):
        gram = build_gram(kernel, data.x, data.noise_variance)
        kstar = kernel_matrix(kernel, data.x, [xstar])[:, 0]
        lam = pred.weights.lam
        quad = lam @ gram @ lam
        objective = quad + kernel.variance - 2.0 * lam @ kstar
        assert abs(pred.error_variance - objective) <= 1e-9
        assert abs(pred.estimator_variance - quad) <= 1e-9

    def test_ok_paths(self):
        rng = np.random.default_rng(56)
        for i in range(15):
            noise = 0.0 if i % 2 == 0 else 0.3
            data, kernel, xstar = random_instance(rng, noise=noise)
            self.dense_check(ordinary_krige(data, kernel, xstar), data, kernel, xstar)
            self.dense_check(ordinary_krige_direct(data, kernel, xstar),
                             data, kernel, xstar)

    def test_uk_and_plugin(self):
        rng = np.random.default_rng(57)
        mean = MeanSpec.polynomial(1, 1)
        for _ in range(15):
            data, kernel, xstar = random_instance(rng, n=8, dim=1)
            self.dense_check(universal_krige(data, kernel, mean, xstar),
                             data, kernel, xstar)
            self.dense_check(sk_with_plugin_mean(data, kernel, mean, xstar),
                             data, kernel, xstar)

    def test_blup_with_noise(self):
        rng = np.random.default_rng(58)
        for _ in range(10):
            data, kernel, xstar = random_instance(rng, n=7, noise=0.2)
            self.dense_check(simple_krige(data, kernel, ZERO_MEAN, xstar),
                             data, kernel, xstar)


class TestVarianceClamp:
    def test_tiny_negative_clamped(self):
        from gpkrige.kriging import _clamped

        assert _clamped(-5e-10, 1.0) == 0.0
        assert _clamped(0.25, 1.0) == 0.25

    def test_large_negative_raises(self):
        from gpkrige import NumericalError
        from gpkrige.kriging import _clamped

        with pytest.raises(NumericalError):
            _clamped(-1e-6, 1.0)


class TestJitter:
    def test_jitter_warning_propagates(self):
        data = Dataset([[0.0], [0.0]], [1.0, 1.0])  # exactly singular Gram
        p = ordinary_krige(data, SE1, [0.5], max_jitter=1e-6)
        assert p.jitter_warning

    def test_no_warning_on_clean_solve(self):
        data = Dataset([[0.0], [1.0]], [1.0, 2.0])
        assert not ordinary_krige(data, SE1, [0.5], max_jitter=1e-6).jitter_warning


class TestPredictPoints:
    @pytest.mark.parametrize("case", ["ok", "sk", "uk", "uk-2d", "sk-poly"])
    def test_matches_pointwise_calls(self, case):
        # "sk-poly" is a known mean given as a 2-D basis with coefficients
        variant = case.partition("-")[0]
        dim = 1 if case in ("ok", "sk", "uk") else 2
        rng = np.random.default_rng(37)
        data, kernel, _ = random_instance(rng, n=8, dim=dim)
        xs = rng.uniform(0, 5, (4, dim))
        mean = {"ok": None, "sk": MeanSpec.known(lambda x: 2.0 - 0.3 * x[0]),
                "uk": MeanSpec.polynomial(1, 1), "uk-2d": MeanSpec.polynomial(2, 1),
                "sk-poly": MeanSpec.polynomial(2, 1, coefficients=[2.0, -0.3, 0.7])}[case]
        batch = predict_points(data, kernel, xs, variant, mean=mean)
        for row, pred in zip(xs, batch):
            if variant == "ok":
                single = ordinary_krige(data, kernel, row)
            elif variant == "sk":
                single = simple_krige(data, kernel, mean, row)
            else:
                single = universal_krige(data, kernel, mean, row)
            assert pred.mean == single.mean
            assert pred.error_variance == single.error_variance
            assert pred.estimator_variance == single.estimator_variance
            assert np.array_equal(pred.weights.lam, single.weights.lam)
            assert pred.weights.lam0 == single.weights.lam0
            assert np.array_equal(pred.weights.mu_tilde, single.weights.mu_tilde)

    def test_one_point_calls_take_one_point(self):
        # a number, a 1-D point and a single row are one point; any other
        # nest was once flattened into one point
        data = Dataset([[0.0, 0.0], [1.0, 0.5], [0.2, 0.9]], [1.0, 2.0, 0.5])
        kernel = KernelSpec("matern52", 1.0, (0.7,), dim=2)
        row = ordinary_krige(data, kernel, [[0.1, 0.2]])
        assert ordinary_krige(data, kernel, [0.1, 0.2]).mean == row.mean
        assert ordinary_krige(Dataset([0.0, 1.0], [1.0, 2.0]), SE1, 0.5).mean == 1.5
        for target in ([[0.1], [0.2]], [[[0.1, 0.2]]], np.zeros((2, 2))):
            with pytest.raises(InputError, match="target must be one point"):
                ordinary_krige(data, kernel, target)
            with pytest.raises(InputError, match="target must be one point"):
                ls_predict(data, MeanSpec.polynomial(2, 1), target)

    def test_kernel_dimension_mismatch_rejected(self):
        data = Dataset([[0.0, 0.0], [1.0, 0.5]], [1.0, 2.0])
        with pytest.raises(InputError, match="kernel dimension 1"):
            predict_points(data, SE1, [[0.5, 0.5]], "ok")

    def test_variant_validation(self):
        data = Dataset([[0.0], [1.0]], [1.0, 2.0])
        with pytest.raises(InputError):
            predict_points(data, SE1, [[0.5]], "nope")
        with pytest.raises(InputError):
            predict_points(data, SE1, [[0.5]], "sk")  # missing mean
