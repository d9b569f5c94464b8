"""Kernel evaluation, Gram assembly, mean models, and variogram identities."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from gpkrige import (
    Dataset,
    InputError,
    KernelSpec,
    MeanSpec,
    basis_matrix,
    build_gram,
    cov_from_semivariogram,
    empirical_semivariogram,
    kernel_matrix,
    model_from_json,
    model_to_json,
    semivariogram_of,
)
from gpkrige.kernels import _PAIR_BLOCK, KERNEL_FAMILIES, _mean_vector

ALL_FAMILIES = sorted(KERNEL_FAMILIES)
DECAYING = ["squared_exponential", "exponential", "matern32", "matern52"]


class TestEvalKernel:
    def test_zero_lag_equals_variance(self):
        spec = KernelSpec("squared_exponential", 1.0, (1.0,))
        assert kernel_matrix(spec, [[0.0]], [[0.0]])[0, 0] == 1.0

    def test_se_unit_lag(self):
        spec = KernelSpec("squared_exponential", 1.0, (1.0,))
        value = kernel_matrix(spec, [[0.0]], [[1.0]])[0, 0]
        assert value == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_matern32_zero_lag_scaled(self):
        spec = KernelSpec("matern32", 2.0, (1.0,))
        assert kernel_matrix(spec, [[0.0]], [[0.0]])[0, 0] == 2.0

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_symmetry(self, family):
        rng = np.random.default_rng(1)
        spec = KernelSpec(family, 1.3, (0.7, 1.4), dim=2)
        for _ in range(50):
            a, b = rng.normal(size=2), rng.normal(size=2)
            assert kernel_matrix(spec, [a], [b])[0, 0] == pytest.approx(
                kernel_matrix(spec, [b], [a])[0, 0], abs=1e-15
            )

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_range(self, family):
        rng = np.random.default_rng(2)
        spec = KernelSpec(family, 2.0, (1.0,))
        for _ in range(50):
            v = kernel_matrix(spec, [rng.normal(size=1)], [rng.normal(size=1)])[0, 0]
            assert 0.0 <= v <= 2.0

    @pytest.mark.parametrize("family", DECAYING)
    def test_rounds_as_the_closed_form(self, family):
        # the profiles update their lags in place; they must round exactly as
        # the closed-form expression does, for matrices and for scalar lags
        def closed_form(u):
            if family == "squared_exponential":
                return np.exp(-0.5 * u * u)
            if family == "exponential":
                return np.exp(-u)
            s = math.sqrt(3.0) * u if family == "matern32" else math.sqrt(5.0) * u
            if family == "matern32":
                return (1.0 + s) * np.exp(-s)
            return (1.0 + s + s * s / 3.0) * np.exp(-s)

        rng = np.random.default_rng(4)
        spec = KernelSpec(family, 1.7, (0.3, 0.8), dim=2)
        xa, xb = rng.uniform(0.0, 2.0, (40, 2)), rng.uniform(0.0, 2.0, (7, 2))
        ls = np.array(spec.lengthscales)
        lags = np.sqrt((((xa[:, None, :] - xb[None, :, :]) / ls) ** 2).sum(axis=2))
        np.testing.assert_array_equal(kernel_matrix(spec, xa, xb),
                                      1.7 * closed_form(cdist(xa / ls, xb / ls)))
        np.testing.assert_allclose(kernel_matrix(spec, xa, xb), 1.7 * closed_form(lags),
                                   rtol=1e-14)
        iso = KernelSpec(family, 1.7, (0.3,))
        for tau in (0.45, np.array([0.0, 0.45, 2.0])):
            assert np.array_equal(semivariogram_of(iso, tau),
                                  1.7 - 1.7 * closed_form(np.asarray(tau) / 0.3))

    def test_dimension_mismatch(self):
        spec = KernelSpec("squared_exponential", 1.0, (1.0,), dim=2)
        with pytest.raises(InputError):
            kernel_matrix(spec, [[0.0]], [[0.0, 1.0]])

    def test_anisotropic_lengthscales(self):
        spec = KernelSpec("squared_exponential", 1.0, (1.0, 2.0), dim=2)
        # lag 2 along the second axis scales like lag 1 along the first
        v1 = kernel_matrix(spec, [[0.0, 0.0]], [[1.0, 0.0]])[0, 0]
        v2 = kernel_matrix(spec, [[0.0, 0.0]], [[0.0, 2.0]])[0, 0]
        assert v1 == pytest.approx(v2, abs=1e-15)


class TestKernelSpecValidation:
    def test_negative_variance_rejected(self):
        with pytest.raises(InputError):
            KernelSpec("squared_exponential", -1.0, (1.0,))

    def test_nonpositive_lengthscale_rejected(self):
        with pytest.raises(InputError):
            KernelSpec("squared_exponential", 1.0, (0.0,))

    def test_unknown_family_rejected(self):
        with pytest.raises(InputError):
            KernelSpec("cubic", 1.0, (1.0,))

    def test_isotropic_broadcast(self):
        spec = KernelSpec("exponential", 1.0, (2.0,), dim=3)
        assert spec.lengthscales == (2.0, 2.0, 2.0)
        assert spec.is_isotropic


class TestBuildGram:
    def test_single_point(self):
        spec = KernelSpec("matern52", 1.7, (1.0,))
        np.testing.assert_allclose(build_gram(spec, [[0.0]], 0.0), [[1.7]])

    def test_two_points_noise_free(self):
        spec = KernelSpec("squared_exponential", 1.0, (1.0,))
        e = math.exp(-0.5)
        np.testing.assert_allclose(
            build_gram(spec, [[0.0], [1.0]], 0.0), [[1.0, e], [e, 1.0]], atol=1e-15
        )

    def test_noise_on_diagonal_only(self):
        spec = KernelSpec("squared_exponential", 1.0, (1.0,))
        g = build_gram(spec, [[0.0], [1.0]], 0.1)
        assert g[0, 0] == g[1, 1] == pytest.approx(1.1, abs=1e-15)
        assert g[0, 1] == pytest.approx(math.exp(-0.5), abs=1e-15)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_psd_on_random_sets(self, family):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 21))
            d = int(rng.integers(1, 4))
            x = rng.uniform(0.0, 8.0, (n, d))
            spec = KernelSpec(family, 1.5, (1.0,), dim=d)
            eig = np.linalg.eigvalsh(build_gram(spec, x, 0.0))
            assert eig.min() >= -1e-9 * spec.variance

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_exactly_symmetric(self, family):
        rng = np.random.default_rng(5)
        spec = KernelSpec(family, 1.5, (0.4, 0.9, 1.3), dim=3)
        g = build_gram(spec, rng.uniform(0.0, 3.0, (60, 3)), 0.2)
        np.testing.assert_array_equal(g, g.T)

    @pytest.mark.parametrize("n", [0, 1, 2, 600])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_equals_kernel_matrix_with_diagonal(self, family, dim, n):
        # the pairwise Gram is the rectangular one with its diagonal filled
        # in, bit for bit, anisotropic and with repeated points included
        rng = np.random.default_rng(n + 10 * dim)
        x = rng.uniform(0.0, 3.0, (n, dim))
        if n > 2:
            x[n // 2] = x[0]
        spec = KernelSpec(family, 1.3, tuple(rng.uniform(0.2, 1.5, dim)))
        expected = kernel_matrix(spec, x, x)
        np.fill_diagonal(expected, 1.3 + 0.05)
        g = build_gram(spec, x, 0.05)
        assert g.shape == (n, n)
        assert np.array_equal(g, expected)

    def test_nugget_lifts_diagonal_above_continuous_limit(self):
        # with noise the lag-0 covariance exceeds the tau -> 0+ kernel limit
        spec = KernelSpec("exponential", 1.0, (1.0,))
        g = build_gram(spec, [[0.0], [1.0]], 0.25)
        continuous_limit = kernel_matrix(spec, [[0.0]], [[1e-12]])[0, 0]
        assert g[0, 0] > continuous_limit + 0.2


class TestCrossCov:
    def test_at_design_point(self):
        spec = KernelSpec("squared_exponential", 1.0, (1.0,))
        k = kernel_matrix(spec, [[0.0], [1.0]], [[1.0]])[:, 0]
        assert k[1] == 1.0

    def test_far_away_decays(self):
        spec = KernelSpec("squared_exponential", 1.0, (1.0,))
        k = kernel_matrix(spec, [[0.0], [1.0]], [[1e6]])[:, 0]
        assert np.all(np.abs(k) < 1e-12)

    def test_symmetric_lags(self):
        spec = KernelSpec("squared_exponential", 1.0, (1.0,))
        k = kernel_matrix(spec, [[0.0], [1.0]], [[0.5]])[:, 0]
        np.testing.assert_allclose(k, math.exp(-0.125), atol=1e-15)

    def test_never_contains_noise(self):
        spec = KernelSpec("squared_exponential", 1.0, (1.0,))
        k = kernel_matrix(spec, [[0.0]], [[0.0]])[:, 0]
        # even at an exact design point the cross-covariance is the kernel value
        assert k[0] == 1.0


class TestSemivariogram:
    def test_zero_lag(self):
        spec = KernelSpec("squared_exponential", 1.0, (1.0,))
        assert semivariogram_of(spec, 0.0) == 0.0

    def test_sill(self):
        spec = KernelSpec("squared_exponential", 1.0, (1.0,))
        assert semivariogram_of(spec, 1e8) == pytest.approx(1.0, abs=1e-15)

    def test_unit_lag(self):
        spec = KernelSpec("squared_exponential", 1.0, (1.0,))
        assert semivariogram_of(spec, 1.0) == pytest.approx(1.0 - math.exp(-0.5), abs=1e-15)

    @pytest.mark.parametrize("family", DECAYING)
    def test_identity_against_kernel(self, family):
        spec = KernelSpec(family, 1.7, (0.8,))
        taus = np.linspace(0.0, 12.0, 60)
        for tau in taus:
            c = kernel_matrix(spec, [[0.0]], [[tau]])[0, 0]
            assert semivariogram_of(spec, tau) + c == pytest.approx(1.7, abs=1e-12)

    @pytest.mark.parametrize("family", DECAYING)
    def test_monotone_nondecreasing(self, family):
        spec = KernelSpec(family, 1.0, (1.0,))
        gam = semivariogram_of(spec, np.linspace(0.0, 10.0, 200))
        assert np.all(np.diff(gam) >= -1e-12)

    def test_anisotropic_rejected(self):
        spec = KernelSpec("squared_exponential", 1.0, (1.0, 2.0), dim=2)
        with pytest.raises(InputError):
            semivariogram_of(spec, 1.0)

    def test_cov_from_semivariogram_roundtrip(self):
        spec = KernelSpec("matern32", 2.0, (1.0,))
        for tau in (0.0, 0.3, 1.0, 4.0):
            gam = semivariogram_of(spec, tau)
            c = cov_from_semivariogram(2.0, gam)
            assert abs(c - kernel_matrix(spec, [[0.0]], [[tau]])[0, 0]) <= 1e-15

    def test_cov_from_semivariogram_values(self):
        assert cov_from_semivariogram(1.0, 0.0) == 1.0
        assert cov_from_semivariogram(1.0, 1.0) == 0.0
        gam = 2.0 * (1.0 - math.exp(-0.5))
        assert cov_from_semivariogram(2.0, gam) == pytest.approx(2.0 * math.exp(-0.5))

    def test_cov_from_semivariogram_range_check(self):
        with pytest.raises(InputError):
            cov_from_semivariogram(1.0, -0.1)
        with pytest.raises(InputError):
            cov_from_semivariogram(1.0, 2.1)


class TestEmpiricalSemivariogram:
    def test_constant_data_is_zero(self):
        x = np.arange(6.0)
        y = np.full(6, 3.0)
        _, counts, gamma = empirical_semivariogram(x, y, 4, 6.0)
        assert np.all(gamma[counts > 0] == 0.0)

    def test_two_points_definition(self):
        centers, counts, gamma = empirical_semivariogram(
            [[0.0], [1.0]], [1.0, 3.0], 1, 2.0
        )
        assert counts[0] == 1
        assert gamma[0] == pytest.approx((1.0 - 3.0) ** 2 / 2.0)

    def test_empty_bins_are_nan(self):
        _, counts, gamma = empirical_semivariogram([[0.0], [10.0]], [0.0, 1.0], 5, 20.0)
        assert np.isnan(gamma[counts == 0]).all()

    def test_pairs_beyond_max_lag_excluded(self):
        _, counts, _ = empirical_semivariogram([[0.0], [5.0]], [0.0, 1.0], 2, 1.0)
        assert counts.sum() == 0

    @pytest.mark.parametrize("bins, max_lag", [(64, 5e-322), (4, 5e-324)])
    def test_subnormal_bin_width_rejected(self, bins, max_lag):
        # linspace edges repeat or fall out of order below the normal range
        with pytest.raises(InputError, match="not a normal float"):
            empirical_semivariogram([[0.0], [0.0], [1.0]], [0.0, 1.0, 3.0], bins, max_lag)

    @pytest.mark.parametrize("bins", [2.7, math.nan, "3"])
    def test_non_integral_bins_rejected(self, bins):
        with pytest.raises(InputError, match="bins must be an integer"):
            empirical_semivariogram([[0.0], [1.0], [2.0]], [0.0, 1.0, 3.0], bins, 2.0)

    def test_lags_on_bin_edges(self):
        # edges 0, 1, 2, 3: lags of exactly 1 and 2 open their bins, a lag of
        # exactly max_lag = 3 closes the last one, and 3.5 and 4.5 drop out
        x = [[0.0], [1.0], [2.0], [3.0], [4.5]]
        y = [0.0, 1.0, 3.0, 6.0, 10.0]
        _, counts, gamma = empirical_semivariogram(x, y, 3, 3.0)
        assert counts.tolist() == [0, 4, 4]
        assert np.isnan(gamma[0])
        assert gamma[1] == (1.0 + 4.0 + 9.0 + 16.0) / 8.0
        assert gamma[2] == (9.0 + 25.0 + 36.0 + 49.0) / 8.0

    @pytest.mark.parametrize("bins, max_lag", [(8, 1.0), (10, 2.0)])
    def test_matches_per_pair_loop(self, bins, max_lag):
        rng = np.random.default_rng(63)
        x = rng.uniform(0.0, 1.0, (60, 2))
        y = rng.normal(size=60)
        inner_edges = np.linspace(0.0, max_lag, bins + 1)[1:-1].tolist()
        counts = [0] * bins
        sums = [0.0] * bins
        for i in range(60):
            for j in range(i + 1, 60):
                lag = math.dist(x[i], x[j])
                if lag <= max_lag:
                    b = sum(lag >= edge for edge in inner_edges)
                    counts[b] += 1
                    sums[b] += (y[i] - y[j]) ** 2
        _, got_counts, got_gamma = empirical_semivariogram(x, y, bins, max_lag)
        assert got_counts.tolist() == counts
        for b in range(bins):
            if counts[b] == 0:
                assert np.isnan(got_gamma[b])
            else:
                expected = sums[b] / (2.0 * counts[b])
                assert abs(got_gamma[b] - expected) <= 1e-12 * abs(expected)

    def test_many_blocks_match_per_row_reference(self):
        # integer points: many lags fall exactly on the integer edges, some
        # at max_lag = 10 itself, and coincident points give lag 0
        n, bins, max_lag = 500, 10, 10.0
        assert n * (n - 1) // 2 > 1.5 * _PAIR_BLOCK
        rng = np.random.default_rng(41)
        x = rng.integers(0, 16, (n, 2)).astype(float)
        y = rng.normal(size=n)
        inner_edges = np.linspace(0.0, max_lag, bins + 1)[1:-1]
        counts, sums = np.zeros(bins, dtype=int), np.zeros(bins)
        for i in range(n - 1):
            lags = cdist(x[i:i + 1], x[i + 1:])[0]
            keep = lags <= max_lag
            idx = np.digitize(lags[keep], inner_edges)
            counts += np.bincount(idx, minlength=bins)
            sums += np.bincount(idx, weights=(y[i] - y[i + 1:][keep]) ** 2, minlength=bins)
        _, got_counts, got_gamma = empirical_semivariogram(x, y, bins, max_lag)
        np.testing.assert_array_equal(got_counts, counts)
        assert counts.all()
        expected = sums / (2.0 * counts)
        assert np.all(np.abs(got_gamma - expected) <= 1e-12 * np.abs(expected))

    def test_memory_is_bounded_by_the_pair_block(self):
        # 4000 points make about 8 million pairs; holding them at once takes
        # well over 100 MB
        rng = np.random.default_rng(43)
        x = rng.uniform(0.0, 1.0, (4000, 2))
        y = rng.normal(size=4000)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            empirical_semivariogram(x, y, 12, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("which", ["x", "y"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, which, bad):
        args = {"x": np.arange(4.0)[:, None], "y": np.ones(4)}
        args[which][2] = bad
        with pytest.raises(InputError, match=f"{which} must be finite"):
            empirical_semivariogram(args["x"], args["y"], 3, 2.0)


class TestMeanSpec:
    def test_known_zero(self):
        mean = MeanSpec.known(lambda x: 0.0)
        assert _mean_vector(mean, np.array([[3.0]]))[0] == 0.0

    def test_constant_basis(self):
        mean = MeanSpec.basis([lambda x: 1.0], coefficients=[5.0])
        assert _mean_vector(mean, np.array([[0.0]]))[0] == 5.0

    def test_affine_basis(self):
        mean = MeanSpec.basis([lambda x: 1.0, lambda x: x[0]], coefficients=[1.0, 2.0])
        assert _mean_vector(mean, np.array([[3.0]]))[0] == 7.0

    def test_known_mean_takes_function_or_constant_not_both(self):
        with pytest.raises(InputError):
            MeanSpec(kind="known", function=lambda x: 10.0 * x[0], constant=1.0)
        with pytest.raises(InputError):
            MeanSpec(kind="known")

    def test_compares_and_hashes_by_value(self):
        fns = [lambda x: 1.0, lambda x: x[0]]
        a = MeanSpec.basis(fns, coefficients=np.array([1.0, 2.0]))
        b = MeanSpec.basis(fns, coefficients=[1, 2])
        assert a == b and hash(a) == hash(b)
        assert MeanSpec.polynomial(2, 1) == MeanSpec.polynomial(2, 1)
        assert hash(MeanSpec.polynomial(2, 1)) == hash(MeanSpec.polynomial(2, 1))
        assert MeanSpec.polynomial(2, 1) != MeanSpec.polynomial(2, 2)
        c = np.array([1.0, 2.0, 3.0])
        spec = MeanSpec.polynomial(2, 1, coefficients=c)
        c[0] = 100.0
        assert spec == MeanSpec.polynomial(2, 1, coefficients=[1.0, 2.0, 3.0])
        assert spec.coefficients == (1.0, 2.0, 3.0)

    def test_unidentified_mean_rejected(self):
        with pytest.raises(InputError, match="not identified"):
            _mean_vector(MeanSpec.constant_unknown(), np.array([[0.0]]))
        with pytest.raises(InputError, match="not identified"):
            _mean_vector(MeanSpec.basis([lambda x: 1.0]), np.array([[0.0]]))

    def test_basis_matrix_ones(self):
        m = basis_matrix(MeanSpec.basis([lambda x: 1.0]), np.zeros((3, 1)))
        np.testing.assert_allclose(m, np.ones((3, 1)))

    def test_basis_matrix_affine(self):
        mean = MeanSpec.basis([lambda x: 1.0, lambda x: x[0]])
        m = basis_matrix(mean, [[0.0], [1.0], [2.0]])
        np.testing.assert_allclose(m, [[1, 0], [1, 1], [1, 2]])

    def test_basis_matrix_quadratic(self):
        mean = MeanSpec.polynomial(1, 2)
        np.testing.assert_allclose(basis_matrix(mean, [[2.0]]), [[1, 2, 4]])

    def test_constant_unknown_is_ones_column(self):
        m = basis_matrix(MeanSpec.constant_unknown(), [[1.0], [2.0], [3.0]])
        np.testing.assert_allclose(m, np.ones((3, 1)))

    def test_constant_unknown_equals_p1_basis(self):
        # the two spellings of "unknown constant" must agree everywhere
        rng = np.random.default_rng(4)
        x = rng.normal(size=(7, 2))
        a = basis_matrix(MeanSpec.constant_unknown(), x)
        b = basis_matrix(MeanSpec.basis([lambda _x: 1.0]), x)
        np.testing.assert_array_equal(a, b)

    def test_polynomial_basis_two_dims(self):
        mean = MeanSpec.polynomial(2, 2)
        assert mean.p == 6 and mean.functions == ()
        values = basis_matrix(mean, [[2.0, 3.0]])[0]
        assert values.tolist() == [1.0, 2.0, 3.0, 4.0, 6.0, 9.0]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_polynomial_matrix_equals_functions(self, dim, degree):
        # the vectorised exponent product reproduces the monomials bit for bit
        mean = MeanSpec.polynomial(dim, degree)
        rng = np.random.default_rng(10 * dim + degree)
        x = rng.normal(size=(200, dim)) * rng.choice([1e-3, 1.0, 1e3], size=(200, 1))
        exponents = np.asarray(mean.exponents)
        rows = [[np.prod(xi ** e) for e in exponents] for xi in x]
        np.testing.assert_array_equal(basis_matrix(mean, x), rows)

    def test_polynomial_matrix_reads_1d_input_as_one_point(self):
        mean = MeanSpec.polynomial(2, 1)
        np.testing.assert_array_equal(basis_matrix(mean, [2.0, 3.0]), [[1.0, 2.0, 3.0]])

    def test_polynomial_matrix_rejects_wrong_dimension(self):
        with pytest.raises(InputError):
            basis_matrix(MeanSpec.polynomial(2, 1), np.ones((2, 3)))

    def test_basis_at(self):
        mean = MeanSpec.polynomial(1, 1)
        np.testing.assert_allclose(basis_matrix(mean, [[4.0]])[0], [1.0, 4.0])

    def test_prior_shape_validation(self):
        with pytest.raises(InputError):
            MeanSpec.polynomial(1, 1, prior_cov=np.eye(3))


class TestDataset:
    def test_promotes_1d_locations(self):
        data = Dataset([0.0, 1.0], [1.0, 2.0])
        assert data.x.shape == (2, 1)
        assert data.n == 2 and data.dim == 1

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            Dataset([[0.0], [1.0]], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            Dataset([[0.0]], [np.nan])

    def test_negative_noise_rejected(self):
        with pytest.raises(InputError):
            Dataset([[0.0]], [1.0], -0.1)

    def test_keeps_no_reference_to_caller_arrays(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([1.0, 2.0])
        data = Dataset(x, y)
        x[0, 0] = np.nan
        y[1] = np.nan
        assert data.x.tolist() == [[0.0], [1.0]]
        assert data.y.tolist() == [1.0, 2.0]


class TestModelJson:
    def test_roundtrip(self):
        kernel = KernelSpec("squared_exponential", 1.0, (1.0,))
        mean = MeanSpec.constant_unknown()
        doc = model_to_json(kernel, mean, 0.0)
        assert doc == {
            "kernel": {
                "family": "squared_exponential",
                "variance": 1.0,
                "lengthscales": [1.0],
            },
            "mean": {"type": "constant_unknown"},
            "noise_variance": 0.0,
        }
        k2, m2, noise = model_from_json(doc)
        assert k2 == kernel
        assert m2.kind == "constant_unknown"
        assert noise == 0.0

    def test_known_constant_roundtrip(self):
        doc = model_to_json(KernelSpec("matern32", 2.0, (0.5,)),
                            MeanSpec.known_constant(5.0), 0.1)
        k2, m2, noise = model_from_json(doc)
        assert m2.kind == "known"
        assert _mean_vector(m2, np.array([[0.0]]))[0] == 5.0
        assert noise == 0.1

    def test_polynomial_basis_roundtrip(self):
        mean = MeanSpec.polynomial(2, 1, coefficients=[1.0, 2.0, 3.0])
        doc = model_to_json(KernelSpec("exponential", 1.0, (1.0, 1.0), dim=2), mean, 0.0)
        _, m2, _ = model_from_json(doc)
        assert _mean_vector(m2, np.array([[1.0, 1.0]]))[0] == 6.0

    @pytest.mark.parametrize("degree", [0, 1, 3])
    def test_polynomial_degree_from_exponents(self, degree):
        kernel = KernelSpec("exponential", 1.0, (1.0, 1.0), dim=2)
        doc = model_to_json(kernel, MeanSpec.polynomial(2, degree), 0.0)
        assert doc["mean"] == {"type": "basis", "basis": "polynomial", "degree": degree}
        _, m2, _ = model_from_json(doc)
        assert m2.p == MeanSpec.polynomial(2, degree).p

    def test_isotropic_broadcast_from_data_dim(self):
        doc = {
            "kernel": {"family": "exponential", "variance": 1.0, "lengthscales": [2.0]},
            "mean": {"type": "constant_unknown"},
            "noise_variance": 0.0,
        }
        kernel, _, _ = model_from_json(doc, dim=3)
        assert kernel.lengthscales == (2.0, 2.0, 2.0)

    def test_arbitrary_callable_not_serializable(self):
        with pytest.raises(InputError):
            model_to_json(KernelSpec("exponential", 1.0, (1.0,)),
                          MeanSpec.known(lambda x: x[0] ** 3), 0.0)

    def test_bad_documents_rejected(self):
        with pytest.raises(InputError):
            model_from_json({"kernel": {}})
        with pytest.raises(InputError):
            model_from_json({
                "kernel": {"family": "nope", "variance": 1.0, "lengthscales": [1.0]},
                "mean": {"type": "constant_unknown"},
                "noise_variance": 0.0,
            })
