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
    build_gram,
    empirical_semivariogram,
    kernel_matrix,
    model_from_json,
    semivariogram_of,
)
from gpkrige.kernels import (
    _LAG_BLOCK,
    _PAIR_BLOCK,
    KERNEL_FAMILIES,
    _mean_from_json,
    _mean_vector,
    _pair_plan,
    _real,
    basis_matrix,
)
from helpers import ONE_BLOCK

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
        # the profiles are evaluated in blocks of lags, in place of the lags;
        # they must round exactly as the closed-form expression does, for
        # matrices, for scalar lags and across block boundaries
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
        # 300 x 70 lags span two blocks, and a block boundary falls inside a row
        xa, xb = rng.uniform(0.0, 2.0, (300, 2)), rng.uniform(0.0, 2.0, (70, 2))
        assert 300 * 70 > _LAG_BLOCK and _LAG_BLOCK % 70
        np.testing.assert_array_equal(kernel_matrix(spec, xa, xb),
                                      1.7 * closed_form(cdist(xa / ls, xb / ls)))
        iso = KernelSpec(family, 1.7, (0.3,))
        # a column-major tau gives column-major lags, which reshape(-1) copies
        for tau in (0.45, np.array([0.0, 0.45, 2.0]), np.asfortranarray(lags[:5])):
            assert np.array_equal(semivariogram_of(iso, tau),
                                  1.7 - 1.7 * closed_form(np.asarray(tau) / 0.3))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_memory_is_its_output_plus_a_few_blocks(self, family):
        # the profile's temporaries are block-sized, so a 2000 x 1000 matrix
        # (16 MB) needs less than 1 MiB beside itself
        rng = np.random.default_rng(5)
        spec = KernelSpec(family, 1.3, (0.25, 0.5), dim=2)
        xa, xb = rng.uniform(0.0, 1.0, (2000, 2)), rng.uniform(0.0, 1.0, (1000, 2))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            k = kernel_matrix(spec, xa, xb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < k.nbytes + 2**20

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

    def test_lengthscales_must_match_dimension(self):
        with pytest.raises(InputError, match="shape"):
            KernelSpec("squared_exponential", 1.0, (1.0, 2.0), dim=3)

    def test_int_beyond_float_range_rejected(self):
        with pytest.raises(InputError, match="must be numeric"):
            _real(10**400, "variance")
        with pytest.raises(InputError, match="must be numeric"):
            KernelSpec("exponential", 1.0, [1.0, 10**400])

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(InputError, match="dimension must be positive"):
            KernelSpec("squared_exponential", 1.0, (1.0,), dim=0)

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

    @pytest.mark.parametrize("n", [0, 1, 2, ONE_BLOCK - 1, ONE_BLOCK + 1, 600])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_equals_kernel_matrix_with_diagonal(self, family, dim, n):
        # the pairwise Gram is the rectangular one with its diagonal filled
        # in, bit for bit, anisotropic and with repeated points included; so
        # it is exactly symmetric, whether its rows fill one block or several
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

    # +-1e308 over a lengthscale of 0.5 overflows the scaled coordinates:
    # lags between distinct points are inf, a point's lag to itself NaN
    OVERFLOWING = [[-1e308], [1e308], [0.0]]

    def test_overflowing_lags_report_only_the_finite_check(self):
        # a NaN entry is the one report, with no numpy warning before it
        with pytest.raises(InputError, match="matrix must be finite"):
            build_gram(KernelSpec("matern52", 1.0, (0.5,)), self.OVERFLOWING, 0.0)

    def test_infinite_lags_decay_without_warnings(self):
        # squared exponential: inf lags give 0, the diagonal stays the variance
        spec = KernelSpec("squared_exponential", 2.0, (0.5,))
        np.testing.assert_array_equal(build_gram(spec, self.OVERFLOWING, 0.5),
                                      np.diag([2.5, 2.5, 2.5]))
        np.testing.assert_array_equal(kernel_matrix(spec, self.OVERFLOWING, [[1.0]]),
                                      [[0.0], [0.0], [2.0 * math.exp(-2.0)]])

    def test_overflowing_diagonal_rejected(self):
        spec = KernelSpec("exponential", 1e308, (1.0,))
        with pytest.raises(InputError, match="matrix must be finite"):
            build_gram(spec, [[0.0], [1.0]], 1e308)


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

    def test_negative_lag_rejected(self):
        with pytest.raises(InputError, match="nonnegative"):
            semivariogram_of(KernelSpec("matern32", 1.0, (1.0,)), [0.5, -0.1])

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_sill_where_the_scaled_lag_overflows(self, family):
        # tau / 0.5 overflows, and a Matern polynomial overflows against an
        # exp(-s) of 0; C is 0 at every such lag, with no warning
        spec = KernelSpec(family, 1.7, (0.5,))
        taus = [1e200, 2.1e307, 1.5e308, np.finfo(float).max, math.inf]
        assert semivariogram_of(spec, taus).tolist() == [1.7] * len(taus)
        assert semivariogram_of(spec, 1.5e308) == 1.7

    def test_nan_lag_stays_nan(self):
        assert math.isnan(semivariogram_of(KernelSpec("matern52", 1.0, (0.5,)), math.nan))


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

    def test_one_point_rejected(self):
        with pytest.raises(InputError, match="at least two points"):
            empirical_semivariogram([[0.0, 1.0]], [1.0], 3, 1.0)

    def test_mismatched_rows_rejected(self):
        with pytest.raises(InputError, match="3 locations but 2 responses"):
            empirical_semivariogram([[0.0], [1.0], [2.0]], [0.0, 1.0], 2, 2.0)

    @pytest.mark.parametrize("bins, max_lag", [(64, 5e-322), (4, 5e-324)])
    def test_subnormal_bin_width_rejected(self, bins, max_lag):
        # linspace edges repeat or fall out of order below the normal range
        with pytest.raises(InputError, match="not a normal float"):
            empirical_semivariogram([[0.0], [0.0], [1.0]], [0.0, 1.0, 3.0], bins, max_lag)

    @pytest.mark.parametrize("bins", [1, 4, 64])
    @pytest.mark.parametrize("max_lag", [1.7e308, np.finfo(float).max])
    def test_lag_centers_near_the_float_max(self, bins, max_lag):
        # the sum of two edges overflows here; the sum of their halves does not
        centers, counts, _ = empirical_semivariogram([[0.0], [1.0], [3.0]], [0.0, 1.0, 3.0],
                                                     bins, max_lag)
        assert np.all(np.isfinite(centers)) and np.all(np.diff(centers) > 0.0)
        assert counts[0] == 3

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

    @pytest.mark.parametrize("pairs", [_PAIR_BLOCK, 10**6])
    def test_pair_plan_evaluates_each_pair_about_once(self, pairs):
        # the blocks run through the rows in order, the largest tail that
        # holds at most ``pairs`` pairs last; the earlier blocks' repeated
        # squares keep the lags evaluated within 1.1 per pair (row blocks
        # without the tail evaluate up to 1.99 per pair, at n = 257)
        for n in range(2, 6001 if pairs == _PAIR_BLOCK else 3001):
            blocks = _pair_plan(n, pairs)
            starts = [i for i, _, _ in blocks]
            assert starts == [0] + list(np.cumsum([rows for _, rows, _ in blocks[:-1]]))
            tail, r, lags = blocks[-1]
            assert tail + r == n and lags == r * (r - 1) // 2 <= pairs
            assert r == n or (r + 1) * r // 2 > pairs
            assert all(lags == rows * (n - 1 - i) for i, rows, lags in blocks[:-1])
            assert sum(lags for _, _, lags in blocks) <= 1.1 * (n * (n - 1) / 2)

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

    # squares beyond the float max, and a difference beyond it
    @pytest.mark.parametrize("x, y", [([0.0, 1.0, 3.0], [0.0, 1e200, -1e200]),
                                      ([0.0, 1.0], [1e308, -1e308])])
    def test_overflowing_responses_rejected(self, x, y):
        with pytest.raises(InputError, match="responses too large"):
            empirical_semivariogram(np.array(x)[:, None], y, 2, 4.0)

    # an overflowing pair beyond max_lag: 2 of the tail's 3 pairs kept, so
    # the tail is binned with that pair in the sentinel; 1 of 3, so the kept
    # pair is gathered and the others dropped
    @pytest.mark.parametrize("x, y, gamma", [
        ([0.0, 1.5, 4.5], [0.0, 1e154, 2e154], [5e307, 5e307]),
        ([0.0, 1.0, 10.0], [1e308, 1e308, -1e308], [0.0, math.nan]),
    ], ids=["sentinel", "gathered"])
    def test_overflow_beyond_max_lag_is_not_read(self, x, y, gamma):
        *_, got = empirical_semivariogram(np.array(x)[:, None], y, 2, 4.0)
        np.testing.assert_array_equal(got, gamma)


class TestMeanSpec:
    def test_constant_basis(self):
        mean = MeanSpec.basis([lambda x: 1.0], coefficients=[5.0])
        assert _mean_vector(mean, np.array([[0.0]]))[0] == 5.0

    def test_affine_basis(self):
        mean = MeanSpec.basis([lambda x: 1.0, lambda x: x[0]], coefficients=[1.0, 2.0])
        assert _mean_vector(mean, np.array([[3.0]]))[0] == 7.0

    def test_known_mean_takes_function_or_constant_not_both(self):
        # a known mean is its constant; a known mean function is a basis
        # with coefficients
        with pytest.raises(InputError, match="known mean requires a constant"):
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

    def test_function_matrix_reads_1d_input_as_a_column(self):
        # unlike a polynomial's, a hand-built basis reads a 1-D x as n 1-D points
        mean = MeanSpec.basis([lambda x: 1.0, lambda x: x[0]])
        np.testing.assert_array_equal(basis_matrix(mean, [0.0, 0.5, 2.0]),
                                      [[1.0, 0.0], [1.0, 0.5], [1.0, 2.0]])

    def test_polynomial_matrix_rejects_wrong_dimension(self):
        with pytest.raises(InputError):
            basis_matrix(MeanSpec.polynomial(2, 1), np.ones((2, 3)))

    def test_basis_at(self):
        mean = MeanSpec.polynomial(1, 1)
        np.testing.assert_allclose(basis_matrix(mean, [[4.0]])[0], [1.0, 4.0])

    def test_prior_cov_above_half_the_float_max_kept(self):
        # symmetrized by halves: the sum of a and a^T would overflow
        big = ((1e308, 0.0), (0.0, 1e308))
        assert MeanSpec.polynomial(1, 1, prior_cov=big).prior_cov == big

    def test_prior_shape_validation(self):
        with pytest.raises(InputError):
            MeanSpec.polynomial(1, 1, prior_cov=np.eye(3))

    @pytest.mark.parametrize("kwargs, message", [
        ({"kind": "linear"}, "unknown mean kind"),
        ({"kind": "constant_unknown", "constant": 1.0}, "only a known mean takes a constant"),
        ({"kind": "known", "constant": [1.0, 2.0]}, "constant must be one number"),
        ({"kind": "basis", "functions": (lambda x: 1.0,), "exponents": ((0.0,),)},
         "exponents and no functions"),
        ({"kind": "known", "constant": 1.0, "coefficients": (1.0,)}, "no coefficients or prior"),
        ({"kind": "basis"}, "at least one function"),
        ({"kind": "basis", "exponents": ((0.0,), (1.0,)),
          "prior_cov": ((1.0, 0.5), (0.0, 1.0))}, "prior_cov must be symmetric"),
        # fields a kind does not read are refused, not dropped
        ({"kind": "known", "constant": 1.0, "exponents": ((0.0,),)},
         "exponents and no functions"),
        ({"kind": "constant_unknown", "exponents": ((0.0,),)}, "exponents and no functions"),
        ({"kind": "known", "constant": 1.0, "functions": (lambda x: 1.0,)},
         "only a basis mean takes functions"),
        ({"kind": "constant_unknown", "functions": (lambda x: 1.0,)},
         "only a basis mean takes functions"),
        ({"kind": "constant_unknown", "coefficients": (1.0,)}, "got coefficients;"),
        ({"kind": "constant_unknown", "prior_mean": (5.0,)}, "got prior_mean;"),
        ({"kind": "constant_unknown", "prior_cov": ((1e-6,),)}, "got prior_cov;"),
    ])
    def test_invalid_specs_rejected(self, kwargs, message):
        with pytest.raises(InputError, match=message):
            MeanSpec(**kwargs)

    def test_negative_degree_rejected(self):
        with pytest.raises(InputError, match="degree >= 0"):
            MeanSpec.polynomial(2, -1)

    def test_basis_matrix_of_known_mean_rejected(self):
        with pytest.raises(InputError, match="requires a basis"):
            basis_matrix(MeanSpec.known_constant(1.0), [[0.0]])


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

    def test_zero_rows_rejected(self):
        with pytest.raises(InputError, match="nonempty"):
            Dataset(np.empty((0, 2)), [])

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
    """The reader on literal model documents: each test parses a document and
    checks the kernel, mean and noise it yields."""

    def test_roundtrip(self):
        doc = {
            "kernel": {"family": "squared_exponential", "variance": 1.0, "lengthscales": [1.0]},
            "mean": {"type": "constant_unknown"},
            "noise_variance": 0.0,
        }
        k2, m2, noise = model_from_json(doc)
        assert k2 == KernelSpec("squared_exponential", 1.0, (1.0,))
        assert m2.kind == "constant_unknown"
        assert noise == 0.0

    def test_known_constant_roundtrip(self):
        doc = {
            "kernel": {"family": "matern32", "variance": 2.0, "lengthscales": [0.5]},
            "mean": {"type": "known", "constant": 5.0},
            "noise_variance": 0.1,
        }
        k2, m2, noise = model_from_json(doc)
        assert m2.kind == "known"
        assert _mean_vector(m2, np.array([[0.0]]))[0] == 5.0
        assert noise == 0.1

    def test_polynomial_basis_roundtrip(self):
        doc = {
            "kernel": {"family": "exponential", "variance": 1.0, "lengthscales": [1.0, 1.0]},
            "mean": {"type": "basis", "basis": "polynomial", "degree": 1,
                     "coefficients": [1.0, 2.0, 3.0]},
            "noise_variance": 0.0,
        }
        _, m2, _ = model_from_json(doc)
        assert _mean_vector(m2, np.array([[1.0, 1.0]]))[0] == 6.0

    def test_prior_roundtrip(self):
        doc = {
            "kernel": {"family": "matern52", "variance": 1.0, "lengthscales": [0.7]},
            "mean": {"type": "basis", "basis": "polynomial", "degree": 1,
                     "prior_mean": [0.5, -2.0], "prior_cov": [[2.0, 0.3], [0.3, 1.0]]},
            "noise_variance": 0.01,
        }
        _, m2, _ = model_from_json(doc)
        assert m2 == MeanSpec.polynomial(1, 1, prior_mean=[0.5, -2.0],
                                         prior_cov=[[2.0, 0.3], [0.3, 1.0]])

    @pytest.mark.parametrize("degree", [0, 1, 3])
    def test_polynomial_degree_from_exponents(self, degree):
        doc = {
            "kernel": {"family": "exponential", "variance": 1.0, "lengthscales": [1.0, 1.0]},
            "mean": {"type": "basis", "basis": "polynomial", "degree": degree},
            "noise_variance": 0.0,
        }
        _, m2, _ = model_from_json(doc)
        assert m2.p == MeanSpec.polynomial(2, degree).p

    @pytest.mark.parametrize("mdoc, name", [
        ({"type": "constant_unknown", "prior_mean": None, "prior_cov": None}, "prior_mean"),
        ({"type": "basis", "basis": "polynomial", "degree": 1, "coefficients": None},
         "coefficients"),
        ({"type": "basis", "basis": "polynomial", "degree": 0, "prior_mean": [5.0],
          "prior_cov": None}, "prior_cov"),
        ({"type": "known", "constant": None}, "constant"),
    ])
    def test_null_mean_field_rejected(self, mdoc, name):
        # a null is not an absent field: only the fields a document holds reach MeanSpec
        doc = {"kernel": {"family": "exponential", "variance": 1.0, "lengthscales": [1.0]},
               "mean": mdoc, "noise_variance": 0.0}
        with pytest.raises(InputError, match=f"mean field '{name}' is null"):
            model_from_json(doc)

    def test_isotropic_broadcast_from_data_dim(self):
        doc = {
            "kernel": {"family": "exponential", "variance": 1.0, "lengthscales": [2.0]},
            "mean": {"type": "constant_unknown"},
            "noise_variance": 0.0,
        }
        kernel, _, _ = model_from_json(doc, dim=3)
        assert kernel.lengthscales == (2.0, 2.0, 2.0)

    MODEL = {"kernel": {"family": "exponential", "variance": 1.0, "lengthscales": [1.0]},
             "mean": {"type": "constant_unknown"}, "noise_variance": 0.0}

    @pytest.mark.parametrize("doc, what, key", [
        ({**MODEL, "max_jiter": 1e-3}, "model document", "max_jiter"),
        ({**MODEL, "kernel": {**MODEL["kernel"], "nugget": 0.1}}, "kernel document", "nugget"),
        ({**MODEL, "mean": {"type": "basis", "basis": "polynomial", "degre": 3}},
         "mean document", "degre"),
        ({**MODEL, "mean": {"type": "known", "constant": 1.0, "basis": "polynomial"}},
         "mean document", "basis"),
        ({**MODEL, "mean": {"type": "constant_unknown", "degree": 0}}, "mean document", "degree"),
        ({**MODEL, "mean": {"type": "constant_unknown", "constant": 1.0}},
         "mean document", "constant"),
    ], ids=["model", "kernel", "basis-mean", "known-mean", "constant-degree",
            "constant-constant"])
    def test_unknown_keys_rejected(self, doc, what, key):
        # a misspelt or misplaced key is refused by name, not read as absent
        with pytest.raises(InputError, match=f"^{what} does not define '{key}'$"):
            model_from_json(doc)

    @pytest.mark.parametrize("doc, message", [
        ({"type": "basis", "basis": "fourier"}, "unsupported basis family"),
        ({"type": "spline"}, "unknown mean type"),
        # an unknown type is named before the keys it would define
        ({"type": "spline", "knots": 3}, "unknown mean type 'spline'"),
        ({"type": ["basis"]}, "unknown mean type"),
        ({"type": "known"}, "known mean document lacks 'constant'"),
    ])
    def test_bad_mean_documents_rejected(self, doc, message):
        with pytest.raises(InputError, match=message):
            _mean_from_json(doc, 1)

    def test_bad_documents_rejected(self):
        with pytest.raises(InputError):
            model_from_json({"kernel": {}})
        with pytest.raises(InputError):
            model_from_json({
                "kernel": {"family": "nope", "variance": 1.0, "lengthscales": [1.0]},
                "mean": {"type": "constant_unknown"},
                "noise_variance": 0.0,
            })
