"""SPD factorization, the partitioned inverse, and the bordered (saddle-point) solve."""

import math
import warnings

import numpy as np
import pytest

from gpkrige import InputError, SingularityError
from gpkrige.linalg import _check_symmetric, _whiten, solve_spd, spd_factor
from gpkrige.oracle import block_inverse, bordered_solve
from helpers import random_spd


class TestSpdFactor:
    def test_identity(self):
        f = spd_factor(np.eye(3))
        assert f.jitter_used == 0.0
        b = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(solve_spd(f, b), b)

    def test_correlated_pair(self):
        e = math.exp(-0.5)
        f = spd_factor(np.array([[1.0, e], [e, 1.0]]))
        assert f.jitter_used == 0.0

    def test_rank_deficient_raises_with_pivot(self):
        with pytest.raises(SingularityError) as err:
            spd_factor(np.ones((2, 2)))
        assert err.value.pivot == 1

    def test_rank_deficient_succeeds_with_jitter(self):
        f = spd_factor(np.ones((2, 2)), max_jitter=1e-6)
        assert f.jitter_used > 0.0

    def test_reconstruction_matches_jittered_input(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 6)
        f = spd_factor(a)
        assert not np.triu(f.chol, 1).any()
        np.testing.assert_allclose(f.chol @ f.chol.T, a, rtol=1e-12, atol=1e-12)

    def test_reconstruction_includes_jitter(self):
        a = np.ones((3, 3))
        f = spd_factor(a, max_jitter=1e-4)
        target = a + f.jitter_used * np.eye(3)
        np.testing.assert_allclose(f.chol @ f.chol.T, target, rtol=1e-12, atol=1e-14)

    def test_input_left_untouched(self):
        # an input asymmetric by rounding is factored as its symmetric part
        rng = np.random.default_rng(7)
        a = random_spd(rng, 5)
        b = a.copy()
        b[0, 1] += 4e-16 * abs(b[0, 1])
        assert b[0, 1] != b[1, 0]
        for m in (a, b, np.asfortranarray(b)):
            before = m.copy()
            spd_factor(m)
            spd_factor(m, max_jitter=1e-6)
            np.testing.assert_array_equal(m, before)
        np.testing.assert_array_equal(spd_factor(b).chol, spd_factor(0.5 * (b + b.T)).chol)

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError, match="symmetric"):
            spd_factor(np.array([[1.0, 0.5], [0.2, 1.0]]))

    @pytest.mark.parametrize("entry, bad", [((0, 2), math.nan), ((1, 1), math.nan),
                                            ((1, 1), math.inf)])
    def test_non_finite_matrix_rejected(self, entry, bad):
        a = np.eye(3)
        a[entry] = a[entry[::-1]] = bad
        with pytest.raises(InputError, match="matrix must be finite"):
            spd_factor(a)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_right_hand_side_rejected(self, bad):
        f = spd_factor(np.eye(3))
        with pytest.raises(InputError, match="right-hand side must be finite"):
            solve_spd(f, np.array([[1.0, 0.0], [bad, 0.0], [0.0, 1.0]]))

    def test_not_pd_within_budget(self):
        a = np.diag([1.0, -1.0])
        with pytest.raises(SingularityError):
            spd_factor(a, max_jitter=1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        a = np.ones((4, 4)) + 1e-14 * np.diag(rng.random(4))
        f1 = spd_factor(a, max_jitter=1e-3)
        f2 = spd_factor(a, max_jitter=1e-3)
        assert f1.jitter_used == f2.jitter_used
        b = rng.normal(size=4)
        np.testing.assert_array_equal(solve_spd(f1, b), solve_spd(f2, b))


class TestCheckSymmetric:
    # 600 x 600 spans three 256-wide tiles a side; (10, 590) lies in the
    # tile farthest from the diagonal
    @staticmethod
    def spd600():
        x = np.random.default_rng(11).uniform(0.0, 1.0, (600, 2))
        a = np.exp(-np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1))
        return a + np.eye(600)

    def test_exactly_symmetric_returned_uncopied(self):
        a = self.spd600()
        assert _check_symmetric(a) is a

    def test_far_tile_asymmetry_beyond_tolerance_raises(self):
        a = self.spd600()
        a[10, 590] += 2e-10 * np.abs(a).max()
        with pytest.raises(InputError, match="not symmetric"):
            _check_symmetric(a)

    def test_far_tile_asymmetry_within_tolerance_symmetrized(self):
        a = self.spd600()
        a[10, 590] += 5e-11 * np.abs(a).max()
        before = a.copy()
        got = _check_symmetric(a)
        assert got is not a
        np.testing.assert_array_equal(a, before)
        np.testing.assert_array_equal(got, got.T)
        np.testing.assert_array_equal(got, 0.5 * (a + a.T))


class TestWhiten:
    def test_solves_against_the_lower_factor(self):
        rng = np.random.default_rng(12)
        a = random_spd(rng, 7)
        f = spd_factor(a)
        b = rng.normal(size=(7, 3))
        np.testing.assert_allclose(f.chol @ _whiten(f, b.copy()), b, atol=1e-10)
        np.testing.assert_allclose(f.chol.T @ _whiten(f, b.copy(), transpose=True), b,
                                   atol=1e-10)
        np.testing.assert_allclose(_whiten(f, b[:, 0].copy()), _whiten(f, b.copy())[:, 0],
                                   atol=1e-12)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_columns_do_not_depend_on_their_block(self, transpose):
        rng = np.random.default_rng(13)
        f = spd_factor(random_spd(rng, 50))
        b = np.asfortranarray(rng.normal(size=(50, 9)))
        block = _whiten(f, b.copy(order="F"), transpose)
        for j in range(9):
            alone = _whiten(f, b[:, j:j + 1].copy(order="F"), transpose)
            assert np.array_equal(alone[:, 0], block[:, j])

    def test_column_major_right_hand_side_overwritten(self):
        rng = np.random.default_rng(14)
        f = spd_factor(random_spd(rng, 6))
        b = np.asfortranarray(rng.normal(size=(6, 4)))
        expected = np.linalg.solve(f.chol, b)
        x = _whiten(f, b)
        assert np.shares_memory(x, b)
        np.testing.assert_allclose(x, expected, atol=1e-12)

    def test_non_finite_right_hand_side_rejected(self):
        f = spd_factor(np.eye(3))
        with pytest.raises(InputError, match="right-hand side must be finite"):
            _whiten(f, np.array([1.0, math.nan, 0.0]))


class TestSolveSpd:
    def test_diagonal(self):
        f = spd_factor(np.diag([2.0, 4.0]))
        np.testing.assert_allclose(solve_spd(f, np.array([2.0, 4.0])), [1.0, 1.0])

    def test_residual_on_random_spd(self):
        rng = np.random.default_rng(7)
        a = random_spd(rng, 6)
        b = rng.normal(size=6)
        x = solve_spd(spd_factor(a), b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-10

    def test_matrix_rhs(self):
        rng = np.random.default_rng(8)
        a = random_spd(rng, 5)
        b = rng.normal(size=(5, 3))
        x = solve_spd(spd_factor(a), b)
        np.testing.assert_allclose(a @ x, b, atol=1e-9)

    def test_shape_mismatch(self):
        f = spd_factor(np.eye(3))
        with pytest.raises(InputError):
            solve_spd(f, np.ones(4))


class TestBlockInverse:
    def test_identity_blocks(self):
        out = block_inverse(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
        np.testing.assert_allclose(out, np.eye(4), atol=1e-14)

    def test_saddle_blocks_against_dense_inverse(self):
        a = np.eye(2)
        b = np.ones((2, 1))
        c = np.ones((1, 2))
        d = np.zeros((1, 1))
        s = np.block([[a, b], [c, d]])
        np.testing.assert_allclose(block_inverse(a, b, c, d), np.linalg.inv(s),
                                   atol=1e-12)

    def test_scaled_case_against_dense_inverse(self):
        a = np.diag([2.0, 2.0])
        b = np.array([[1.0], [1.0]])
        c = b.T
        d = np.zeros((1, 1))
        s = np.block([[a, b], [c, d]])
        np.testing.assert_allclose(block_inverse(a, b, c, d), np.linalg.inv(s),
                                   atol=1e-12)

    def test_composition_is_identity(self):
        rng = np.random.default_rng(9)
        a = random_spd(rng, 5)
        b = rng.normal(size=(5, 2))
        c = rng.normal(size=(2, 5))
        d = rng.normal(size=(2, 2)) + 4.0 * np.eye(2)
        s = np.block([[a, b], [c, d]])
        np.testing.assert_allclose(s @ block_inverse(a, b, c, d), np.eye(7), atol=1e-10)

    def test_singular_a_identified(self):
        with pytest.raises(SingularityError, match="block A"):
            block_inverse(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2))

    def test_singular_schur_identified(self):
        # D - C A^-1 B = 0 here
        with pytest.raises(SingularityError, match="Schur"):
            block_inverse(np.eye(2), np.eye(2), np.eye(2), np.eye(2))


class TestSolveSaddle:
    def test_two_point_example_against_dense_oracle(self):
        sigma = np.eye(2)
        m = np.ones((2, 1))
        lam, mu = bordered_solve(sigma, m, np.zeros(2), np.array([1.0]))
        full = np.block([[sigma, m], [m.T, np.zeros((1, 1))]])
        oracle = np.linalg.solve(full, np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(lam, oracle[:2], atol=1e-14)
        np.testing.assert_allclose(mu, oracle[2:], atol=1e-14)
        np.testing.assert_allclose(lam, [0.5, 0.5])
        np.testing.assert_allclose(mu, [-0.5])

    def test_identity_gram_gives_equal_weights(self):
        n = 7
        lam, _ = bordered_solve(np.eye(n), np.ones((n, 1)), np.zeros(n), np.array([1.0]))
        np.testing.assert_allclose(lam, np.full(n, 1.0 / n), atol=1e-14)

    def test_random_against_dense_solve(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            p = int(rng.integers(1, min(n, 4)))
            sigma = random_spd(rng, n)
            m = rng.normal(size=(n, p))
            r_top = rng.normal(size=n)
            r_bot = rng.normal(size=p)
            lam, mu = bordered_solve(sigma, m, r_top, r_bot)
            full = np.block([[sigma, m], [m.T, np.zeros((p, p))]])
            oracle = np.linalg.solve(full, np.concatenate([r_top, r_bot]))
            scale = np.linalg.norm(oracle)
            assert np.linalg.norm(np.concatenate([lam, mu]) - oracle) <= 1e-8 * scale

    def test_block_right_hand_sides_match_columns(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            p = int(rng.integers(1, min(n, 4)))
            k = int(rng.integers(1, 6))
            sigma = random_spd(rng, n)
            m = rng.normal(size=(n, p))
            r_top = rng.normal(size=(n, k))
            r_bot = rng.normal(size=(p, k))
            lam, mu = bordered_solve(sigma, m, r_top, r_bot)
            assert lam.shape == (n, k) and mu.shape == (p, k)
            for j in range(k):
                lam_j, mu_j = bordered_solve(sigma, m, r_top[:, j], r_bot[:, j])
                assert lam_j.shape == (n,) and mu_j.shape == (p,)
                np.testing.assert_allclose(lam[:, j], lam_j, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(mu[:, j], mu_j, rtol=1e-12, atol=1e-12)

    def test_block_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            bordered_solve(np.eye(3), np.ones((3, 1)), np.zeros((3, 2)), np.zeros((1, 3)))

    def test_block_residuals(self):
        rng = np.random.default_rng(11)
        sigma = random_spd(rng, 5)
        m = np.ones((5, 1))
        r_top = rng.normal(size=5)
        r_bot = rng.normal(size=1)
        lam, mu = bordered_solve(sigma, m, r_top, r_bot)
        bound = 1e-9 * (1.0 + np.linalg.norm(np.concatenate([r_top, r_bot])))
        assert np.linalg.norm(sigma @ lam + m @ mu - r_top) <= bound
        assert np.linalg.norm(m.T @ lam - r_bot) <= bound

    def test_rank_deficient_constraints_rejected(self):
        rng = np.random.default_rng(12)
        sigma = random_spd(rng, 4)
        m = np.ones((4, 2))  # two identical columns
        with pytest.raises(SingularityError, match="linearly dependent"):
            bordered_solve(sigma, m, np.zeros(4), np.zeros(2))

    def test_more_constraints_than_points_rejected(self):
        with pytest.raises(InputError):
            bordered_solve(np.eye(2), np.ones((2, 3)), np.zeros(2), np.zeros(3))

    def test_singular_bordered_matrix_raises_without_warning(self):
        # M has full rank, but the rows of [Sigma, M] repeat
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularityError, match="singular"):
                bordered_solve(np.zeros((2, 2)), np.ones((2, 1)), np.zeros(2), np.ones(1))
