"""SPD factorization and the bordered (saddle-point) solve."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg.lapack import dsytrf

from gpkrige import InputError, SingularityError, linalg
from gpkrige.linalg import (
    _factor_constraint_gram,
    _try_cholesky,
    _whiten,
    solve_spd,
    spd_factor,
)
from gpkrige.oracle import bordered_solve
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
        np.testing.assert_array_equal(spd_factor(b).chol, spd_factor(0.5 * b + 0.5 * b.T).chol)

    def test_entries_above_half_the_float_max_stay_finite(self):
        # symmetrized by halves: the sum of a and a^T would overflow
        a = np.array([[1e308, 5e307], [5e307, 1e308]])
        chol = spd_factor(a).chol
        assert np.isfinite(chol).all()
        np.testing.assert_allclose(chol @ chol.T, a, rtol=1e-15)

    def test_constraint_gram_above_half_the_float_max_stays_finite(self):
        chol = _factor_constraint_gram(np.diag([1e308, 1e308])).chol
        np.testing.assert_array_equal(chol, np.diag([np.sqrt(1e308)] * 2))

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

    def test_cholesky_runs_in_place(self):
        # LAPACK factors a column-major input where it lies, with no copy
        a = np.asfortranarray(random_spd(np.random.default_rng(8), 5))
        expected = np.linalg.cholesky(a)
        chol, pivot = _try_cholesky(a)
        assert chol is a and pivot is None
        np.testing.assert_allclose(a, expected, rtol=1e-13, atol=1e-15)
        assert not np.triu(a, 1).any()

    def test_illegal_lapack_argument_is_an_input_error(self, monkeypatch):
        def potrf(a, **kwargs):
            return a, -4

        monkeypatch.setattr(linalg, "get_lapack_funcs", lambda names, arrays: (potrf,))
        with pytest.raises(InputError, match="illegal value in argument 4 of Cholesky"):
            spd_factor(np.eye(2))

    def test_constraint_gram_cholesky_failure_names_the_basis(self, monkeypatch):
        # a Gram that passes the eigenvalue screen but fails to factor is
        # reported as dependent basis functions, with the failing pivot
        monkeypatch.setattr(linalg, "_try_cholesky", lambda a: (None, 1))
        with pytest.raises(SingularityError, match="basis functions linearly dependent") as err:
            _factor_constraint_gram(np.diag([2.0, 1.0]))
        assert err.value.pivot == 1
        assert isinstance(err.value.__cause__, SingularityError)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_non_finite_constraint_gram_rejected(self, p, bad):
        # checked before the eigenvalue screen, which reads some of these
        # as a dependent basis
        gram = np.eye(p)
        gram[0, 0] = bad
        with pytest.raises(InputError, match="^matrix must be finite$"):
            _factor_constraint_gram(gram)


class TestCheckSymmetric:
    # a 600 x 600 SPD matrix; (10, 590) lies far from the diagonal, where an
    # asymmetry must be seen as surely as next to it
    @staticmethod
    def spd600():
        x = np.random.default_rng(11).uniform(0.0, 1.0, (600, 2))
        a = np.exp(-np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1))
        return a + np.eye(600)

    @pytest.mark.parametrize("shape", [(2, 3), (4,)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(InputError, match="square matrix"):
            spd_factor(np.ones(shape))

    def test_far_tile_asymmetry_beyond_tolerance_raises(self):
        a = self.spd600()
        a[10, 590] += 2e-10 * np.abs(a).max()
        with pytest.raises(InputError, match="not symmetric"):
            spd_factor(a)

    def test_far_tile_asymmetry_within_tolerance_symmetrized(self):
        a = self.spd600()
        a[10, 590] += 5e-11 * np.abs(a).max()
        before = a.copy()
        got = spd_factor(a)
        np.testing.assert_array_equal(a, before)
        np.testing.assert_array_equal(got.chol, spd_factor(0.5 * a + 0.5 * a.T).chol)


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

    @pytest.mark.parametrize("layout", ["c-ordered", "transposed-view", "vector"])
    def test_right_hand_side_not_written(self, layout):
        # callers pass views of arrays they still use, such as gamma.T;
        # dtrsm overwrites a column-major B, so the solve works on a copy
        rng = np.random.default_rng(15)
        a = random_spd(rng, 4)
        b = {"c-ordered": rng.normal(size=(4, 3)),
             "transposed-view": rng.normal(size=(3, 4)).T,
             "vector": rng.normal(size=4)}[layout]
        before = b.copy()
        x = solve_spd(spd_factor(a), b)
        np.testing.assert_array_equal(b, before)
        assert not np.shares_memory(x, b)
        np.testing.assert_allclose(a @ x, b, atol=1e-9)


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

    @pytest.mark.parametrize("sigma, m", [
        (np.eye(3), np.ones((2, 1))),  # M has fewer rows than Sigma
        (np.ones((3, 2)), np.ones((3, 1))),  # Sigma is not square
        (np.eye(3), np.ones(3)),  # M is not a matrix
    ])
    def test_blocks_that_do_not_border_rejected(self, sigma, m):
        with pytest.raises(InputError, match="do not border each other"):
            bordered_solve(sigma, m, np.zeros(3), np.zeros(1))

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("block", ["Sigma", "M", "r_top", "r_bot"])
    def test_non_finite_blocks_rejected(self, block, bad):
        blocks = {"Sigma": np.eye(3), "M": np.ones((3, 1)),
                  "r_top": np.zeros(3), "r_bot": np.ones(1)}
        blocks[block][0] = bad
        with pytest.raises(InputError, match=f"{block} contains infs or NaNs"):
            bordered_solve(*blocks.values())

    @pytest.mark.parametrize("p", [0, 2])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_inputs_left_unchanged(self, order, p):
        # with p = 0 the bordered matrix is Sigma itself, in the order given
        rng = np.random.default_rng(14)
        sigma = np.asarray(random_spd(rng, 6), order=order)
        m = np.asarray(rng.normal(size=(6, p)), order=order)
        assert sigma.flags[f"{order}_CONTIGUOUS"] and m.flags[f"{order}_CONTIGUOUS"]
        before = sigma.tobytes(), m.tobytes()
        bordered_solve(sigma, m, rng.normal(size=(6, 3)), rng.normal(size=(p, 3)))
        assert (sigma.tobytes(), m.tobytes()) == before

    def test_two_by_two_pivots_match_dense_solve(self):
        # a tiny Sigma against a column of ones: the first pivot is a 2x2 block
        n = 5
        sigma, m = 1e-6 * np.eye(n), np.ones((n, 1))
        full = np.block([[sigma, m], [m.T, np.zeros((1, 1))]])
        _, ipiv, info = dsytrf(full, lower=1)
        assert info == 0 and (ipiv < 0).any()
        rhs = np.arange(1.0, n + 2.0)
        lam, mu = bordered_solve(sigma, m, rhs[:n], rhs[n:])
        dense = np.linalg.solve(full, rhs)
        np.testing.assert_allclose(np.concatenate([lam, mu]), dense, rtol=1e-8)

    @pytest.mark.parametrize("scale", [1.0, 1e-6])
    def test_columns_solve_as_they_would_alone(self, scale):
        # a block of right-hand sides, column by column, is the one-column
        # solve bit for bit; a small Sigma pivots in 2x2 blocks and swaps rows
        rng = np.random.default_rng(16)
        for n in (3, 9, 23):
            sigma, m = scale * random_spd(rng, n), rng.normal(size=(n, 2))
            full = np.block([[sigma, m], [m.T, np.zeros((2, 2))]])
            _, ipiv, _ = dsytrf(full, lower=1)
            assert scale == 1.0 or (ipiv < 0).any()
            r_top, r_bot = rng.normal(size=(n, 7)), rng.normal(size=(2, 7))
            lam, mu = bordered_solve(sigma, m, r_top, r_bot)
            for j in range(7):
                lam_j, mu_j = bordered_solve(sigma, m, r_top[:, j], r_bot[:, j])
                np.testing.assert_array_equal(lam_j, lam[:, j])
                np.testing.assert_array_equal(mu_j, mu[:, j])

    def test_lower_triangle_of_sigma_is_not_read(self):
        rng = np.random.default_rng(15)
        sigma, m = random_spd(rng, 6), rng.normal(size=(6, 2))
        r_top, r_bot = rng.normal(size=(6, 3)), rng.normal(size=(2, 3))
        lam, mu = bordered_solve(sigma, m, r_top, r_bot)
        sigma[4, 1] = 123.0
        lam_b, mu_b = bordered_solve(sigma, m, r_top, r_bot)
        np.testing.assert_array_equal(lam_b, lam)
        np.testing.assert_array_equal(mu_b, mu)

    def test_empty_system(self):
        lam, mu = bordered_solve(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0), np.zeros(0))
        assert lam.shape == (0,) and mu.shape == (0,)

    def test_singular_bordered_matrix_raises_without_warning(self):
        # M has full rank, but the rows of [Sigma, M] repeat
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularityError, match="singular"):
                bordered_solve(np.zeros((2, 2)), np.ones((2, 1)), np.zeros(2), np.ones(1))
