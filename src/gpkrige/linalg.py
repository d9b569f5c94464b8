"""Positive-definite factorizations and the block saddle-point solve.

Every Kriging variant reduces to solving against an SPD observation
covariance, optionally coupled to unbiasedness constraints through a
``[[Sigma, M], [M^T, 0]]`` saddle-point system.  This module factors Sigma
once (Cholesky via LAPACK) and solves the saddle system through its Schur
complement; the explicit partitioned-inverse formula is also provided as an
independently testable path.  Sigma^-1 is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, get_lapack_funcs

from .exceptions import InputError, SingularityError

_SYM_RTOL = 1e-10


@dataclass(frozen=True)
class SpdFactor:
    """Lower Cholesky factor of A + jitter_used * I.

    Immutable after construction; solves against it are read-only and safe
    to share across threads.
    """

    chol: np.ndarray
    jitter_used: float
    n: int


def _check_symmetric(a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, np.abs(a).max())
    if np.abs(a - a.T).max() > _SYM_RTOL * scale:
        raise InputError("matrix is not symmetric")
    return 0.5 * (a + a.T)


def _try_cholesky(a):
    """Attempt a lower Cholesky; return (L, None) or (None, failing pivot)."""
    (potrf,) = get_lapack_funcs(("potrf",), (a,))
    c, info = potrf(a, lower=True, overwrite_a=False, clean=True)
    if info < 0:
        raise InputError(f"illegal value in argument {-info} of Cholesky")
    if info > 0:
        return None, info - 1
    return c, None


def spd_factor(a, max_jitter: float = 0.0) -> SpdFactor:
    """Factor a symmetric positive-definite matrix.

    With ``max_jitter == 0`` the factorization must succeed as-is.  With
    ``max_jitter > 0`` a diagonal shift delta * I is added, with delta
    escalating in decade steps from ``1e-12 * trace(A)/n`` up to
    ``max_jitter``, until the shifted matrix factors; the shift actually
    used is recorded in ``jitter_used``.
    """
    a = _check_symmetric(a)
    n = a.shape[0]
    chol, pivot = _try_cholesky(a)
    if chol is not None:
        return SpdFactor(chol=np.tril(chol), jitter_used=0.0, n=n)
    max_jitter = float(max_jitter)
    if max_jitter > 0.0:
        delta = 1e-12 * np.trace(a) / n
        if not delta > 0.0:
            delta = max_jitter
        while delta <= max_jitter:
            chol, pivot = _try_cholesky(a + delta * np.eye(n))
            if chol is not None:
                return SpdFactor(chol=np.tril(chol), jitter_used=delta, n=n)
            delta *= 10.0
    raise SingularityError(
        f"matrix is not positive definite (Cholesky failed at pivot {pivot})",
        pivot=pivot,
    )


def solve_spd(factor: SpdFactor, b) -> np.ndarray:
    """Solve (A + jitter * I) X = B against a prepared factor."""
    b = np.asarray(b, dtype=float)
    if b.shape[0] != factor.n:
        raise InputError(f"right-hand side has {b.shape[0]} rows, expected {factor.n}")
    return cho_solve((factor.chol, True), b)


def block_inverse(a, b, c, d) -> np.ndarray:
    """Invert [[A, B], [C, D]] via the Schur complement of A.

    Implements the partitioned-inverse identity

        [[A^-1 + A^-1 B W C A^-1,  -A^-1 B W],
         [-W C A^-1,                W]],   W = (D - C A^-1 B)^-1.

    A must be invertible and so must the Schur complement; the error says
    which one failed.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    b = b[:, None] if b.ndim == 1 else b
    c = c[None, :] if c.ndim == 1 else c
    d = np.atleast_2d(d)
    n, p = b.shape
    if a.shape != (n, n) or c.shape != (p, n) or d.shape != (p, p):
        raise InputError(
            f"inconsistent block shapes: A{a.shape} B{b.shape} C{c.shape} D{d.shape}"
        )
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as err:
        raise SingularityError("block A is singular") from err
    schur = d - c @ a_inv @ b
    try:
        w = np.linalg.inv(schur)
    except np.linalg.LinAlgError as err:
        raise SingularityError("Schur complement D - C A^-1 B is singular") from err
    ab = a_inv @ b
    ca = c @ a_inv
    return np.block([
        [a_inv + ab @ w @ ca, -ab @ w],
        [-w @ ca, w],
    ])


def solve_saddle(sigma, m, r_top, r_bot, max_jitter: float = 0.0):
    """Solve [[Sigma, M], [M^T, 0]] (lambda; mu) = (r_top; r_bot).

    Schur path: factor Sigma once, then

        mu     = (M^T Sigma^-1 M)^-1 (M^T Sigma^-1 r_top - r_bot)
        lambda = Sigma^-1 (r_top - M mu).

    The right-hand side is one vector pair (``r_top`` of length n, ``r_bot``
    of length p) or a block of k pairs (n x k and p x k), solved with one
    factorization; the solution has the same shape.  Returns
    ``(lambda, mu)`` with ``mu`` in the block-system sign convention
    (Sigma lambda + M mu = r_top).
    """
    factor = spd_factor(sigma, max_jitter)
    m = np.asarray(m, dtype=float)
    m = m[:, None] if m.ndim == 1 else m
    if m.shape[0] != factor.n:
        raise InputError(f"M has {m.shape[0]} rows, expected {factor.n}")
    if m.shape[1] > factor.n:
        raise InputError("more constraint columns than observations")
    r_top = np.asarray(r_top, dtype=float)
    r_bot = np.asarray(r_bot, dtype=float)
    if r_top.ndim < 2:
        r_top, r_bot = r_top.reshape(-1), r_bot.reshape(-1)
    if (r_top.ndim > 2 or r_top.shape[0] != factor.n
            or r_bot.shape != (m.shape[1],) + r_top.shape[1:]):
        raise InputError("right-hand side does not match the block shapes")
    w = solve_spd(factor, m)
    gram_factor = _factor_constraint_gram(m.T @ w)
    t = solve_spd(factor, r_top)
    mu = solve_spd(gram_factor, m.T @ t - r_bot)
    return t - w @ mu, mu


_RANK_RTOL = 1e-12


def _factor_constraint_gram(gram) -> SpdFactor:
    """Factor a small p x p constraint Gram, catching rank deficiency.

    Cholesky alone can slip past an exactly rank-deficient Gram whose zero
    pivot rounds to ~1e-16, so near-zero eigenvalues are rejected explicitly.
    """
    gram = 0.5 * (gram + gram.T)
    eig = np.linalg.eigvalsh(gram)
    if eig[-1] <= 0.0 or eig[0] <= _RANK_RTOL * eig[-1]:
        raise SingularityError(
            "basis functions linearly dependent at the design points"
        )
    try:
        return spd_factor(gram)
    except SingularityError as err:
        raise SingularityError(
            "basis functions linearly dependent at the design points",
            pivot=err.pivot,
        ) from err
