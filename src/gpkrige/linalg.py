"""Positive-definite factorizations: the engine's only solver.

Every Kriging variant reduces to solving against an SPD observation
covariance, optionally coupled to unbiasedness constraints through the
p x p constraint Gram M^T Sigma^-1 M.  This module Cholesky-factors both
(LAPACK ``potrf``, with an optional diagonal jitter), solves against the
factors, and whitens against the lower factor L alone (L^-1 B, or L^-T B,
by one BLAS ``dtrsm``); Sigma^-1 is never formed.  Every factorization runs
in place through :func:`_factor_in_place`: the engine hands it the buffer
it built S in, already finite and read only in its lower triangle, so S is
neither mirrored, scanned nor copied; :func:`spd_factor` checks a
caller's matrix and hands it a copy.  The route that avoids these
factors (a dense LU of the bordered system) lives in :mod:`gpkrige.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, get_lapack_funcs
from scipy.linalg.blas import dtrsm

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


def _try_cholesky(a):
    """Attempt a lower Cholesky of the column-major ``a`` in place.

    Returns (L, None), L being ``a`` itself, or (None, failing pivot).
    LAPACK reads only the lower triangle, overwrites it with L and, with
    ``clean``, zeroes the strict upper one; a failed attempt leaves ``a``
    partly overwritten.
    """
    (potrf,) = get_lapack_funcs(("potrf",), (a,))
    c, info = potrf(a, lower=True, overwrite_a=True, clean=True)
    if info < 0:
        raise InputError(f"illegal value in argument {-info} of Cholesky")
    if info > 0:
        return None, info - 1
    return c, None


def _factor_in_place(a, max_jitter: float) -> SpdFactor:
    """Factor the finite matrix held in the lower triangle of column-major ``a``, in ``a``.

    With ``max_jitter == 0`` the factorization must succeed as-is.  With
    ``max_jitter > 0`` a diagonal shift delta * I is added, with delta
    escalating in decade steps from ``1e-12 * trace(A)/n`` up to
    ``max_jitter``, until the shifted matrix factors; the shift actually
    used is recorded in ``jitter_used``.  The retries start from a copy of
    ``a`` taken before the first attempt, so only a call that may jitter
    pays for it.
    """
    n = a.shape[0]
    untouched = np.array(a, order="F") if max_jitter > 0.0 else None
    chol, pivot = _try_cholesky(a)
    if chol is not None:
        return SpdFactor(chol=chol, jitter_used=0.0, n=n)
    if untouched is not None:
        delta = 1e-12 * np.trace(untouched) / n
        if not delta > 0.0:
            delta = max_jitter
        while delta <= max_jitter:
            chol, pivot = _try_cholesky(np.add(untouched, delta * np.eye(n), order="F"))
            if chol is not None:
                return SpdFactor(chol=chol, jitter_used=delta, n=n)
            delta *= 10.0
    raise SingularityError(
        f"matrix is not positive definite (Cholesky failed at pivot {pivot})",
        pivot=pivot,
    )


def spd_factor(a, max_jitter: float = 0.0) -> SpdFactor:
    """Factor a symmetric positive-definite matrix, leaving ``a`` as it is.

    ``a`` must be square, finite (so solves need not rescan it) and
    symmetric to a relative 1e-10; a column-major copy of 0.5 * (a + a^T),
    ``a`` bit for bit if exactly symmetric, is factored with
    :func:`_factor_in_place`'s jitter escalation.  ``max_jitter`` must
    already be a nonnegative finite float, validated by the caller.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InputError("matrix must be finite")
    scale = max(1.0, np.abs(a).max(initial=0.0))
    if np.abs(a - a.T).max(initial=0.0) > _SYM_RTOL * scale:
        raise InputError("matrix is not symmetric")
    return _factor_in_place(np.asfortranarray(0.5 * (a + a.T)), max_jitter)


def _right_hand_side(factor: SpdFactor, b) -> np.ndarray:
    """``b`` as a float array checked against the factor.

    The factor is finite by construction, so only B is checked.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[0] != factor.n:
        raise InputError(f"right-hand side has {b.shape[0]} rows, expected {factor.n}")
    if not np.isfinite(b).all():
        raise InputError("right-hand side must be finite")
    return b


def solve_spd(factor: SpdFactor, b) -> np.ndarray:
    """Solve (A + jitter * I) X = B against a prepared factor."""
    return cho_solve((factor.chol, True), _right_hand_side(factor, b), check_finite=False)


def _whiten(factor: SpdFactor, b, transpose: bool = False) -> np.ndarray:
    """L^-1 B (L^-T B with ``transpose``) by one BLAS ``dtrsm`` on the factor.

    B is an n-vector or an n x k matrix; a column-major float B is
    overwritten with the result instead of copied.  The engine's batch
    and one-target results agree bit for bit where each column of the
    result rounds the same whether it is solved alone or inside a block.
    ``dtrsm`` does so on the orders the tests check, though not on every
    BLAS kernel and order (OpenBLAS 0.3.31 on Haswell fails at n >= 385
    unless n is a multiple of 8); LAPACK ``trtrs`` behind
    ``scipy.linalg.solve_triangular`` does not.  A jittered factor
    whitens against A + jitter * I.
    """
    b = _right_hand_side(factor, b)
    if b.size == 0:
        return np.zeros(b.shape)
    x = dtrsm(1.0, factor.chol, b.reshape(factor.n, -1), lower=1, trans_a=int(transpose),
              overwrite_b=1)
    return x.reshape(b.shape)


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
