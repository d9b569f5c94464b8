"""Independent oracle routes for the classical Kriging and GP identities.

Each function here computes a quantity the engine in :mod:`gpkrige.kriging`
also computes, along a different route: Simple Kriging by subtracting the
mean first, Ordinary Kriging by contracting the first block row instead of
factoring the constraint Gram, SK around a GLS plug-in mean, the GLS
constant in closed form, the bordered Kriging system by one dense LU, the
joint prior over (Y, Z(X*)), and the partitioned inverse of a block matrix.
``gpkrige verify`` and the tests compare the engine against these routes;
no production path calls them.

Each block route (``_subtraction_route``, ``_direct_route``,
``_plugin_route``) factors its own Gram once per call, never the engine's
nor another route's, and serves every target with one multi-right-hand-side
solve; the one-point functions call that block form with a single row.
The subtraction route whitens against its factor as the engine does; the
direct and plug-in routes solve against S itself (``cho_solve``), so they
share neither the factor nor the algorithm with the engine.
:func:`bordered_solve` shares no algorithm with the engine: one pivoted LU
of the whole bordered matrix replaces its Cholesky factors.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .exceptions import InputError, SingularityError
from .kernels import (
    CONSTANT_UNKNOWN,
    Dataset,
    KernelSpec,
    MeanSpec,
    _as_locations,
    _mean_vector,
    _rowdot,
    basis_matrix,
    build_gram,
    kernel_matrix,
)
from .kriging import (
    Prediction,
    _clamped,
    _data_basis,
    _factor_observation_cov,
    _one_row,
    _Route,
)
from .linalg import _factor_constraint_gram, _whiten, solve_spd


def sk_mean_subtraction(data: Dataset, kernel: KernelSpec, mean: MeanSpec, xstar,
                        max_jitter: float = 0.0) -> Prediction:
    """Simple Kriging via the subtract-the-mean-first route.

    Runs zero-mean SK on the residuals Y - m and adds m(x*) back; provably
    identical to :func:`simple_krige`, kept as an independent code path.
    """
    return _subtraction_route(data, kernel, mean, _one_row(xstar), max_jitter).records()[0]


def _subtraction_route(data: Dataset, kernel: KernelSpec, mean: MeanSpec, xs,
                       max_jitter: float) -> _Route:
    """:func:`sk_mean_subtraction` at every row of ``xs``, on its own factor.

    Zero-mean SK of the residuals y - m, whitened by that factor L:
    v = L^-1 k*, z = L^-1 (y - m), mean m(x*) + v^T z, variance
    sigma*^2 - v^T v and weights lam = L^-T v.
    """
    m_vec, m_star = _mean_vector(mean, data.x), _mean_vector(mean, xs)
    factor = _factor_observation_cov(data, kernel, max_jitter)
    v = _whiten(factor, kernel_matrix(kernel, xs, data.x).T).T
    mean_value = m_star + _rowdot(v, _whiten(factor, data.y - m_vec))
    estimator_var = _rowdot(v, v)
    lam = _whiten(factor, v.T, transpose=True).T  # consumes v
    return _Route(
        "sk",
        mean=mean_value,
        variance=_clamped(kernel.variance - estimator_var, kernel.variance),
        estimator_variance=estimator_var,
        lam=lam,
        lam0=m_star - _rowdot(lam, m_vec),
        mu_tilde=np.empty((lam.shape[0], 0)),
        jitter=factor.jitter_used > 0.0,
    )


def ordinary_krige_direct(data: Dataset, kernel: KernelSpec, xstar,
                          max_jitter: float = 0.0) -> Prediction:
    """Ordinary Kriging without the block machinery.

    Isolates lambda in the first block row, contracts with 1^T, and solves
    the resulting scalar equation for the multiplier.  Must agree with
    :func:`ordinary_krige` to full working precision.
    """
    return _direct_route(data, kernel, _one_row(xstar), max_jitter).records()[0]


def _direct_route(data: Dataset, kernel: KernelSpec, xs, max_jitter: float) -> _Route:
    """:func:`ordinary_krige_direct` at every row of ``xs``, on its own factor."""
    factor = _factor_observation_cov(data, kernel, max_jitter)
    kt = kernel_matrix(kernel, xs, data.x)
    ones = np.ones(data.n)
    s = solve_spd(factor, kt.T).T
    w = solve_spd(factor, ones)
    denom = float(ones @ w)
    s_sum = _rowdot(s, ones)
    mu_contracted = (s_sum - 1.0) / denom
    lam = s - mu_contracted[:, None] * w
    mu_tilde = -mu_contracted

    sigma_star2 = kernel.variance
    sk_part = sigma_star2 - _rowdot(kt, s)
    inflation = (1.0 - s_sum) ** 2 / denom
    return _Route(
        "ok",
        mean=_rowdot(lam, data.y),
        variance=_clamped(sk_part + inflation, sigma_star2),
        estimator_variance=_rowdot(lam, kt) + mu_tilde,
        lam=lam,
        lam0=np.zeros(lam.shape[0]),
        mu_tilde=mu_tilde[:, None],
        jitter=factor.jitter_used > 0.0,
    )


def gls_constant(data: Dataset, kernel: KernelSpec, max_jitter: float = 0.0) -> float:
    """GLS estimate of an unknown constant mean: (1^T S^-1 Y) / (1^T S^-1 1)."""
    factor = _factor_observation_cov(data, kernel, max_jitter)
    w = solve_spd(factor, np.ones(data.n))
    return float(w @ data.y) / float(np.sum(w))


def sk_with_plugin_mean(data: Dataset, kernel: KernelSpec, mean: MeanSpec, xstar,
                        max_jitter: float = 0.0) -> Prediction:
    """Two-step route: estimate the mean by GLS, then Simple-Krige around it.

    T(Y) = f(x*)^T beta-hat + k*^T S^-1 (Y - M beta-hat).  Provably equal to
    Ordinary Kriging (constant mean) or Universal Kriging (basis mean); the
    reported error variance is the one of that equivalent estimator, since
    the plug-in predictor is not conditioning on a truly known mean.
    """
    return _plugin_route(data, kernel, mean, _one_row(xstar), max_jitter).records()[0]


def _plugin_route(data: Dataset, kernel: KernelSpec, mean: MeanSpec, xs,
                  max_jitter: float) -> _Route:
    """:func:`sk_with_plugin_mean` at every row of ``xs``, on its own factor."""
    m_mat = _data_basis(mean, data)
    factor = _factor_observation_cov(data, kernel, max_jitter)
    w = solve_spd(factor, m_mat)
    gram_factor = _factor_constraint_gram(m_mat.T @ w)
    beta = solve_spd(gram_factor, w.T @ data.y)
    kt = kernel_matrix(kernel, xs, data.x)
    f = basis_matrix(mean, xs)
    s = solve_spd(factor, kt.T).T

    mean_value = _rowdot(f, beta) + _rowdot(s, data.y - m_mat @ beta)

    sigma_star2 = kernel.variance
    gamma = f - np.einsum("ji,li->jl", s, np.ascontiguousarray(m_mat.T))
    h = solve_spd(gram_factor, gamma.T).T
    sk_part = sigma_star2 - _rowdot(kt, s)
    lam = s + np.einsum("jl,il->ji", h, w)
    return _Route(
        "ok" if mean.kind == CONSTANT_UNKNOWN else "uk",
        mean=mean_value,
        variance=_clamped(sk_part + _rowdot(gamma, h), sigma_star2),
        estimator_variance=_rowdot(lam, kt) + _rowdot(f, h),
        lam=lam,
        lam0=np.zeros(lam.shape[0]),
        mu_tilde=h,
        jitter=factor.jitter_used > 0.0,
    )


def bordered_solve(sigma, m, r_top, r_bot):
    """Solve [[Sigma, M], [M^T, 0]] (lambda; mu) = (r_top; r_bot) by one dense LU.

    The right-hand side is one vector pair (``r_top`` of length n, ``r_bot``
    of length p) or a block of k pairs (n x k and p x k), solved against
    one factorization; the solution has the same shape.  Returns
    ``(lambda, mu)`` with ``mu`` in the block-system sign convention
    (Sigma lambda + M mu = r_top).  Rank deficiency of M is checked on M
    itself, so it is found without solving against Sigma.
    """
    sigma, m = np.asarray(sigma, dtype=float), np.asarray(m, dtype=float)
    if m.ndim != 2 or sigma.shape != (m.shape[0], m.shape[0]):
        raise InputError(f"Sigma{sigma.shape} and M{m.shape} do not border each other")
    n, p = m.shape
    if p > n:
        raise InputError("more constraint columns than observations")
    r_top, r_bot = np.asarray(r_top, dtype=float), np.asarray(r_bot, dtype=float)
    if r_top.ndim < 2:
        r_top, r_bot = r_top.reshape(-1), r_bot.reshape(-1)
    if r_top.ndim > 2 or r_top.shape[0] != n or r_bot.shape != (p,) + r_top.shape[1:]:
        raise InputError("right-hand side does not match the block shapes")
    if np.linalg.matrix_rank(m) < p:
        raise SingularityError("basis functions linearly dependent at the design points")
    bordered = np.block([[sigma, m], [m.T, np.zeros((p, p))]])
    with warnings.catch_warnings():
        # an exact zero pivot only warns; it is raised as a SingularityError below
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(bordered)
    if not np.all(np.diag(lu)):
        raise SingularityError("bordered Kriging matrix is singular")
    solution = lu_solve((lu, piv), np.concatenate([r_top, r_bot]))
    return solution[:n], solution[n:]


def joint_prior(data: Dataset, kernel: KernelSpec, mean: MeanSpec, xs):
    """Joint prior over (Y, Z(X*)): mean vector and (n+m) x (n+m) covariance.

    Observation noise enters the training block only.
    """
    xs = _as_locations(xs, data.dim, "test points")
    if kernel.dim != data.dim:
        raise InputError(
            f"kernel dimension {kernel.dim} does not match data dimension {data.dim}"
        )
    mean_vec = np.concatenate([_mean_vector(mean, data.x), _mean_vector(mean, xs)])
    train = build_gram(kernel, data.x, data.noise_variance)
    cross = kernel_matrix(kernel, data.x, xs)
    test = build_gram(kernel, xs, 0.0)
    cov = np.block([[train, cross], [cross.T, test]])
    return mean_vec, cov


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
