"""Independent oracle routes for the classical Kriging and GP identities.

Each function here computes a quantity the engine in :mod:`gpkrige.kriging`
also computes, along a different route: Simple Kriging as the engine's
zero-mean SK of the residuals, Ordinary Kriging by contracting the first
block row instead of factoring the constraint Gram, SK around a GLS
plug-in mean, the GLS constant in closed form, the bordered Kriging
system by one dense LU, and the joint prior over (Y, Z(X*)).
``gpkrige verify`` and the tests compare the engine against these routes;
no production path calls them.

Each block route serves every target with one multi-right-hand-side solve;
the one-point functions call that block form with a single row.  The
subtraction route is the engine itself on the residuals y - m(X), so it
checks how the engine enters a known mean, not its algebra.  The direct
and plug-in routes solve against a factor of S from the caller
(``verify`` passes the engine's; a fresh one would repeat it bit for bit)
with ``cho_solve``, so they share the factor but not the algorithm.  The
bordered route shares nothing with the engine: an S of its own, built once
per ``verify`` run by :func:`build_gram` and read by both of its calls, and
per call one pivoted LU of the whole bordered matrix, factored in the
buffer it is assembled in (:func:`bordered_solve`).
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import replace

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
    _check_basis_size,
    _clamped,
    _engine_route,
    _Engine,
    _factor_observation_cov,
    _mean_parts,
    _one_row,
    _Route,
)
from .linalg import SpdFactor, _factor_constraint_gram, solve_spd


def sk_mean_subtraction(data: Dataset, kernel: KernelSpec, mean: MeanSpec, xstar,
                        max_jitter: float = 0.0) -> Prediction:
    """Simple Kriging via the subtract-the-mean-first route.

    Runs the engine's zero-mean SK on the residuals Y - m and adds m(x*)
    back; provably identical to :func:`simple_krige`.  It shares the
    engine's algorithm, so it checks only how a known mean enters.
    """
    return _subtraction_route(data, kernel, mean, _one_row(xstar), max_jitter).records()[0]


def _subtraction_route(data: Dataset, kernel: KernelSpec, mean: MeanSpec, xs,
                       max_jitter: float) -> _Route:
    """:func:`sk_mean_subtraction` at every row of ``xs``, on its own engine.

    The engine's zero-mean SK of the residuals y - m(X), with m(x*) added
    to the mean and lam0 = m(x*) - lam . m(X).
    """
    m_vec, m_star = _mean_vector(mean, data.x), _mean_vector(mean, xs)
    residuals = _Engine(replace(data, y=data.y - m_vec), kernel, xs, max_jitter)
    route = _engine_route(residuals, "sk", MeanSpec.known_constant(0.0))
    return replace(route, mean=m_star + route.mean, lam0=m_star - _rowdot(route.lam, m_vec))


def ordinary_krige_direct(data: Dataset, kernel: KernelSpec, xstar,
                          max_jitter: float = 0.0) -> Prediction:
    """Ordinary Kriging without the block machinery.

    Isolates lambda in the first block row, contracts with 1^T, and solves
    the resulting scalar equation for the multiplier.  Must agree with
    :func:`ordinary_krige` to full working precision.
    """
    return _direct_route(data, kernel, _one_row(xstar),
                         _factor_observation_cov(data, kernel, max_jitter)).records()[0]


def _direct_route(data: Dataset, kernel: KernelSpec, xs, factor: SpdFactor) -> _Route:
    """:func:`ordinary_krige_direct` at every row of ``xs``, against ``factor`` of S."""
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
    _check_basis_size(mean, data)
    return _plugin_route(data, kernel, mean, _one_row(xstar),
                         _factor_observation_cov(data, kernel, max_jitter)).records()[0]


def _plugin_route(data: Dataset, kernel: KernelSpec, mean: MeanSpec, xs,
                  factor: SpdFactor) -> _Route:
    """:func:`sk_with_plugin_mean` at every row of ``xs``, against ``factor`` of S."""
    m_mat = basis_matrix(mean, data.x)
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
    itself, so it is found without solving against Sigma.  The bordered
    matrix is assembled in a Fortran-ordered buffer of its own and
    LU-factored in place, so the caller's arrays are never written.
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
    for name, block in (("Sigma", sigma), ("M", m), ("r_top", r_top), ("r_bot", r_bot)):
        if not np.isfinite(block).all():
            raise InputError(f"{name} contains infs or NaNs")
    if np.linalg.matrix_rank(m) < p:
        raise SingularityError("basis functions linearly dependent at the design points")
    bordered = np.empty((n + p, n + p), order="F")
    bordered[:n, :n] = sigma
    bordered[:n, n:] = m
    bordered[n:, :n] = m.T
    bordered[n:, n:] = 0.0
    with warnings.catch_warnings():
        # an exact zero pivot only warns; it is raised as a SingularityError below
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(bordered, overwrite_a=True, check_finite=False)
    if not np.all(np.diag(lu)):
        raise SingularityError("bordered Kriging matrix is singular")
    solution = lu_solve((lu, piv), np.concatenate([r_top, r_bot]))
    return solution[:n], solution[n:]


_Moments = namedtuple("_Moments", ["mean", "variance"])  # per target, like a _Route's


def _bordered_blocks(data: Dataset, kernel: KernelSpec, xs, jitter: float):
    """The (S, K*) pair every :func:`_bordered_route` call of one run shares.

    S comes from :func:`build_gram` plus ``jitter`` on its diagonal, apart
    from the engine's, which the engine factors in place; K* is the n x m
    block k(X, X*).
    """
    sigma = build_gram(kernel, data.x, data.noise_variance)
    sigma[np.diag_indices(data.n)] += jitter
    return sigma, kernel_matrix(kernel, data.x, xs)


def _bordered_route(data: Dataset, kernel: KernelSpec, mean: MeanSpec, xs,
                    blocks) -> _Moments:
    """GPR at every row of ``xs`` from [[S, M], [M^T, 0]] (Lam; Nu) = (K*; F*^T).

    ``blocks`` is the (S, K*) pair of :func:`_bordered_blocks`, read but not
    written, so one pair serves every call; each call LU-factors its own
    bordered matrix.  A known mean borders S by no columns and enters as the
    offset m(X).  The variance is not clamped, so an ill-conditioned S fails
    a row, not the run.
    """
    sigma, kstar = blocks
    offset, design = _mean_parts(mean, data.x)
    offset_star, fstar = _mean_parts(mean, xs)
    lam, nu = bordered_solve(sigma, design, kstar, fstar.T)
    return _Moments(offset_star + (data.y - offset) @ lam,
                    kernel.variance - np.sum(lam * kstar, axis=0) - np.sum(nu * fstar.T, axis=0))


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
    cov = build_gram(kernel, np.vstack([data.x, xs]))
    cov[np.diag_indices(data.n)] += data.noise_variance
    return mean_vec, cov
