"""Independent oracle routes for the classical Kriging and GP identities.

Each function here computes a quantity the engine in :mod:`gpkrige.kriging`
also computes, along a different route: Ordinary and Universal Kriging as
SK around a GLS plug-in mean, the GLS constant in closed form, the
bordered Kriging system by one symmetric-indefinite LDL^T, and the joint
prior over (Y, Z(X*)).  ``gpkrige verify`` and the tests compare the
engine against these routes; no production path calls them, and no route
runs the engine or reads its factor.

The routes solve against S by one solver, the Bunch-Kaufman LDL^T of
:func:`bordered_solve`.  One LDL^T of an S of their own, built once per
run by :func:`_route_blocks`, gives every S^-1 column they read (S^-1 K*,
S^-1 1 and S^-1 M); only the trend's bordered system [[S, M], [M^T, 0]]
is factored again.  The plug-in route's p x p GLS Gram M^T S^-1 M is
Cholesky-factored by :mod:`gpkrige.linalg`, as the engine factors its
own.  Each route serves every target at once; the one-point functions
call that block form with a single row.  No route clamps its variances,
so a negative one from an ill-conditioned S fails a ``verify`` row, not
the run.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.linalg.blas import dtrsm

from .exceptions import InputError, SingularityError
from .kernels import (
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
    _mean_parts,
    _one_row,
    _Route,
)
from .linalg import _factor_constraint_gram, solve_spd

_Blocks = namedtuple("_Blocks", ["sigma", "kt", "s", "solved"])


def _route_blocks(data: Dataset, kernel: KernelSpec, xs, trend: MeanSpec,
                  jitter: float = 0.0) -> _Blocks:
    """The S, K*^T and S^-1 columns that every route of one run reads.

    ``sigma`` is S, :func:`build_gram` plus ``jitter`` on its diagonal
    (``verify`` passes the engine's), and ``kt`` is k(X*, X).  One
    :func:`bordered_solve` with an empty border gives ``s`` = (S^-1 K*)^T
    and ``solved``, which maps the unknown constant and ``trend`` to
    (M, S^-1 M); its factor is freed on return.  The designs come first, so
    a mean without a basis is rejected before S is built.
    """
    designs = {mean: basis_matrix(mean, data.x) for mean in (MeanSpec.constant_unknown(), trend)}
    sigma = build_gram(kernel, data.x, data.noise_variance)
    sigma[np.diag_indices(data.n)] += jitter
    kt = kernel_matrix(kernel, xs, data.x)
    rhs = np.hstack([kt.T, *designs.values()])
    columns, _ = bordered_solve(sigma, np.empty((data.n, 0)), rhs, np.empty((0, rhs.shape[1])))
    widths = np.cumsum([kt.shape[0], *(m.shape[1] for m in designs.values())])
    s, *solves = np.split(columns, widths[:-1], axis=1)
    return _Blocks(sigma, kt, s.T, dict(zip(designs, zip(designs.values(), solves))))


def gls_constant(data: Dataset, kernel: KernelSpec) -> float:
    """GLS estimate of an unknown constant mean: (1^T S^-1 Y) / (1^T S^-1 1)."""
    constant = MeanSpec.constant_unknown()
    w = _route_blocks(data, kernel, np.empty((0, data.dim)), constant).solved[constant][1][:, 0]
    return float(w @ data.y) / float(np.sum(w))


def sk_with_plugin_mean(data: Dataset, kernel: KernelSpec, mean: MeanSpec,
                        xstar) -> Prediction:
    """Two-step route: estimate the mean by GLS, then Simple-Krige around it.

    T(Y) = f(x*)^T beta-hat + k*^T S^-1 (Y - M beta-hat).  Provably equal to
    Ordinary Kriging (constant mean) or Universal Kriging (basis mean); the
    reported error variance is the one of that equivalent estimator, since
    the plug-in predictor is not conditioning on a truly known mean, and is
    not clamped: round-off can leave it slightly negative.

    At p = 1 (constant mean) this route is the direct solution of the
    Kriging system [[S, 1], [1^T, 0]] (lambda; mu) = (k*; 1): isolating
    lambda = S^-1 (k* - mu 1) in the first block row and contracting with
    1^T gives lambda = S^-1 k* + (1 - 1^T S^-1 k*) / (1^T S^-1 1) S^-1 1,
    this route's weights, with mu-tilde = -mu.
    """
    _check_basis_size(mean, data)
    xs = _one_row(xstar)
    return _plugin_route(data, kernel, mean, xs,
                         _route_blocks(data, kernel, xs, mean)).records()[0]


def _plugin_route(data: Dataset, kernel: KernelSpec, mean: MeanSpec, xs,
                  blocks: _Blocks) -> _Route:
    """:func:`sk_with_plugin_mean` at every row of ``xs``, from their :func:`_route_blocks`."""
    kt, s = blocks.kt, blocks.s
    m_mat, w = blocks.solved[mean]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite Gram is rejected below
        gram = m_mat.T @ w
    gram_factor = _factor_constraint_gram(gram)
    beta = solve_spd(gram_factor, w.T @ data.y)
    f = basis_matrix(mean, xs)

    mean_value = _rowdot(f, beta) + _rowdot(s, data.y - m_mat @ beta)

    gamma = f - np.einsum("ji,li->jl", s, np.ascontiguousarray(m_mat.T))
    h = solve_spd(gram_factor, gamma.T).T
    sk_part = kernel.variance - _rowdot(kt, s)
    lam = s + np.einsum("jl,il->ji", h, w)
    return _Route(
        mean=mean_value,
        variance=sk_part + _rowdot(gamma, h),
        estimator_variance=_rowdot(lam, kt) + _rowdot(f, h),
        lam=lam,
        lam0=np.zeros(lam.shape[0]),
        mu_tilde=h,
    )


def bordered_solve(sigma, m, r_top, r_bot):
    """Solve [[Sigma, M], [M^T, 0]] (lambda; mu) = (r_top; r_bot) by one LDL^T.

    The right-hand side is one vector pair (``r_top`` of length n, ``r_bot``
    of length p) or a block of k pairs (n x k and p x k), solved against
    one factorization; the solution has the same shape.  Returns
    ``(lambda, mu)`` with ``mu`` in the block-system sign convention
    (Sigma lambda + M mu = r_top).  Rank deficiency of M is checked on M
    itself, so it is found without solving against Sigma.  Sigma is read
    from its upper triangle only, as LAPACK's symmetric solvers and
    ``numpy.linalg.eigh`` read one triangle, and is not checked for
    symmetry.  The lower triangle of the bordered matrix is assembled in a
    Fortran-ordered buffer of its own, factored there by :func:`_ldl_in_place`
    and solved by :func:`_ldl_solve`, so the caller's arrays are never written.
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
    if n == 0:  # scipy's LAPACK wrappers reject an empty system
        return r_top.copy(), r_bot.copy()
    bordered = np.empty((n + p, n + p), order="F")
    bordered.T[:n, :n] = sigma  # row by row: Sigma's upper triangle fills the lower one
    bordered[n:, :n] = m.T
    bordered[n:, n:] = 0.0
    rhs = np.concatenate([r_top, r_bot])
    solution = _ldl_solve(*_ldl_in_place(bordered), rhs.reshape(n + p, -1)).reshape(rhs.shape)
    return solution[:n], solution[n:]


def _ldl_in_place(a):
    """Bunch-Kaufman LDL^T of the lower triangle of the column-major ``a``, in ``a``.

    LAPACK ``?sytrf`` pivots symmetrically in 1x1 and 2x2 blocks and
    returns the packed factor (``a`` itself) and its pivots; the upper
    triangle is neither read nor written.  An exact zero block of D raises
    a :class:`SingularityError`.
    """
    sytrf, sytrf_lwork = get_lapack_funcs(("sytrf", "sytrf_lwork"), (a,))
    work, _ = sytrf_lwork(a.shape[0], lower=1)
    ldl, ipiv, info = sytrf(a, lower=1, lwork=int(work), overwrite_a=1)
    if info < 0:
        raise InputError(f"illegal value in argument {-info} of the LDL^T factorization")
    if info > 0:
        raise SingularityError("bordered Kriging matrix is singular")
    return ldl, ipiv


def _ldl_solve(ldl, ipiv, b):
    """X with A X = B for the n x k ``b``, from :func:`_ldl_in_place`'s factor of A.

    LAPACK ``?sytrs2``'s algorithm, which scipy does not wrap: the factor
    becomes, in place, a unit lower L and D with A = P L D L^T P^T, and
    BLAS ``dtrsm`` applies L and L^T, so a column of X rounds as it would
    alone wherever the engine's ``dtrsm`` does.  ``?sytrs`` rounds some
    columns by how many share its matrix-vector products.  The few rows
    interchanged are moved here, not by LAPACK ``?syconv``, which walks
    every row of L and adds about a third to this solve at n = 300 to 400.
    """
    n = len(ipiv)
    order, pairs, after = np.arange(n), [], 0
    for k in np.flatnonzero(ipiv != np.arange(1, n + 1)).tolist():  # ipiv is 1-based
        if k < after:
            continue  # the second row of a 2x2 block
        # a 2x2 block at k, k + 1 interchanges row k + 1; the rows of L's
        # earlier columns move with each interchange
        row, swap = (k, ipiv[k] - 1) if ipiv[k] > 0 else (k + 1, -ipiv[k] - 1)
        ldl[[row, swap], :k] = ldl[[swap, row], :k]
        order[[row, swap]] = order[[swap, row]]
        if row > k:
            pairs.append(k)
        after = row + 1
    two = np.array(pairs, dtype=np.intp)
    e = ldl[two + 1, two][:, None]  # D's off-diagonal in each 2x2 block, out of L
    ldl[two + 1, two] = 0.0
    y = dtrsm(1.0, ldl, b[order], lower=1, diag=1, overwrite_b=1)
    d = ldl.diagonal()[:, None].copy()
    d1, d2, y1, y2 = d[two] / e, d[two + 1] / e, y[two] / e, y[two + 1] / e
    d[two] = d[two + 1] = 1.0  # the 2x2 blocks' rows are solved below
    y /= d
    det = d1 * d2 - 1.0
    y[two], y[two + 1] = (d2 * y1 - y2) / det, (d1 * y2 - y1) / det
    x = np.empty_like(y)
    x[order] = dtrsm(1.0, ldl, y, lower=1, trans_a=1, diag=1, overwrite_b=1)
    return x


_Moments = namedtuple("_Moments", ["mean", "variance"])  # per target, like a _Route's


def _bordered_route(data: Dataset, kernel: KernelSpec, mean: MeanSpec, xs,
                    blocks: _Blocks) -> _Moments:
    """GPR at every row of ``xs`` from [[S, M], [M^T, 0]] (Lam; Nu) = (K*; F*^T).

    ``blocks`` is the run's :func:`_route_blocks`, read but not written, so
    it serves every call.  A known mean borders S by no columns and enters
    as the offset m(X), so its Lam is the S^-1 K* already solved there; a
    basis borders S by M, and the call factors that bordered matrix by one
    symmetric-indefinite LDL^T (:func:`bordered_solve`).
    """
    offset, design = _mean_parts(mean, data.x)
    offset_star, fstar = _mean_parts(mean, xs)
    if design.shape[1] == 0:  # no border: Lam is the S^-1 K* already solved, Nu is empty
        lam, nu = blocks.s, np.zeros_like(fstar)
    else:
        lam, nu = (block.T for block in bordered_solve(blocks.sigma, design, blocks.kt.T, fstar.T))
    return _Moments(offset_star + _rowdot(lam, data.y - offset),
                    kernel.variance - _rowdot(lam, blocks.kt) - _rowdot(nu, fstar))


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
