"""Best-linear-unbiased prediction: Simple, Ordinary and Universal Kriging.

All predictors are linear statistics T(Y) = lambda^T Y + lambda_0 chosen to
minimize the error variance V[T(Y) - Z(x*)] subject to unbiasedness:

* known mean (general BLUP / Simple Kriging): lambda_0 absorbs the mean and
  lambda = (Sigma + sigma^2 I)^-1 k*;
* unknown constant mean (Ordinary Kriging): lambda_0 = 0 and the constraint
  1^T lambda = 1 enters through a Lagrange multiplier, giving the classic
  Kriging system [[Sigma, 1], [1^T, 0]];
* linear basis mean (Universal Kriging): same construction with the
  constraint M^T lambda = f(x*) and p multipliers.

The multiplier stored on :class:`KrigingWeights` follows the closed-form
convention lambda = Sigma^-1 (k* + M mu_tilde); the multiplier of the
block system carries the opposite sign.  The classic compact variance expression uses the block-system sign and is
asserted against the expanded form whenever OK weights are built.

Every variant runs through one engine.  :func:`_fit` computes the
target-independent pieces once for a mean assumption: a known mean is a
basis with zero columns, and a Gaussian coefficient prior adds B^-1 to the
GLS Gram.  :func:`_predict` then serves all targets with one
multi-right-hand-side Cholesky solve.  The public predictors are thin
wrappers over it; ``sk_mean_subtraction``, ``ordinary_krige_direct`` and
``sk_with_plugin_mean`` are independent oracle routes kept for ``verify``
and the tests.  Each oracle works on a block of targets: it factors its
own Gram once per call (never the engine's, nor another route's) and
serves every target with one multi-right-hand-side solve; the public
one-point functions call that block form with a single row.

Rows, not columns: every per-target reduction in the engine and in the
oracles runs along a contiguous row of an (m, k) array that holds one
target per row.  Matrix products and column reductions round differently
depending on how many targets share the call; row reductions and the
columns of a multi-right-hand-side Cholesky solve do not.  A target's
numbers are therefore bit-identical whether it is predicted alone or in a
batch.

The classical definitions of OK/UK are noise-free; a dataset with
``noise_variance > 0`` is accepted for every variant by using
Sigma + sigma^2 I as the observation covariance (cross-covariances are
never inflated), which reduces to the noise-free equations at sigma^2 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import InputError, NumericalError, SingularityError
from .kernels import (
    BASIS,
    CONSTANT_UNKNOWN,
    Dataset,
    KernelSpec,
    MeanSpec,
    _as_locations,
    _mean_vector,
    _rowdot,
    basis_at,
    basis_matrix,
    build_gram,
    kernel_matrix,
)
from .linalg import SpdFactor, _factor_constraint_gram, solve_spd, spd_factor

_VARIANCE_TOL = 1e-9
_COMPACT_TOL = 1e-9


@dataclass(frozen=True)
class KrigingWeights:
    """The linear predictor: T(Y) = lam . Y + lam0.

    ``mu_tilde`` holds the absorbed Lagrange multipliers in the convention
    lam = Sigma^-1 (k* + M mu_tilde); it is empty for the known-mean
    variants, where the constraint is inactive.
    """

    lam: np.ndarray
    lam0: float
    mu_tilde: np.ndarray
    variant: str


@dataclass(frozen=True)
class Prediction:
    """Point prediction with its uncertainty decomposition.

    ``error_variance`` is V[T(Y) - Z(x*)]; ``estimator_variance`` is V[T(Y)].
    For Simple Kriging without noise these satisfy
    error_variance = V[Z(x*)] - estimator_variance.
    """

    mean: float
    error_variance: float
    estimator_variance: float
    weights: KrigingWeights
    jitter_warning: bool = False


def _clamped(value, scale: float):
    """Clamp round-off negatives of an error variance (scalar or array) to zero."""
    tol = _VARIANCE_TOL * max(1.0, abs(scale))
    value = np.asarray(value, dtype=float)
    if np.any(value < -tol):
        raise NumericalError(
            f"error variance {value.min():.6e} is negative beyond tolerance {tol:.1e}"
        )
    return np.maximum(value, 0.0)


def _factor_observation_cov(data: Dataset, kernel: KernelSpec,
                            max_jitter: float) -> SpdFactor:
    if kernel.dim != data.dim:
        raise InputError(
            f"kernel dimension {kernel.dim} does not match data dimension {data.dim}"
        )
    gram = build_gram(kernel, data.x, data.noise_variance)
    return spd_factor(gram, max_jitter)


def _data_basis(mean: MeanSpec, data: Dataset) -> np.ndarray:
    """The n x p basis matrix at the design points; p must not exceed n."""
    m_mat = basis_matrix(mean, data.x)
    if m_mat.shape[1] > data.n:
        raise InputError(f"{m_mat.shape[1]} basis functions exceed {data.n} observations")
    return m_mat


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


def _variant_mean(variant: str, mean: MeanSpec | None) -> MeanSpec:
    """The mean assumption the engine fits for a prediction variant.

    sk/blup/gpr condition on a fully known mean; ok on an unknown constant,
    whatever ``mean`` says; uk on the basis of ``mean`` with coefficients and
    prior stripped; gpr-basis keeps the coefficient prior but not the
    coefficients.
    """
    if variant == "ok":
        return MeanSpec.constant_unknown()
    if variant in ("sk", "blup", "gpr"):
        if mean is None or not mean.is_identified:
            raise InputError(f"variant {variant!r} requires a fully known mean")
        return mean
    if variant in ("uk", "gpr-basis"):
        if mean is None or mean.kind not in (BASIS, CONSTANT_UNKNOWN):
            raise InputError(
                f"variant {variant!r} requires a basis or constant-unknown mean"
            )
        if variant == "uk":
            return replace(mean, coefficients=None, prior_mean=None, prior_cov=None)
        return replace(mean, coefficients=None)
    raise InputError(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class _Fit:
    """Target-independent pieces of the BLUP under one mean assumption.

    ``offset`` is the known mean m(X), zero for a basis with unknown
    coefficients; with M the n x p basis (p = 0 for a known mean), ``w`` is
    S^-1 M, ``gram_factor`` factors G = M^T S^-1 M (+ B^-1 under a
    coefficient prior; None when p = 0), ``beta`` holds the GLS (or
    posterior) coefficients and ``residual`` is y - offset - M beta.
    """

    kernel: KernelSpec
    mean: MeanSpec
    x: np.ndarray
    factor: SpdFactor
    offset: np.ndarray
    w: np.ndarray
    gram_factor: SpdFactor | None
    beta: np.ndarray
    residual: np.ndarray


def _fit(data: Dataset, kernel: KernelSpec, mean: MeanSpec, factor: SpdFactor) -> _Fit:
    if mean.is_identified:
        offset = _mean_vector(mean, data.x)
        m_mat = np.empty((data.n, 0))
    else:
        offset = np.zeros(data.n)
        m_mat = _data_basis(mean, data)
    w = solve_spd(factor, m_mat)
    centered = data.y - offset
    gram, rhs = m_mat.T @ w, w.T @ centered
    if not m_mat.shape[1]:
        gram_factor = None
    elif mean.prior_cov is None:
        gram_factor = _factor_constraint_gram(gram)
    else:
        try:
            prior_factor = spd_factor(mean.prior_cov)
        except SingularityError as err:
            raise InputError("prior covariance must be positive definite") from err
        precision = solve_spd(prior_factor, np.eye(mean.p))
        b = mean.prior_mean if mean.prior_mean is not None else np.zeros(mean.p)
        # the posterior coefficient mean shrinks the GLS estimate toward b
        gram_factor = spd_factor(gram + precision)
        rhs = rhs + precision @ b
    beta = solve_spd(gram_factor, rhs) if gram_factor is not None else np.empty(0)
    return _Fit(kernel, mean, data.x, factor, offset, w, gram_factor, beta,
                centered - m_mat @ beta)


@dataclass(frozen=True)
class _Batch:
    """Engine output for m targets, one target per row.

    ``kt`` = K*^T and ``at`` = (S^-1 K*)^T are m x n; ``f`` = f(X*),
    ``gamma`` = f(X*) - K*^T W and ``h`` = Gamma G^-1 (the rows are the
    multipliers mu_tilde) are m x p; ``offset`` is the known mean m(X*).
    """

    fit: _Fit
    mean: np.ndarray
    variance: np.ndarray
    kt: np.ndarray
    at: np.ndarray
    f: np.ndarray
    gamma: np.ndarray
    h: np.ndarray
    offset: np.ndarray


def _predict(fit: _Fit, xs: np.ndarray) -> _Batch:
    """Predict at every row of ``xs`` with one multi-right-hand-side solve.

    mean:      m(x*) + f(x*)^T beta + k*^T S^-1 residual
    variance:  sigma*^2 - k*^T S^-1 k* + Gamma^T G^-1 Gamma, clamped
    """
    m = xs.shape[0]
    kt = kernel_matrix(fit.kernel, xs, fit.x)
    at = solve_spd(fit.factor, kt.T).T
    if fit.gram_factor is None:
        offset, f = _mean_vector(fit.mean, xs), np.empty((m, 0))
    else:
        offset, f = np.zeros(m), basis_matrix(fit.mean, xs)
    gamma = f - np.einsum("ji,li->jl", kt, fit.w.T)
    h = gamma if fit.gram_factor is None else solve_spd(fit.gram_factor, gamma.T).T
    mean = offset + _rowdot(f, fit.beta) + _rowdot(at, fit.residual)
    raw = fit.kernel.variance - _rowdot(kt, at) + _rowdot(gamma, h)
    return _Batch(fit, mean, _clamped(raw, fit.kernel.variance), kt, at, f, gamma, h,
                  offset)


@dataclass(frozen=True)
class _Route:
    """Predictions of one route at m targets, one target per row.

    ``lam`` is m x n and ``mu_tilde`` m x p (p = 0 for a known mean); the
    other arrays hold one value per target.
    """

    variant: str
    mean: np.ndarray
    variance: np.ndarray
    estimator_variance: np.ndarray
    lam: np.ndarray
    lam0: np.ndarray
    mu_tilde: np.ndarray
    jitter: bool

    def records(self) -> list[Prediction]:
        """Per-target :class:`Prediction` records with their Kriging weights."""
        return [
            Prediction(
                mean=float(self.mean[j]),
                error_variance=float(self.variance[j]),
                estimator_variance=float(self.estimator_variance[j]),
                weights=KrigingWeights(lam=self.lam[j], lam0=float(self.lam0[j]),
                                       mu_tilde=self.mu_tilde[j], variant=self.variant),
                jitter_warning=self.jitter,
            )
            for j in range(self.mean.shape[0])
        ]


def _predictions(batch: _Batch, variant: str) -> list[Prediction]:
    """The engine's per-target records with their Kriging weights."""
    fit = batch.fit
    # lam = S^-1 (k* + M mu_tilde); lam^T S lam then needs no extra solve
    lam = batch.at + np.einsum("jl,il->ji", batch.h, fit.w)
    lam_kstar = _rowdot(lam, batch.kt)
    estimator_var = lam_kstar + _rowdot(batch.f, batch.h)
    lam0 = batch.offset - _rowdot(lam, fit.offset)
    if variant == "ok":
        # classic compact form, written with the block-system multiplier
        compact = fit.kernel.variance - lam_kstar + batch.h[:, 0]
        gap = np.abs(batch.variance - compact)
        if np.any(gap > _COMPACT_TOL * np.maximum(1.0, batch.variance)):
            j = int(np.argmax(gap))
            raise NumericalError(
                "expanded and compact OK variance forms disagree: "
                f"{batch.variance[j]:.17g} vs {compact[j]:.17g}"
            )
    return _Route(variant, batch.mean, batch.variance, estimator_var, lam, lam0,
                  batch.h, fit.factor.jitter_used > 0.0).records()


def _one_row(xstar) -> np.ndarray:
    return np.reshape(np.asarray(xstar, dtype=float), (1, -1))


def _predict_one(data, kernel, mean, xstar, variant, max_jitter) -> Prediction:
    return predict_points(data, kernel, _one_row(xstar), variant, mean, max_jitter)[0]


# ---------------------------------------------------------------------------
# Known-mean predictors
# ---------------------------------------------------------------------------


def blup_general(data: Dataset, kernel: KernelSpec, mean: MeanSpec, xstar,
                 max_jitter: float = 0.0) -> Prediction:
    """General noisy BLUP with a fully known mean function.

    T(Y) = m(x*) + k*^T (Sigma + sigma^2 I)^-1 (Y - m), with error variance
    sigma*^2 - k*^T (Sigma + sigma^2 I)^-1 k*.  The error variance depends
    only on covariances, never on the observed values.
    """
    return _predict_one(data, kernel, mean, xstar, "blup", max_jitter)


def simple_krige(data: Dataset, kernel: KernelSpec, mean: MeanSpec, xstar,
                 max_jitter: float = 0.0) -> Prediction:
    """Simple Kriging: the known-mean BLUP (classically with sigma^2 = 0).

    Interpolates the data exactly when the dataset is noise-free.
    """
    return _predict_one(data, kernel, mean, xstar, "sk", max_jitter)


def sk_mean_subtraction(data: Dataset, kernel: KernelSpec, mean: MeanSpec, xstar,
                        max_jitter: float = 0.0) -> Prediction:
    """Simple Kriging via the subtract-the-mean-first route.

    Runs zero-mean SK on the residuals Y - m and adds m(x*) back; provably
    identical to :func:`simple_krige`, kept as an independent code path.
    """
    return _subtraction_route(data, kernel, mean, _one_row(xstar), max_jitter).records()[0]


def _subtraction_route(data: Dataset, kernel: KernelSpec, mean: MeanSpec, xs,
                       max_jitter: float) -> _Route:
    """:func:`sk_mean_subtraction` at every row of ``xs``, on its own factor."""
    m_vec, m_star = _mean_vector(mean, data.x), _mean_vector(mean, xs)
    factor = _factor_observation_cov(data, kernel, max_jitter)
    kt = kernel_matrix(kernel, xs, data.x)
    lam = solve_spd(factor, kt.T).T
    estimator_var = _rowdot(kt, lam)
    return _Route(
        "sk",
        mean=m_star + _rowdot(lam, data.y - m_vec),
        variance=_clamped(kernel.variance - estimator_var, kernel.variance),
        estimator_variance=estimator_var,
        lam=lam,
        lam0=m_star - _rowdot(lam, m_vec),
        mu_tilde=np.empty((lam.shape[0], 0)),
        jitter=factor.jitter_used > 0.0,
    )


# ---------------------------------------------------------------------------
# Constrained (unknown-mean) predictors
# ---------------------------------------------------------------------------


def ordinary_krige(data: Dataset, kernel: KernelSpec, xstar,
                   max_jitter: float = 0.0) -> Prediction:
    """Ordinary Kriging: unknown constant mean, weights summing to one.

    Solves the Kriging system through the engine's constraint Gram and
    checks the expanded variance

        sigma*^2 - k*^T Sigma^-1 k* + (1 - 1^T Sigma^-1 k*)^2 / (1^T Sigma^-1 1)

    against the compact form sigma*^2 - lam^T k* - mu on every call.
    """
    return _predict_one(data, kernel, None, xstar, "ok", max_jitter)


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


def universal_krige(data: Dataset, kernel: KernelSpec, mean: MeanSpec, xstar,
                    max_jitter: float = 0.0) -> Prediction:
    """Universal Kriging: basis mean, constraint M^T lambda = f(x*).

    Error variance is the SK variance plus the nonnegative inflation
    gamma^T (M^T Sigma^-1 M)^-1 gamma with gamma = f(x*) - M^T Sigma^-1 k*.
    With the single basis function f == 1 this reduces to Ordinary Kriging.
    """
    return _predict_one(data, kernel, mean, xstar, "uk", max_jitter)


# ---------------------------------------------------------------------------
# Generalized least squares and the plug-in route
# ---------------------------------------------------------------------------


def gls_constant(data: Dataset, kernel: KernelSpec, max_jitter: float = 0.0) -> float:
    """GLS estimate of an unknown constant mean: (1^T S^-1 Y) / (1^T S^-1 1)."""
    factor = _factor_observation_cov(data, kernel, max_jitter)
    w = solve_spd(factor, np.ones(data.n))
    return float(w @ data.y) / float(np.sum(w))


def gls_beta(data: Dataset, kernel: KernelSpec, mean: MeanSpec,
             max_jitter: float = 0.0) -> np.ndarray:
    """GLS coefficients beta-hat = (M^T S^-1 M)^-1 M^T S^-1 Y."""
    spec = _variant_mean("uk", mean)
    factor = _factor_observation_cov(data, kernel, max_jitter)
    return _fit(data, kernel, spec, factor).beta


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


def ls_predict(data: Dataset, mean: MeanSpec, xstar) -> float:
    """Ordinary least squares trend prediction, ignoring all correlation.

    beta-LS = (M^T M)^-1 M^T Y; returns f(x*)^T beta-LS.
    """
    m_mat = _data_basis(mean, data)
    gram_factor = _factor_constraint_gram(m_mat.T @ m_mat)
    beta = solve_spd(gram_factor, m_mat.T @ data.y)
    return float(basis_at(mean, xstar) @ beta)


# ---------------------------------------------------------------------------
# Batch prediction
# ---------------------------------------------------------------------------

VARIANTS = ("sk", "blup", "ok", "uk")


def predict_points(data: Dataset, kernel: KernelSpec, xs, variant: str = "ok",
                   mean: MeanSpec | None = None,
                   max_jitter: float = 0.0) -> list[Prediction]:
    """Predict at many points with one fit and one batched engine call.

    ``mean`` is required for "sk"/"blup" (a known mean) and "uk" (a basis);
    it is ignored for "ok".
    """
    if variant not in VARIANTS:
        raise InputError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    xs = _as_locations(xs, data.dim, "prediction points")
    spec = _variant_mean(variant, mean)
    factor = _factor_observation_cov(data, kernel, max_jitter)
    return _predictions(_predict(_fit(data, kernel, spec, factor), xs), variant)
