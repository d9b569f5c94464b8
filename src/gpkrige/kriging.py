"""Best-linear-unbiased prediction: Simple, Ordinary and Universal Kriging.

All predictors are linear statistics T(Y) = lambda^T Y + lambda_0 chosen to
minimize the error variance V[T(Y) - Z(x*)] subject to unbiasedness:

* known mean (Simple Kriging, the general noisy BLUP): lambda_0 absorbs the
  mean and lambda = (Sigma + sigma^2 I)^-1 k*;
* unknown constant mean (Ordinary Kriging): lambda_0 = 0 and the constraint
  1^T lambda = 1 enters through a Lagrange multiplier, giving the classic
  Kriging system [[Sigma, 1], [1^T, 0]];
* linear basis mean (Universal Kriging): same construction with the
  constraint M^T lambda = f(x*) and p multipliers.

The multiplier stored on :class:`KrigingWeights` follows the closed-form
convention lambda = Sigma^-1 (k* + M mu_tilde); the multiplier of the block
system carries the opposite sign.  The classic compact variance expression
uses the block-system sign and is asserted against the expanded form
whenever OK weights are built.

Every variant runs through one two-stage engine, :class:`_Engine`, over one
dataset and one batch of targets, in whitened form (Rasmussen & Williams
2006, Algorithm 2.1 and section 2.7).  With S = L L^T, its target stage
factors S and whitens all targets at once, V = L^-1 K*; it is shared by
every mean assumption.  Its mean stage whitens the basis and the data,
U = L^-1 M and z = L^-1 (y - m(X)), and is all a variant adds:

    G     = U^T U (+ B^-1 under a Gaussian coefficient prior N(b, B))
    beta  = G^-1 (U^T z (+ B^-1 b))
    Gamma = F* - V^T U
    mean  = m(X*) + F* beta + V^T (z - U beta)
    var   = sigma*^2 - ||v||^2 + Gamma G^-1 Gamma^T   (per target, clamped)

A known mean is a basis with zero columns.  The engine alone factors S,
clamps its variances and forms the joint posterior covariance that GPR
and the study's sampler read.  The Kriging weights
lambda = L^-T (v + U mu_tilde) cost a second triangular solve and are
formed only by the functions that return them.  The public predictors are
thin wrappers over the engine.  The independent routes that ``verify``
and the tests check it against live in :mod:`gpkrige.oracle`; this
module never imports them.

Rows, not columns: every per-target reduction in the engine and in the
oracle routes runs along a contiguous row of an (m, k) array that holds one
target per row.  Matrix products and column reductions round differently
depending on how many targets share the call; row reductions do not.  A
target's numbers are therefore bit-identical whether it is predicted alone
or in a batch wherever the columns of a multi-right-hand-side BLAS ``dtrsm``
round alike in any block; :func:`gpkrige.linalg._whiten` says where.

The classical definitions of OK/UK are noise-free; a dataset with
``noise_variance > 0`` is accepted for every variant by using
Sigma + sigma^2 I as the observation covariance (cross-covariances are
never inflated), which reduces to the noise-free equations at sigma^2 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

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
    _nonnegative,
    _observation_cov,
    _real,
    _rowdot,
    basis_matrix,
    build_gram,
    kernel_matrix,
)
from .linalg import (
    SpdFactor,
    _factor_constraint_gram,
    _factor_in_place,
    _whiten,
    solve_spd,
    spd_factor,
)

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


def _check_basis_size(mean: MeanSpec, data: Dataset) -> None:
    """p basis functions need p observations; checked before any basis is built."""
    if mean.p > data.n:
        raise InputError(f"{mean.p} basis functions exceed {data.n} observations")


def _mean_parts(mean: MeanSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """How ``mean`` enters at the rows of ``x``: an offset and a basis.

    A known mean is the offset m(x) with no basis columns; an unknown one
    is its basis f(x) with a zero offset.
    """
    if mean.is_identified:
        return _mean_vector(mean, x), np.empty((x.shape[0], 0))
    return np.zeros(x.shape[0]), basis_matrix(mean, x)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


def _variant_mean(variant: str, mean: MeanSpec | None) -> MeanSpec:
    """The mean assumption the engine fits for a prediction variant.

    sk/gpr condition on a fully known mean; ok on an unknown constant,
    whatever ``mean`` says; uk on the basis of ``mean`` with coefficients and
    prior stripped; gpr-basis keeps the coefficient prior but not the
    coefficients.
    """
    if variant == "ok":
        return MeanSpec.constant_unknown()
    if variant in ("sk", "gpr"):
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
    coefficients; with M the n x p basis (p = 0 for a known mean) and L
    the factor of S, ``u`` is U = L^-1 M, ``gram_factor`` factors
    G = U^T U (+ B^-1 under a coefficient prior; None when p = 0),
    ``beta`` holds the GLS (or posterior) coefficients and ``residual`` is
    the whitened residual z - U beta, z = L^-1 (y - offset).
    """

    mean: MeanSpec
    offset: np.ndarray
    u: np.ndarray
    gram_factor: SpdFactor | None
    beta: np.ndarray
    residual: np.ndarray


def _fit(data: Dataset, mean: MeanSpec, factor: SpdFactor) -> _Fit:
    if not mean.is_identified:
        _check_basis_size(mean, data)
    offset, m_mat = _mean_parts(mean, data.x)
    u = _whiten(factor, m_mat)
    z = _whiten(factor, data.y - offset)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite Gram is rejected below
        gram, rhs = u.T @ u, u.T @ z
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
        b = np.zeros(mean.p) if mean.prior_mean is None else np.asarray(mean.prior_mean)
        # the posterior coefficient mean shrinks the GLS estimate toward b
        gram_factor = spd_factor(gram + precision)
        rhs = rhs + precision @ b
    beta = solve_spd(gram_factor, rhs) if gram_factor is not None else np.empty(0)
    return _Fit(mean, offset, u, gram_factor, beta, z - u @ beta)


@dataclass(frozen=True)
class _Batch:
    """Engine output for m targets, one target per row.

    ``vt`` = V^T = (L^-1 K*)^T is m x n and is the engine's own, shared
    array; ``f`` = f(X*), ``gamma`` = f(X*) - V^T U and ``h`` = Gamma G^-1
    (the rows are the multipliers mu_tilde) are m x p; ``offset`` is the
    known mean m(X*).
    """

    fit: _Fit
    mean: np.ndarray
    variance: np.ndarray
    vt: np.ndarray
    f: np.ndarray
    gamma: np.ndarray
    h: np.ndarray
    offset: np.ndarray


@dataclass(frozen=True)
class _Engine:
    """The two-stage engine over one dataset and one batch of targets ``xs``.

    The target stage (the factor S = L L^T and V^T = (L^-1 K*)^T, one
    ``dtrsm`` over every target) is computed on first use and shared by
    every later :meth:`predict`, whose mean stage adds U = L^-1 M,
    z = L^-1 (y - m(X)), G = U^T U and Gamma = F* - V^T U for its mean
    assumption, and by :meth:`posterior_cov`.  A batch depends only on the
    mean assumption its variant resolves to, so each assumption's batch is
    computed once and returned to every later call that resolves to it;
    its arrays are shared and are not to be written.  Being lazy, the target stage lets a bad variant
    or mean be rejected before anything is factored.  A factorization that
    fails is remembered too: every later use raises a fresh
    :class:`SingularityError` with the same message and pivot instead of
    retrying it.
    """

    data: Dataset
    kernel: KernelSpec
    xs: np.ndarray
    max_jitter: float = 0.0

    @cached_property
    def _factor_or_error(self) -> SpdFactor | SingularityError:
        """Factor S = Sigma + sigma^2 I where it is built; ``max_jitter`` is checked first.

        S fills the upper triangle of a row-major buffer, checked finite block
        by block, and LAPACK factors its column-major transpose in place: bit
        for bit ``spd_factor(build_gram(...))``'s factor, with no copy or scan.
        """
        max_jitter = _nonnegative(self.max_jitter, "max_jitter")
        if self.kernel.dim != self.data.dim:
            raise InputError(f"kernel dimension {self.kernel.dim} does not match "
                             f"data dimension {self.data.dim}")
        upper = _observation_cov(self.kernel, self.data.x, self.data.noise_variance)
        try:
            return _factor_in_place(upper.T, max_jitter)
        except SingularityError as err:
            return err

    @property
    def factor(self) -> SpdFactor:
        factor = self._factor_or_error
        if isinstance(factor, SingularityError):
            raise SingularityError(str(factor), pivot=factor.pivot)
        return factor

    @cached_property
    def _targets(self) -> np.ndarray:
        # K*^T is m x n row-major, so K* is its column-major transpose and is
        # whitened where it lies
        kt = kernel_matrix(self.kernel, self.xs, self.data.x)
        return _whiten(self.factor, kt.T).T

    def posterior_cov(self, batch: _Batch | None = None) -> np.ndarray:
        """The m x m covariance K** - V^T V of the targets given the data.

        With ``batch``, one of :meth:`predict`'s, its mean stage's
        Gamma h^T = Gamma G^-1 Gamma^T is added.
        """
        cov = build_gram(self.kernel, self.xs, 0.0) - self._targets @ self._targets.T
        return cov if batch is None else cov + batch.gamma @ batch.h.T

    def observing(self, y) -> _Engine:
        """This engine with responses ``y`` at the same locations.

        The target stage depends on the locations only, so whatever of it is
        already computed, a failed factorization included, carries over to
        the copy; the batches depend on y and do not.
        """
        engine = replace(self, data=replace(self.data, y=y))
        for name in ("_factor_or_error", "_targets"):
            if name in self.__dict__:
                engine.__dict__[name] = self.__dict__[name]
        return engine

    def predict(self, variant: str, mean: MeanSpec | None = None) -> _Batch:
        """The mean stage of ``variant`` on the shared target stage.

        With v = L^-1 k*, U = L^-1 M and z = L^-1 (y - m(X)):

        mean:      m(x*) + f(x*)^T beta + v^T (z - U beta)
        variance:  sigma*^2 - v^T v + Gamma^T G^-1 Gamma, clamped,
                   Gamma = f(x*) - U^T v and G = U^T U (+ B^-1)
        """
        assumption = _variant_mean(variant, mean)
        if assumption in self._batches:
            return self._batches[assumption]
        fit = _fit(self.data, assumption, self.factor)
        vt = self._targets
        offset, f = _mean_parts(fit.mean, self.xs)
        gamma = f - np.einsum("ji,li->jl", vt, fit.u.T)
        h = gamma if fit.gram_factor is None else solve_spd(fit.gram_factor, gamma.T).T
        mean = offset + _rowdot(f, fit.beta) + _rowdot(vt, fit.residual)
        raw = self.kernel.variance - _rowdot(vt, vt) + _rowdot(gamma, h)
        batch = _Batch(fit, mean, _clamped(raw, self.kernel.variance), vt, f, gamma, h, offset)
        self._batches[assumption] = batch
        return batch

    @cached_property
    def _batches(self) -> dict[MeanSpec, _Batch]:
        return {}


@dataclass(frozen=True)
class _Route:
    """Predictions of one route at m targets, one target per row.

    ``lam`` is m x n and ``mu_tilde`` m x p (p = 0 for a known mean); the
    other arrays hold one value per target.
    """

    mean: np.ndarray
    variance: np.ndarray
    estimator_variance: np.ndarray
    lam: np.ndarray
    lam0: np.ndarray
    mu_tilde: np.ndarray
    jitter: bool = False

    def records(self) -> list[Prediction]:
        """Per-target :class:`Prediction` records with their Kriging weights."""
        return [
            Prediction(
                mean=float(self.mean[j]),
                error_variance=float(self.variance[j]),
                estimator_variance=float(self.estimator_variance[j]),
                weights=KrigingWeights(lam=self.lam[j], lam0=float(self.lam0[j]),
                                       mu_tilde=self.mu_tilde[j]),
                jitter_warning=self.jitter,
            )
            for j in range(self.mean.shape[0])
        ]


def _engine_route(engine: _Engine, variant: str, mean: MeanSpec | None) -> _Route:
    """The engine's predictions of ``variant`` with their Kriging weights."""
    batch = engine.predict(variant, mean)
    fit = batch.fit
    # lam = L^-T (v + U mu_tilde), so lam^T k* = (v + U mu_tilde)^T v and
    # lam^T S lam = lam^T k* + f^T mu_tilde need no further solve
    whitened = batch.vt + np.einsum("jl,il->ji", batch.h, fit.u)
    lam_kstar = _rowdot(whitened, batch.vt)
    lam = _whiten(engine.factor, whitened.T, transpose=True).T
    estimator_var = lam_kstar + _rowdot(batch.f, batch.h)
    lam0 = batch.offset - _rowdot(lam, fit.offset)
    if variant == "ok":
        # classic compact form, written with the block-system multiplier
        compact = engine.kernel.variance - lam_kstar + batch.h[:, 0]
        gap = np.abs(batch.variance - compact)
        if np.any(gap > _COMPACT_TOL * np.maximum(1.0, batch.variance)):
            j = int(np.argmax(gap))
            raise NumericalError(
                "expanded and compact OK variance forms disagree: "
                f"{batch.variance[j]:.17g} vs {compact[j]:.17g}"
            )
    return _Route(batch.mean, batch.variance, estimator_var, lam, lam0, batch.h,
                  engine.factor.jitter_used > 0.0)


def _one_row(xstar) -> np.ndarray:
    """One target as a (1, d) row: a number, a 1-D point or a single row, nothing else."""
    x = _real(xstar, "target")
    if x.ndim > 2 or (x.ndim == 2 and x.shape[0] != 1):
        raise InputError(f"target must be one point, got shape {x.shape}")
    return np.reshape(x, (1, -1))


def _predict_one(data, kernel, mean, xstar, variant, max_jitter) -> Prediction:
    return predict_points(data, kernel, _one_row(xstar), variant, mean, max_jitter)[0]


# ---------------------------------------------------------------------------
# Known-mean predictors
# ---------------------------------------------------------------------------


def simple_krige(data: Dataset, kernel: KernelSpec, mean: MeanSpec, xstar,
                 max_jitter: float = 0.0) -> Prediction:
    """Simple Kriging: the general noisy BLUP with a fully known mean.

    T(Y) = m(x*) + k*^T (Sigma + sigma^2 I)^-1 (Y - m), with error variance
    sigma*^2 - k*^T (Sigma + sigma^2 I)^-1 k*.  The error variance depends
    only on covariances, never on the observed values.  Classically
    sigma^2 = 0, and then the data are interpolated exactly.
    """
    return _predict_one(data, kernel, mean, xstar, "sk", max_jitter)


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


def universal_krige(data: Dataset, kernel: KernelSpec, mean: MeanSpec, xstar,
                    max_jitter: float = 0.0) -> Prediction:
    """Universal Kriging: basis mean, constraint M^T lambda = f(x*).

    Error variance is the SK variance plus the nonnegative inflation
    gamma^T (M^T Sigma^-1 M)^-1 gamma with gamma = f(x*) - M^T Sigma^-1 k*.
    With the single basis function f == 1 this reduces to Ordinary Kriging.
    """
    return _predict_one(data, kernel, mean, xstar, "uk", max_jitter)


# ---------------------------------------------------------------------------
# GLS coefficients and the least-squares trend
# ---------------------------------------------------------------------------


def gls_beta(data: Dataset, kernel: KernelSpec, mean: MeanSpec,
             max_jitter: float = 0.0) -> np.ndarray:
    """GLS coefficients beta-hat = (M^T S^-1 M)^-1 M^T S^-1 Y, on the engine's factor of S."""
    spec = _variant_mean("uk", mean)
    factor = _Engine(data, kernel, np.empty((0, data.dim)), max_jitter).factor
    return _fit(data, spec, factor).beta


def ls_predict(data: Dataset, mean: MeanSpec, xstar) -> float:
    """Ordinary least squares trend prediction, ignoring all correlation.

    beta-LS = (M^T M)^-1 M^T Y; returns f(x*)^T beta-LS.
    """
    _check_basis_size(mean, data)
    m_mat = basis_matrix(mean, data.x)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite Gram is rejected below
        gram, rhs = m_mat.T @ m_mat, m_mat.T @ data.y
    beta = solve_spd(_factor_constraint_gram(gram), rhs)
    return float(basis_matrix(mean, _one_row(xstar))[0] @ beta)


# ---------------------------------------------------------------------------
# Batch prediction
# ---------------------------------------------------------------------------

VARIANTS = ("sk", "ok", "uk")


def predict_points(data: Dataset, kernel: KernelSpec, xs, variant: str = "ok",
                   mean: MeanSpec | None = None,
                   max_jitter: float = 0.0) -> list[Prediction]:
    """Predict at many points with one fit and one batched engine call.

    ``mean`` is required for "sk" (a known mean) and "uk" (a basis);
    it is ignored for "ok".
    """
    if variant not in VARIANTS:
        raise InputError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    xs = _as_locations(xs, data.dim, "prediction points")
    return _engine_route(_Engine(data, kernel, xs, max_jitter), variant, mean).records()
