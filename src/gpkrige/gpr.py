"""Gaussian-process predictive distributions.

Under a Gaussian random field the joint law of the observations and the
field values at new locations is multivariate normal, and prediction is
conditioning: the posterior over Z(X*) given Y is again Gaussian.  Its mean
reproduces Simple Kriging when the mean function is known; with a linear
basis mean and a noninformative coefficient prior it reproduces
Ordinary/Universal Kriging, with the posterior variance matching the
corresponding Kriging error variance.

The predictive distribution targets the latent field Z(X*); pass
``observe_noise=True`` to add the observation noise to the diagonal for
observation-space prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InputError, NumericalError
from .kernels import Dataset, KernelSpec, MeanSpec, _as_locations, build_gram
from .kriging import _Engine

_DIAG_TOL = 1e-9


@dataclass(frozen=True)
class GaussianPredictive:
    """Gaussian posterior over the field at the prediction points.

    ``covariance`` is the full joint posterior covariance; ``variance`` is
    its diagonal with tiny negative round-off clamped to zero.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise InputError(
                f"covariance shape {cov.shape} does not match {mean.shape[0]} means"
            )
        cov = 0.5 * (cov + cov.T)
        scale = max(1.0, float(np.abs(np.diag(cov)).max(initial=0.0)))
        if np.diag(cov).min(initial=0.0) < -_DIAG_TOL * scale:
            raise NumericalError("posterior variance is negative beyond tolerance")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def variance(self) -> np.ndarray:
        return np.maximum(np.diag(self.covariance), 0.0)


def gpr_predict(data: Dataset, kernel: KernelSpec, mean: MeanSpec, xs,
                observe_noise: bool = False,
                max_jitter: float = 0.0) -> GaussianPredictive:
    """Known-mean GP posterior.

    mean:  m(X*) + K*^T (K + sigma^2 I)^-1 (y - m(X))
    cov:   K** - K*^T (K + sigma^2 I)^-1 K*

    For a single test point this is numerically the Simple-Kriging
    predictor and error variance.
    """
    return _posterior(data, kernel, "gpr", mean, xs, observe_noise, max_jitter)


def gpr_predict_basis(data: Dataset, kernel: KernelSpec, mean: MeanSpec, xs,
                      observe_noise: bool = False,
                      max_jitter: float = 0.0) -> GaussianPredictive:
    """GP posterior with a linear basis mean.

    With a Gaussian prior beta ~ N(b, B) on the coefficients this is the
    conditional of the joint Gaussian with prior moments E[Y] = M b and
    V[Y] = M B M^T + K + sigma^2 I, computed in the numerically stable
    parameterization through B^-1 + M^T S^-1 M (exact for every B; a direct
    factorization of M B M^T + S would lose the small-scale structure for
    diffuse priors).  Without a prior (``prior_cov`` unset) the
    noninformative limit B^-1 -> 0 is computed in closed form through the
    GLS coefficient estimate:

        mean:  f(X*)^T beta-GLS + K*^T S^-1 (y - M beta-GLS)
        cov:   K** - K*^T S^-1 K* + Gamma^T (M^T S^-1 M)^-1 Gamma

    with Gamma = f(X*) - M^T S^-1 K*.  The noninformative posterior never
    touches the prior mean.
    """
    return _posterior(data, kernel, "gpr-basis", mean, xs, observe_noise, max_jitter)


def _posterior(data, kernel, variant, mean, xs, observe_noise, max_jitter):
    """The engine's mean and variances plus the joint m x m covariance.

    cov = K** - V^T V + Gamma^T G^-1 Gamma with V = L^-1 K*, with the
    engine's variances on the diagonal.
    """
    xs = _as_locations(xs, data.dim, "test points")
    batch = _Engine(data, kernel, xs, max_jitter).predict(variant, mean)
    post_cov = (build_gram(kernel, xs, 0.0) - batch.vt @ batch.vt.T
                + batch.gamma @ batch.h.T)
    np.fill_diagonal(post_cov, batch.variance)
    if observe_noise:
        post_cov = post_cov + data.noise_variance * np.eye(xs.shape[0])
    return GaussianPredictive(mean=batch.mean, covariance=post_cov)

