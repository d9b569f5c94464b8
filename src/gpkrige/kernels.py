"""Covariance kernels, mean models, and variogram identities.

The random-field model used throughout the library is a stationary field
with covariance function ``k(x, x') = variance * profile(u)``, where ``u``
is the lengthscale-scaled Euclidean lag, observed through additive white
noise of variance ``noise_variance``.  This module owns the three building
blocks every predictor needs:

* :class:`KernelSpec` and the Gram/cross-covariance assembly,
* :class:`MeanSpec` (known function, unknown constant, or a linear basis
  expansion) together with basis-matrix evaluation,
* the semivariogram identity ``gamma(tau) = variance - C(tau)`` and the
  binned empirical semivariogram estimator.

All functions are pure; nothing here caches state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Callable

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .exceptions import InputError

_SQRT3 = np.sqrt(3.0)
_SQRT5 = np.sqrt(5.0)


def _se_profile(u):
    return np.exp(-0.5 * u * u)


def _exponential_profile(u):
    return np.exp(-u)


def _matern32_profile(u):
    s = _SQRT3 * u
    return (1.0 + s) * np.exp(-s)


def _matern52_profile(u):
    s = _SQRT5 * u
    return (1.0 + s + s * s / 3.0) * np.exp(-s)


def _white_noise_profile(u):
    return np.where(u == 0.0, 1.0, 0.0)


#: Correlation profiles as functions of the scaled lag u = ||(x - x') / ell||.
KERNEL_FAMILIES: dict[str, Callable] = {
    "squared_exponential": _se_profile,
    "exponential": _exponential_profile,
    "matern32": _matern32_profile,
    "matern52": _matern52_profile,
    "white_noise_only": _white_noise_profile,
}


@dataclass(frozen=True)
class KernelSpec:
    """A stationary covariance kernel.

    Parameters
    ----------
    family : str
        One of ``KERNEL_FAMILIES``: "squared_exponential", "exponential",
        "matern32", "matern52", "white_noise_only".
    variance : float
        Process variance sigma_Z^2 (the kernel value at zero lag).
    lengthscales : float or sequence of float
        One positive lengthscale per input dimension; a single value is
        broadcast to all dimensions (isotropy).
    dim : int, optional
        Input dimension. Defaults to ``len(lengthscales)``.
    """

    family: str
    variance: float = 1.0
    lengthscales: tuple[float, ...] = (1.0,)
    dim: int = 0

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise InputError(
                f"unknown kernel family {self.family!r}; "
                f"expected one of {sorted(KERNEL_FAMILIES)}"
            )
        variance = float(self.variance)
        if not variance >= 0.0:
            raise InputError(f"process variance must be nonnegative, got {variance}")
        ls = self.lengthscales
        if np.isscalar(ls):
            ls = (float(ls),)
        else:
            ls = tuple(float(v) for v in ls)
        dim = int(self.dim) if self.dim else len(ls)
        if dim < 1:
            raise InputError(f"dimension must be positive, got {dim}")
        if len(ls) == 1 and dim > 1:
            ls = ls * dim
        if len(ls) != dim:
            raise InputError(
                f"got {len(ls)} lengthscales for dimension {dim}"
            )
        if not all(v > 0.0 for v in ls):
            raise InputError(f"lengthscales must be positive, got {ls}")
        object.__setattr__(self, "variance", variance)
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "dim", dim)

    @property
    def is_isotropic(self) -> bool:
        return len(set(self.lengthscales)) == 1

    def _profile(self):
        return KERNEL_FAMILIES[self.family]


def _as_point(x, dim, name="x"):
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != dim:
        raise InputError(f"{name} has dimension {x.shape[0]}, expected {dim}")
    return x


def _as_locations(x, dim, name="X"):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None] if dim == 1 else x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise InputError(f"{name} must be an (n, {dim}) array, got shape {x.shape}")
    return x


def eval_kernel(spec: KernelSpec, x, xp) -> float:
    """Evaluate k(x, x') = variance * profile(||(x - x') / ell||)."""
    x = _as_point(x, spec.dim, "x")
    xp = _as_point(xp, spec.dim, "x'")
    u = np.linalg.norm((x - xp) / spec.lengthscales)
    return float(spec.variance * spec._profile()(u))


def kernel_matrix(spec: KernelSpec, xa, xb) -> np.ndarray:
    """Rectangular covariance matrix k(xa_i, xb_j), no noise term."""
    xa = _as_locations(xa, spec.dim, "xa")
    xb = _as_locations(xb, spec.dim, "xb")
    ls = np.asarray(spec.lengthscales)
    u = cdist(xa / ls, xb / ls)
    return spec.variance * spec._profile()(u)


def build_gram(spec: KernelSpec, x, noise_variance: float = 0.0) -> np.ndarray:
    """Assemble the observation covariance Sigma + sigma^2 I.

    The noise sits on the diagonal only; off-diagonal entries are the pure
    kernel values, so duplicated locations remain perfectly correlated.
    """
    noise_variance = float(noise_variance)
    if not noise_variance >= 0.0:
        raise InputError(f"noise variance must be nonnegative, got {noise_variance}")
    k = kernel_matrix(spec, x, x)
    k = 0.5 * (k + k.T)
    np.fill_diagonal(k, spec.variance + noise_variance)
    return k


def cross_cov(spec: KernelSpec, x, xstar) -> np.ndarray:
    """Covariances between the design points and one prediction point.

    Never includes the observation-noise term: the noise is independent of
    the latent field, so Cov(Y_i, Z(x*)) = k(x_i, x*).
    """
    xstar = _as_point(xstar, spec.dim, "x*")
    return kernel_matrix(spec, x, xstar[None, :])[:, 0]


def semivariogram_of(spec: KernelSpec, tau):
    """Model semivariogram gamma(tau) = variance - C(tau) at scalar lag(s).

    Requires an isotropic spec; ``tau`` may be a scalar or an array of
    nonnegative lags.
    """
    if not spec.is_isotropic:
        raise InputError("semivariogram requires an isotropic kernel")
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0.0):
        raise InputError("lags must be nonnegative")
    cov = spec.variance * spec._profile()(tau / spec.lengthscales[0])
    gamma = spec.variance - cov
    return float(gamma) if gamma.ndim == 0 else gamma


def cov_from_semivariogram(variance: float, gamma_val: float) -> float:
    """Invert the identity: C(tau) = variance - gamma(tau).

    ``gamma_val`` must lie in [0, 2*variance] (covariances are bounded below
    by -variance for a valid stationary field).
    """
    variance = float(variance)
    gamma_val = float(gamma_val)
    if variance < 0.0:
        raise InputError(f"variance must be nonnegative, got {variance}")
    if not 0.0 <= gamma_val <= 2.0 * variance:
        raise InputError(
            f"semivariogram value {gamma_val} outside [0, {2.0 * variance}]"
        )
    return variance - gamma_val


def empirical_semivariogram(x, y, bins: int, max_lag: float):
    """Binned empirical semivariogram of scattered data.

    For each lag bin, gamma_hat = sum over pairs of (y_i - y_j)^2 / (2 * count).
    Pair lags are Euclidean distances; bins are equal-width on [0, max_lag]
    and the last bin includes its right edge.

    Returns
    -------
    (centers, counts, gamma) : three arrays of length ``bins``; ``gamma`` is
    NaN on bins containing no pairs.
    """
    bins = int(bins)
    max_lag = float(max_lag)
    if bins < 1:
        raise InputError(f"bins must be positive, got {bins}")
    if not max_lag > 0.0:
        raise InputError(f"max_lag must be positive, got {max_lag}")
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.shape[0] != y.shape[0]:
        raise InputError("x and y must have the same number of rows")
    if x.shape[0] < 2:
        raise InputError("need at least two points for an empirical semivariogram")

    lags = pdist(x)
    sqdiff = pdist(y[:, None], "sqeuclidean")

    edges = np.linspace(0.0, max_lag, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    idx = np.digitize(lags, edges[1:-1], right=False)
    idx[~(lags <= max_lag)] = bins  # one overflow bin, dropped below

    counts = np.bincount(idx, minlength=bins + 1)[:bins]
    sums = np.bincount(idx, weights=sqdiff, minlength=bins + 1)[:bins]
    gamma = np.full(bins, np.nan)
    filled = counts > 0
    gamma[filled] = sums[filled] / (2.0 * counts[filled])
    return centers, counts, gamma


# ---------------------------------------------------------------------------
# Mean models
# ---------------------------------------------------------------------------

KNOWN = "known"
CONSTANT_UNKNOWN = "constant_unknown"
BASIS = "basis"


@dataclass(frozen=True)
class MeanSpec:
    """Mean model for the random field.

    Three variants:

    * ``known``: an explicit mean function ``m(x)``;
    * ``constant_unknown``: an unknown constant (Ordinary Kriging case),
      semantically identical to a one-function basis f == 1;
    * ``basis``: m(x) = sum_l f_l(x) * beta_l for known functions f_l, with
      the coefficients possibly unknown (Universal Kriging case). When
      ``coefficients`` is set the mean is fully identified; ``prior_mean`` /
      ``prior_cov`` optionally place a Gaussian prior on the coefficients.

    Basis functions take a 1-D location array of length d and return a float.
    A polynomial basis also records its p x d matrix of monomial
    ``exponents``; :func:`basis_matrix` evaluates it in one vectorised
    product, and it is what lets the basis be written back to JSON.
    ``descriptor`` is the serialization hint of a known constant mean.
    Hand-built callables cannot be written back to JSON.  Neither field
    takes part in equality.
    """

    kind: str
    function: Callable | None = None
    functions: tuple[Callable, ...] = ()
    coefficients: np.ndarray | None = None
    prior_mean: np.ndarray | None = None
    prior_cov: np.ndarray | None = None
    descriptor: tuple | None = field(default=None, compare=False)
    exponents: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in (KNOWN, CONSTANT_UNKNOWN, BASIS):
            raise InputError(f"unknown mean kind {self.kind!r}")
        if self.kind == KNOWN and self.function is None:
            raise InputError("known mean requires a function")
        if self.exponents is not None:
            e = np.asarray(self.exponents, dtype=float)
            if self.kind != BASIS or e.ndim != 2 or e.shape[0] != len(self.functions):
                raise InputError("exponents need one row per basis function")
            object.__setattr__(self, "exponents", e)
        if self.kind == BASIS:
            if len(self.functions) < 1:
                raise InputError("basis mean requires at least one function")
            p = len(self.functions)
            for name in ("coefficients", "prior_mean"):
                v = getattr(self, name)
                if v is not None:
                    v = np.asarray(v, dtype=float).reshape(-1)
                    if v.shape[0] != p:
                        raise InputError(f"{name} must have length {p}")
                    object.__setattr__(self, name, v)
            if self.prior_cov is not None:
                b = np.asarray(self.prior_cov, dtype=float)
                if b.shape != (p, p):
                    raise InputError(f"prior_cov must be {p}x{p}, got {b.shape}")
                if np.abs(b - b.T).max() > 1e-10 * max(1.0, np.abs(b).max()):
                    raise InputError("prior_cov must be symmetric")
                object.__setattr__(self, "prior_cov", 0.5 * (b + b.T))

    # -- constructors -------------------------------------------------------

    @classmethod
    def known(cls, function: Callable) -> "MeanSpec":
        return cls(kind=KNOWN, function=function)

    @classmethod
    def known_constant(cls, value: float) -> "MeanSpec":
        value = float(value)
        return cls(kind=KNOWN, function=lambda _x: value, descriptor=("constant", value))

    @classmethod
    def constant_unknown(cls) -> "MeanSpec":
        return cls(kind=CONSTANT_UNKNOWN)

    @classmethod
    def basis(cls, functions, coefficients=None, prior_mean=None,
              prior_cov=None) -> "MeanSpec":
        return cls(kind=BASIS, functions=tuple(functions), coefficients=coefficients,
                   prior_mean=prior_mean, prior_cov=prior_cov)

    @classmethod
    def polynomial(cls, dim: int, degree: int, coefficients=None, prior_mean=None,
                   prior_cov=None) -> "MeanSpec":
        """Basis of all monomials of total degree <= ``degree`` in d variables."""
        exponents = _monomial_exponents(dim, degree)
        return cls(kind=BASIS, functions=_monomials(exponents), coefficients=coefficients,
                   prior_mean=prior_mean, prior_cov=prior_cov, exponents=exponents)

    # -- queries ------------------------------------------------------------

    @property
    def p(self) -> int:
        """Number of basis functions (1 for the unknown-constant variant)."""
        if self.kind == BASIS:
            return len(self.functions)
        if self.kind == CONSTANT_UNKNOWN:
            return 1
        raise InputError("a known mean has no basis dimension")

    @property
    def is_identified(self) -> bool:
        """True when the mean can be evaluated without estimating anything."""
        return self.kind == KNOWN or (self.kind == BASIS and self.coefficients is not None)


def _monomial_exponents(dim: int, degree: int) -> np.ndarray:
    """Exponents of the monomials of total degree <= degree, one per row, constant first."""
    dim = int(dim)
    degree = int(degree)
    if dim < 1 or degree < 0:
        raise InputError("polynomial basis needs dim >= 1 and degree >= 0")
    exponents = []
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(dim), total):
            e = [0] * dim
            for i in combo:
                e[i] += 1
            exponents.append(e)
    exponents = np.array(exponents, dtype=float)
    exponents.setflags(write=False)
    return exponents


def _monomials(exponents: np.ndarray) -> tuple[Callable, ...]:
    def make(expo):
        def monomial(x, _e=expo):
            return float(np.prod(np.asarray(x, dtype=float) ** _e))
        return monomial

    return tuple(make(e) for e in exponents)


def polynomial_basis(dim: int, degree: int) -> tuple[Callable, ...]:
    """Monomial basis functions of total degree <= degree, constant first."""
    return _monomials(_monomial_exponents(dim, degree))


def eval_mean(mean: MeanSpec, x) -> float:
    """Evaluate the mean function at one location.

    Raises an input error for means whose coefficients are not identified
    (the caller must run GLS first).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if mean.kind == KNOWN:
        return float(mean.function(x))
    if mean.kind == BASIS and mean.coefficients is not None:
        return float(sum(f(x) * b for f, b in zip(mean.functions, mean.coefficients)))
    raise InputError("mean not identified: coefficients unknown, estimate them first")


def basis_matrix(mean: MeanSpec, x) -> np.ndarray:
    """Design matrix M with M[i, j] = f_j(X_i).

    The unknown-constant variant is treated as the single basis function
    f == 1 and yields the all-ones column.  A polynomial basis is evaluated
    from its exponents in one product, with ``x`` read as points of the
    basis dimension (a 1-D ``x`` is one point unless d == 1); other bases
    call their functions row by row.
    """
    if mean.exponents is not None:
        e = mean.exponents
        x = _as_locations(x, e.shape[1], "basis locations")
        return np.prod(x[:, None, :] ** e, axis=2)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if mean.kind == CONSTANT_UNKNOWN:
        return np.ones((n, 1))
    if mean.kind != BASIS:
        raise InputError("basis matrix requires a basis or constant-unknown mean")
    m = np.empty((n, len(mean.functions)))
    for j, f in enumerate(mean.functions):
        for i in range(n):
            m[i, j] = f(x[i])
    return m


def basis_at(mean: MeanSpec, xstar) -> np.ndarray:
    """The vector f(x*) of basis functions at one prediction point."""
    xstar = np.asarray(xstar, dtype=float).reshape(-1)
    return basis_matrix(mean, xstar[None, :])[0]


# ---------------------------------------------------------------------------
# Observations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Design locations, responses, and the observation-noise variance.

    ``x`` is (n, d); a 1-D array is promoted to a single column. Duplicate
    locations are legal but make the noise-free Gram singular, which will
    surface as a singularity error at solve time.
    """

    x: np.ndarray
    y: np.ndarray
    noise_variance: float = 0.0

    def __post_init__(self):
        # contiguous copies keep solves bit-reproducible regardless of how
        # the caller sliced the inputs (BLAS rounding depends on strides)
        x = np.ascontiguousarray(self.x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2 or x.shape[0] < 1:
            raise InputError(f"x must be a nonempty (n, d) array, got shape {x.shape}")
        y = np.ascontiguousarray(np.asarray(self.y, dtype=float).reshape(-1))
        if y.shape[0] != x.shape[0]:
            raise InputError(f"{x.shape[0]} locations but {y.shape[0]} responses")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InputError("locations and responses must be finite")
        noise = float(self.noise_variance)
        if not noise >= 0.0:
            raise InputError(f"noise variance must be nonnegative, got {noise}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "noise_variance", noise)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


# ---------------------------------------------------------------------------
# JSON model documents
# ---------------------------------------------------------------------------


def model_to_json(kernel: KernelSpec, mean: MeanSpec, noise_variance: float) -> dict:
    """Serialize a model to the interchange document.

    Only means constructed from a named family (known constant, polynomial
    basis) are representable.
    """
    doc = {
        "kernel": {
            "family": kernel.family,
            "variance": kernel.variance,
            "lengthscales": list(kernel.lengthscales),
        },
        "mean": _mean_to_json(mean),
        "noise_variance": float(noise_variance),
    }
    return doc


def _mean_to_json(mean: MeanSpec) -> dict:
    if mean.kind == CONSTANT_UNKNOWN:
        return {"type": "constant_unknown"}
    if mean.kind == KNOWN:
        if mean.descriptor and mean.descriptor[0] == "constant":
            return {"type": "known", "constant": mean.descriptor[1]}
        raise InputError("only constant known means are JSON-representable")
    if mean.exponents is not None:
        degree = int(mean.exponents.sum(axis=1).max())
        doc = {"type": "basis", "basis": "polynomial", "degree": degree}
        if mean.coefficients is not None:
            doc["coefficients"] = list(map(float, mean.coefficients))
        if mean.prior_mean is not None:
            doc["prior_mean"] = list(map(float, mean.prior_mean))
        if mean.prior_cov is not None:
            doc["prior_cov"] = [list(map(float, row)) for row in mean.prior_cov]
        return doc
    raise InputError("basis means built from raw callables are not JSON-representable")


def model_from_json(doc: dict, dim: int | None = None):
    """Parse the interchange document into (KernelSpec, MeanSpec, noise).

    ``dim`` (e.g. taken from a dataset) broadcasts an isotropic lengthscale;
    the document may also carry an explicit ``"dimension"`` key.
    """
    if not isinstance(doc, dict):
        raise InputError("model document must be a JSON object")
    try:
        kdoc = doc["kernel"]
        mdoc = doc["mean"]
        noise = float(doc["noise_variance"])
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"bad model document: {err}") from err
    if not isinstance(kdoc, dict) or not isinstance(mdoc, dict):
        raise InputError("'kernel' and 'mean' must be JSON objects")
    try:
        family = kdoc["family"]
        variance = float(kdoc["variance"])
        lengthscales = [float(v) for v in kdoc["lengthscales"]]
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"bad kernel document: {err}") from err
    kdim = int(kdoc.get("dimension", dim or len(lengthscales)))
    kernel = KernelSpec(family, variance, tuple(lengthscales), dim=kdim)
    mean = _mean_from_json(mdoc, kernel.dim)
    if noise < 0.0:
        raise InputError(f"noise_variance must be nonnegative, got {noise}")
    return kernel, mean, noise


def _mean_from_json(doc: dict, dim: int) -> MeanSpec:
    mtype = doc.get("type")
    if mtype == "constant_unknown":
        return MeanSpec.constant_unknown()
    if mtype == "known":
        if "constant" not in doc:
            raise InputError("known mean document requires a 'constant' value")
        return MeanSpec.known_constant(float(doc["constant"]))
    if mtype == "basis":
        if doc.get("basis", "polynomial") != "polynomial":
            raise InputError(f"unsupported basis family {doc.get('basis')!r}")
        degree = int(doc.get("degree", 1))
        return MeanSpec.polynomial(
            dim, degree,
            coefficients=doc.get("coefficients"),
            prior_mean=doc.get("prior_mean"),
            prior_cov=doc.get("prior_cov"),
        )
    raise InputError(f"unknown mean type {mtype!r}")
