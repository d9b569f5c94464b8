"""Covariance kernels, mean models, and variogram identities.

The random-field model used throughout the library is a stationary field
with covariance function ``k(x, x') = variance * profile(u)``, where ``u``
is the lengthscale-scaled Euclidean lag, observed through additive white
noise of variance ``noise_variance``.  This module owns the three building
blocks every predictor needs:

* :class:`KernelSpec` and the Gram/cross-covariance assembly,
* :class:`MeanSpec` (known function or constant, unknown constant, or a
  linear basis expansion) together with mean and basis-matrix evaluation,
* the semivariogram identity ``gamma(tau) = variance - C(tau)`` and the
  binned empirical semivariogram estimator.

All functions are pure; nothing here caches state.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .exceptions import InputError

_SQRT3 = np.sqrt(3.0)
_SQRT5 = np.sqrt(5.0)
_PAIR_BLOCK = 1 << 16  # pairs per block of the empirical semivariogram


def _se_profile(u):
    t = np.multiply(-0.5, u, out=np.empty_like(u))
    t *= u
    return np.exp(t, out=t)


def _exponential_profile(u):
    np.negative(u, out=u)
    return np.exp(u, out=u)


def _matern32_profile(u):
    s = np.multiply(_SQRT3, u, out=u)
    decay = np.negative(s, out=np.empty_like(s))
    np.exp(decay, out=decay)
    s += 1.0
    s *= decay
    return s


def _matern52_profile(u):
    s = np.multiply(_SQRT5, u, out=u)
    decay = np.negative(s, out=np.empty_like(s))
    np.exp(decay, out=decay)
    quadratic = s * s
    quadratic /= 3.0
    s += 1.0
    s += quadratic
    s *= decay
    return s


def _white_noise_profile(u):
    return np.where(u == 0.0, 1.0, 0.0)


#: Correlation profiles as functions of the scaled lag u = ||(x - x') / ell||.
#: Each takes a float array of lags that its caller gives up, may overwrite
#: it, and updates in place in the association order of its closed form, so
#: it rounds exactly as that expression would.
KERNEL_FAMILIES: dict[str, Callable] = {
    "squared_exponential": _se_profile,
    "exponential": _exponential_profile,
    "matern32": _matern32_profile,
    "matern52": _matern52_profile,
    "white_noise_only": _white_noise_profile,
}


def _nonnegative(value, name: str) -> float:
    """``value`` as a float, rejected unless it is finite and nonnegative."""
    value = float(value)
    if not 0.0 <= value < np.inf:
        raise InputError(f"{name} must be nonnegative and finite, got {value}")
    return value


def _integer(value, name: str) -> int:
    """``value`` as an int, rejected unless it is an integral number (2.0, not 2.5)."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError(f"{name} must be an integer, got {value!r}")


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
    dim: int | None = None

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise InputError(
                f"unknown kernel family {self.family!r}; "
                f"expected one of {sorted(KERNEL_FAMILIES)}"
            )
        variance = _nonnegative(self.variance, "process variance")
        ls = self.lengthscales
        if np.isscalar(ls):
            ls = (float(ls),)
        else:
            ls = tuple(float(v) for v in ls)
        dim = len(ls) if self.dim is None else _integer(self.dim, "dimension")
        if dim < 1:
            raise InputError(f"dimension must be positive, got {dim}")
        if len(ls) == 1 and dim > 1:
            ls = ls * dim
        if len(ls) != dim:
            raise InputError(
                f"got {len(ls)} lengthscales for dimension {dim}"
            )
        if not all(0.0 < v < np.inf for v in ls):
            raise InputError(f"lengthscales must be positive and finite, got {ls}")
        object.__setattr__(self, "variance", variance)
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "dim", dim)

    @property
    def is_isotropic(self) -> bool:
        return len(set(self.lengthscales)) == 1

    def _profile(self):
        return KERNEL_FAMILIES[self.family]


def _as_locations(x, dim, name="X"):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None] if dim == 1 else x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise InputError(f"{name} must be an (n, {dim}) array, got shape {x.shape}")
    return x


def kernel_matrix(spec: KernelSpec, xa, xb) -> np.ndarray:
    """Rectangular covariance matrix k(xa_i, xb_j), no noise term.

    Observation noise never enters: it is independent of the latent field,
    so Cov(Y_i, Z(x*)) = k(x_i, x*) even at a design point.
    """
    xa = _as_locations(xa, spec.dim, "xa")
    xb = _as_locations(xb, spec.dim, "xb")
    ls = np.asarray(spec.lengthscales)
    k = spec._profile()(cdist(xa / ls, xb / ls))
    k *= spec.variance
    return k


def build_gram(spec: KernelSpec, x, noise_variance: float = 0.0) -> np.ndarray:
    """Assemble the observation covariance Sigma + sigma^2 I.

    The noise sits on the diagonal only; off-diagonal entries are the pure
    kernel values, so duplicated locations remain perfectly correlated.
    """
    noise_variance = _nonnegative(noise_variance, "noise variance")
    x = _as_locations(x, spec.dim)
    if x.shape[0] < 2:
        k = np.empty((x.shape[0],) * 2)
    else:
        # the profile runs once per pair on pdist's lags, which round as
        # cdist's do, and squareform mirrors them, so k is exactly symmetric
        k = spec._profile()(pdist(x / np.asarray(spec.lengthscales)))
        k *= spec.variance
        k = squareform(k, checks=False)
    np.fill_diagonal(k, spec.variance + noise_variance)
    return k


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
    cov = spec.variance * spec._profile()(np.asarray(tau / spec.lengthscales[0]))
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
    Pair lags are Euclidean distances; the edges are
    ``np.linspace(0, max_lag, bins + 1)`` and a pair with lag ``h`` falls in
    bin ``np.digitize(h, edges[1:-1])``: bin b holds edges[b] <= h < edges[b+1],
    the last bin includes its right edge ``max_lag``, and a pair with
    h > max_lag counts nowhere.

    The pairs i < j are walked in row blocks of the condensed distance
    matrix, each about ``_PAIR_BLOCK`` = 2^16 pairs (one row, if a row is
    longer), so the working memory is a few arrays of max(2^16, n) entries
    rather than of n(n-1)/2: a ``tracemalloc`` peak of 2.5 to 2.7 MB for n
    from 3000 to 20 000.  Each kept pair's bin is floor(h * bins / max_lag),
    clipped to the last bin and moved by one against the exact edges; that
    is ``np.digitize``'s bin.  A max_lag / bins that is not a normal float
    is rejected, because the edges can then repeat or fall out of order.
    The per-bin sums carry over from block to block in pair order, so they
    round as one pass over all pairs would.

    Returns
    -------
    (centers, counts, gamma) : three arrays of length ``bins``; ``gamma`` is
    NaN on bins containing no pairs.
    """
    bins = _integer(bins, "bins")
    max_lag = float(max_lag)
    if bins < 1:
        raise InputError(f"bins must be positive, got {bins}")
    if not 0.0 < max_lag < np.inf:
        raise InputError(f"max_lag must be positive and finite, got {max_lag}")
    if max_lag / bins < np.finfo(float).tiny:
        # subnormal edges repeat or fall out of order
        raise InputError(f"bin width max_lag / bins = {max_lag / bins!r} is not a normal float")
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.shape[0] != y.shape[0]:
        raise InputError("x and y must have the same number of rows")
    if x.shape[0] < 2:
        raise InputError("need at least two points for an empirical semivariogram")
    x, y = _finite(x, "x"), _finite(y, "y")

    edges = np.linspace(0.0, max_lag, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    upper = np.append(edges[1:-1], np.inf)  # bin b holds edges[b] <= h < upper[b]
    counts = np.zeros(bins, dtype=np.intp)
    sums = np.zeros(bins)
    carry = np.arange(bins)
    n = x.shape[0]
    i = 0
    while i < n - 1:
        # block rows [i, i + rows) x columns [i + 1, n): row r pairs with column c >= r
        rows = min(n - 1 - i, max(1, _PAIR_BLOCK // (n - 1 - i)))
        lag = cdist(x[i:i + rows], x[i + 1:])
        sqdiff = y[i:i + rows, None] - y[None, i + 1:]
        sqdiff *= sqdiff
        keep = lag <= max_lag
        keep[:, :rows] &= ~np.tri(rows, dtype=bool, k=-1)
        keep = keep.ravel()
        lag, sqdiff = np.compress(keep, lag.ravel()), np.compress(keep, sqdiff.ravel())
        scaled = lag / max_lag
        scaled *= bins
        idx = scaled.astype(np.intp)
        np.minimum(idx, bins - 1, out=idx)
        idx -= lag < edges[idx]
        idx += lag >= upper[idx]
        counts += np.bincount(idx, minlength=bins)
        # the running sums go first, so each bin keeps adding in pair order
        sums = np.bincount(np.concatenate((carry, idx)),
                           weights=np.concatenate((sums, sqdiff)), minlength=bins)
        i += rows

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

    A known mean is either a ``function`` of one 1-D location, called row
    by row, or a ``constant``, evaluated as a broadcast; only a constant
    can be written to JSON.

    A basis is either hand-built ``functions``, each taking a 1-D location
    array of length d and returning a float, or a polynomial given by its
    p x d matrix of monomial ``exponents`` alone; :func:`basis_matrix`
    evaluates the exponents in one vectorised product, and they are what
    lets the basis be written back to JSON.  Every number is stored as a
    tuple of floats, so specs compare equal and hash by value (a function
    by identity), and a spec never shares an array with its caller.
    """

    kind: str
    function: Callable | None = None
    constant: float | None = None
    functions: tuple[Callable, ...] = ()
    coefficients: tuple[float, ...] | None = None
    prior_mean: tuple[float, ...] | None = None
    prior_cov: tuple[tuple[float, ...], ...] | None = None
    exponents: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in (KNOWN, CONSTANT_UNKNOWN, BASIS):
            raise InputError(f"unknown mean kind {self.kind!r}")
        if self.constant is not None:
            if self.kind != KNOWN:
                raise InputError("only a known mean takes a constant")
            object.__setattr__(self, "constant", float(_finite(self.constant, "constant")))
        if self.kind == KNOWN and (self.function is None) == (self.constant is None):
            raise InputError("known mean requires exactly one of a function and a constant")
        if self.exponents is not None:
            e = np.asarray(self.exponents, dtype=float)
            if self.kind != BASIS or self.functions or e.ndim != 2:
                raise InputError("a polynomial basis takes exponents and no functions")
            object.__setattr__(self, "exponents", _frozen(e))
        if self.kind == KNOWN:
            if any(v is not None for v in (self.coefficients, self.prior_mean, self.prior_cov)):
                raise InputError("a known mean takes no coefficients or prior")
            return
        p = self.p
        if p < 1:
            raise InputError("basis mean requires at least one function")
        for name, shape in (("coefficients", (p,)), ("prior_mean", (p,)),
                            ("prior_cov", (p, p))):
            v = getattr(self, name)
            if v is None:
                continue
            v = _finite(v, name)
            v = v.reshape(-1) if len(shape) == 1 else v
            if v.shape != shape:
                raise InputError(f"{name} must have shape {shape}, got {v.shape}")
            if name == "prior_cov":
                if np.abs(v - v.T).max() > 1e-10 * max(1.0, np.abs(v).max()):
                    raise InputError("prior_cov must be symmetric")
                v = 0.5 * (v + v.T)
            object.__setattr__(self, name, _frozen(v))

    # -- constructors -------------------------------------------------------

    @classmethod
    def known(cls, function: Callable) -> "MeanSpec":
        return cls(kind=KNOWN, function=function)

    @classmethod
    def known_constant(cls, value: float) -> "MeanSpec":
        return cls(kind=KNOWN, constant=value)

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
        return cls(kind=BASIS, exponents=_monomial_exponents(dim, degree),
                   coefficients=coefficients, prior_mean=prior_mean, prior_cov=prior_cov)

    # -- queries ------------------------------------------------------------

    @property
    def p(self) -> int:
        """Number of basis functions (1 for the unknown-constant variant)."""
        if self.kind == BASIS:
            return len(self.functions if self.exponents is None else self.exponents)
        if self.kind == CONSTANT_UNKNOWN:
            return 1
        raise InputError("a known mean has no basis dimension")

    @property
    def is_identified(self) -> bool:
        """True when the mean can be evaluated without estimating anything."""
        return self.kind == KNOWN or (self.kind == BASIS and self.coefficients is not None)


def _finite(value, name: str) -> np.ndarray:
    """``value`` as a float array, rejected unless every entry is finite."""
    a = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(a)):
        raise InputError(f"{name} must be finite")
    return a


def _frozen(a: np.ndarray) -> tuple:
    """A 1-D or 2-D float array as (nested) tuples of Python floats."""
    return tuple(map(tuple, a.tolist())) if a.ndim == 2 else tuple(a.tolist())


def _monomial_exponents(dim: int, degree: int) -> list[list[int]]:
    """Exponents of the monomials of total degree <= degree, one per row, constant first."""
    dim = _integer(dim, "dimension")
    degree = _integer(degree, "degree")
    if dim < 1 or degree < 0:
        raise InputError("polynomial basis needs dim >= 1 and degree >= 0")
    exponents = []
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(dim), total):
            e = [0] * dim
            for i in combo:
                e[i] += 1
            exponents.append(e)
    return exponents


def _rowdot(a, b) -> np.ndarray:
    """Dot product of each row of ``a`` with the same row of ``b`` (or with ``b``).

    Each row is reduced on its own, so the result for one row does not
    depend on how many rows share the call.
    """
    return np.einsum("ji,ji->j", a, np.broadcast_to(b, a.shape))


def _mean_vector(mean: MeanSpec, x: np.ndarray) -> np.ndarray:
    """Evaluate an identified mean at every row of a 2-D ``x``.

    A known constant is a broadcast, a known function is called row by row,
    and a basis with coefficients is its basis matrix reduced row by row
    against them, so a row's value does not depend on the batch it is in.
    Raises an input error for means whose coefficients are not identified
    (the caller must run GLS first).
    """
    if mean.constant is not None:
        return np.full(x.shape[0], mean.constant)
    if mean.kind == KNOWN:
        return np.array([float(mean.function(xi)) for xi in x])
    if mean.kind == BASIS and mean.coefficients is not None:
        return _rowdot(basis_matrix(mean, x), np.asarray(mean.coefficients))
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
        e = np.asarray(mean.exponents)
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
        # the caller sliced the inputs (BLAS rounding depends on strides),
        # and keep the caller's later writes out of a validated dataset
        x = np.array(self.x, dtype=float, order="C", ndmin=1)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2 or x.shape[0] < 1:
            raise InputError(f"x must be a nonempty (n, d) array, got shape {x.shape}")
        y = np.array(self.y, dtype=float, order="C").reshape(-1)
        if y.shape[0] != x.shape[0]:
            raise InputError(f"{x.shape[0]} locations but {y.shape[0]} responses")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InputError("locations and responses must be finite")
        noise = _nonnegative(self.noise_variance, "noise variance")
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
    return {
        "kernel": _kernel_to_json(kernel),
        "mean": _mean_to_json(mean),
        "noise_variance": float(noise_variance),
    }


def _kernel_to_json(kernel: KernelSpec) -> dict:
    return {
        "family": kernel.family,
        "variance": kernel.variance,
        "lengthscales": list(kernel.lengthscales),
    }


def _mean_to_json(mean: MeanSpec) -> dict:
    if mean.kind == CONSTANT_UNKNOWN:
        return {"type": "constant_unknown"}
    if mean.kind == KNOWN:
        if mean.constant is not None:
            return {"type": "known", "constant": mean.constant}
        raise InputError("only constant known means are JSON-representable")
    if mean.exponents is not None:
        degree = int(max(map(sum, mean.exponents)))
        doc = {"type": "basis", "basis": "polynomial", "degree": degree}
        if mean.coefficients is not None:
            doc["coefficients"] = list(mean.coefficients)
        if mean.prior_mean is not None:
            doc["prior_mean"] = list(mean.prior_mean)
        if mean.prior_cov is not None:
            doc["prior_cov"] = [list(row) for row in mean.prior_cov]
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
    kernel = _kernel_from_json(kdoc, dim)
    mean = _mean_from_json(mdoc, kernel.dim)
    return kernel, mean, _nonnegative(noise, "noise_variance")


def _kernel_from_json(kdoc: dict, dim: int | None = None) -> KernelSpec:
    """Parse a kernel document; ``dim`` broadcasts an isotropic lengthscale."""
    try:
        family = kdoc["family"]
        variance = float(kdoc["variance"])
        lengthscales = [float(v) for v in kdoc["lengthscales"]]
        kdim = _integer(kdoc.get("dimension", dim or len(lengthscales)), "dimension")
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"bad kernel document: {err}") from err
    return KernelSpec(family, variance, tuple(lengthscales), dim=kdim)


def _mean_from_json(doc: dict, dim: int) -> MeanSpec:
    if not isinstance(doc, dict):
        raise InputError("a mean document must be a JSON object")
    mtype = doc.get("type")
    try:
        if mtype == "constant_unknown":
            return MeanSpec.constant_unknown()
        if mtype == "known":
            if "constant" not in doc:
                raise InputError("known mean document requires a 'constant' value")
            return MeanSpec.known_constant(float(doc["constant"]))
        if mtype == "basis":
            if doc.get("basis", "polynomial") != "polynomial":
                raise InputError(f"unsupported basis family {doc.get('basis')!r}")
            return MeanSpec.polynomial(
                dim, doc.get("degree", 1),
                coefficients=doc.get("coefficients"),
                prior_mean=doc.get("prior_mean"),
                prior_cov=doc.get("prior_cov"),
            )
    except InputError:
        raise
    except (TypeError, ValueError) as err:
        raise InputError(f"bad mean document: {err}") from err
    raise InputError(f"unknown mean type {mtype!r}")
