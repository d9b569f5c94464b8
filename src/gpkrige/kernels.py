"""Covariance kernels, mean models, and variogram identities.

The random-field model used throughout the library is a stationary field
with covariance function ``k(x, x') = variance * profile(u)``, where ``u``
is the lengthscale-scaled Euclidean lag, observed through additive white
noise of variance ``noise_variance``.  This module owns the three building
blocks every predictor needs:

* :class:`KernelSpec` and the Gram/cross-covariance assembly,
* :class:`MeanSpec` (known constant, unknown constant, or a linear basis
  expansion) together with mean and basis-matrix evaluation,
* the semivariogram identity ``gamma(tau) = variance - C(tau)`` and the
  binned empirical semivariogram estimator.

All functions are pure; nothing here caches state.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .exceptions import InputError

_SQRT3 = np.sqrt(3.0)
_SQRT5 = np.sqrt(5.0)
_PAIR_BLOCK = 1 << 16  # pairs per block of the empirical semivariogram
_LAG_BLOCK = 1 << 14  # lags per profile call: 128 KiB temporaries, at glibc's mmap threshold
_MAX_FLOATS = np.iinfo(np.intp).max // 8  # this many floats take more bytes than numpy can count


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


#: Correlation profiles as functions of the scaled lag u = ||(x - x') / ell||
#: (Rasmussen & Williams 2006, section 4.2), written as their closed forms.
KERNEL_FAMILIES: dict[str, Callable] = {
    "squared_exponential": _se_profile,
    "exponential": _exponential_profile,
    "matern32": _matern32_profile,
    "matern52": _matern52_profile,
    "white_noise_only": _white_noise_profile,
}


def _real(value, name: str) -> np.ndarray:
    """``value`` as a float array: the one check that turns an outside value into numbers.

    Ints of any size, floats and numpy numbers pass, alone, in a rectangular
    nest of sequences or in an int or float array; a string, a boolean, None
    or a ragged nest anywhere in ``value`` is an input error.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        return value.astype(float, copy=False)
    a = np.asarray(value, dtype=object)  # entries keep their types; a ragged nest, its lists
    if all(isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
           for v in a.flat):
        try:
            return a.astype(float)
        except OverflowError:  # an int beyond the float range
            pass
    raise InputError(f"{name} must be numeric, got {reprlib.repr(value)}")


def _finite(value, name: str) -> np.ndarray:
    """``value`` as a float array, rejected unless every entry is a finite number."""
    a = _real(value, name)
    if not np.all(np.isfinite(a)):
        raise InputError(f"{name} must be finite")
    return a


def _nonnegative(value, name: str) -> float:
    """``value`` as a float, rejected unless it is one finite, nonnegative number."""
    a = _real(value, name)
    if a.ndim or not 0.0 <= a < np.inf:
        raise InputError(f"{name} must be one nonnegative, finite number, got {value!r}")
    return float(a)


def _integer(value, name: str) -> int:
    """``value`` as an int, rejected unless it is an integral number: 2.0, not 2.5, "2" or True."""
    if not isinstance(value, (str, bool, np.bool_)):
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
        if not (isinstance(self.family, str) and self.family in KERNEL_FAMILIES):
            raise InputError(
                f"unknown kernel family {self.family!r}; "
                f"expected one of {sorted(KERNEL_FAMILIES)}"
            )
        variance = _nonnegative(self.variance, "process variance")
        ls = np.atleast_1d(_real(self.lengthscales, "lengthscales"))
        dim = len(ls) if self.dim is None else _integer(self.dim, "dimension")
        if dim < 1:
            raise InputError(f"dimension must be positive, got {dim}")
        if ls.shape not in ((1,), (dim,)):  # one value is shared by every dimension
            raise InputError(f"got lengthscales of shape {ls.shape} for dimension {dim}")
        if not np.all((0.0 < ls) & (ls < np.inf)):
            raise InputError(f"lengthscales must be positive and finite, got {ls.tolist()}")
        ls = tuple(np.broadcast_to(ls, dim).tolist())
        object.__setattr__(self, "variance", variance)
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "dim", dim)

    @property
    def is_isotropic(self) -> bool:
        return len(set(self.lengthscales)) == 1


def _as_locations(x, dim, name="X"):
    x = _real(x, name)
    if x.ndim == 1:
        x = x[:, None] if dim == 1 else x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise InputError(f"{name} must be an (n, {dim}) array, got shape {x.shape}")
    return x


def _covariance(spec: KernelSpec, lags: np.ndarray) -> np.ndarray:
    """variance * profile of a fresh array of scaled lags, written over its lags.

    The only caller of a profile.  Blocks of ``_LAG_BLOCK`` lags bound its
    temporaries, and each lag is computed on its own, so they change no bit.
    """
    profile = KERNEL_FAMILIES[spec.family]
    flat = lags.reshape(-1)  # a view of C-ordered lags, else a copy
    for start in range(0, flat.size, _LAG_BLOCK):
        block = flat[start:start + _LAG_BLOCK]
        np.multiply(profile(block), spec.variance, out=block)
    return flat.reshape(lags.shape)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite entry is the caller's to report
def kernel_matrix(spec: KernelSpec, xa, xb) -> np.ndarray:
    """Rectangular covariance matrix k(xa_i, xb_j), no noise term.

    Observation noise never enters: it is independent of the latent field,
    so Cov(Y_i, Z(x*)) = k(x_i, x*) even at a design point.
    """
    xa = _as_locations(xa, spec.dim, "xa")
    xb = _as_locations(xb, spec.dim, "xb")
    ls = np.asarray(spec.lengthscales)
    return _covariance(spec, cdist(xa / ls, xb / ls))


@np.errstate(over="ignore", invalid="ignore")  # the finite check is the one report
def _observation_cov(spec: KernelSpec, x: np.ndarray, noise_variance: float) -> np.ndarray:
    """S = Sigma + sigma^2 I in the upper triangle of a fresh C-ordered array.

    The engine's S, from the checked locations and noise of a
    :class:`Dataset`.  That triangle is the lower one of the column-major
    transpose LAPACK reads, so S can be factored where it is built.  Row
    blocks of about ``_LAG_BLOCK`` lags bound the temporaries: rows
    [i, i + r) against columns [i, n), each block's profile run in place on
    ``cdist``'s lags and checked finite.  The strict lower triangle holds
    zeros and the lower halves of each block's r x r square, and is not to
    be read.  The diagonal is variance + noise whatever a point's lag to
    itself computes to (NaN where its scaled coordinates overflow).
    """
    n = x.shape[0]
    scaled = x / np.asarray(spec.lengthscales)
    s = np.zeros((n, n))
    i = 0
    while i < n:
        rows = min(n - i, max(1, _LAG_BLOCK // (n - i)))
        block = _covariance(spec, cdist(scaled[i:i + rows], scaled[i:]))
        np.fill_diagonal(block, spec.variance + noise_variance)
        if not np.isfinite(block).all():
            raise InputError("matrix must be finite")
        s[i:i + rows, i:] = block
        i += rows
    return s


def build_gram(spec: KernelSpec, x, noise_variance: float = 0.0) -> np.ndarray:
    """Assemble the observation covariance Sigma + sigma^2 I, full and exactly symmetric.

    ``kernel_matrix(spec, x, x)``, symmetric since cdist(a, b) rounds as
    cdist(b, a) does, with variance + noise on its diagonal: the noise sits
    there only, so duplicated locations remain perfectly correlated.  A
    non-finite entry is an input error.
    """
    noise_variance = _nonnegative(noise_variance, "noise variance")
    gram = kernel_matrix(spec, x, x)
    np.fill_diagonal(gram, spec.variance + noise_variance)
    if not np.isfinite(gram).all():
        raise InputError("matrix must be finite")
    return gram


@np.errstate(over="ignore", invalid="ignore")  # a far lag's overflow is mended below
def semivariogram_of(spec: KernelSpec, tau):
    """Model semivariogram gamma(tau) = variance - C(tau) at scalar lag(s).

    Requires an isotropic spec; ``tau`` may be a scalar or an array of
    nonnegative lags.  Where the scaled lag is so large that a Matern
    profile's polynomial overflows, exp(-s) has long underflowed to 0, so
    C is 0 and gamma is the variance.
    """
    if not spec.is_isotropic:
        raise InputError("semivariogram requires an isotropic kernel")
    tau = _real(tau, "lags")
    if np.any(tau < 0.0):
        raise InputError("lags must be nonnegative")
    gamma = spec.variance - _covariance(spec, np.asarray(tau / spec.lengthscales[0]))
    gamma = np.where(np.isnan(gamma) & ~np.isnan(tau), spec.variance, gamma)  # inf * 0
    return float(gamma) if gamma.ndim == 0 else gamma


def _pair_plan(n: int, pairs: int) -> list[tuple[int, int, int]]:
    """The row blocks (i, rows, lags) that walk the pairs i < j of n points.

    The last block is the tail: the longest run of final rows [i, n) whose
    r(r - 1)/2 pairs number at most ``pairs``, evaluated as exactly those
    pairs.  Each
    earlier block evaluates rows [i, i + rows) against columns [i + 1, n),
    its repeated lower-triangle square included, with about ``pairs``
    lags (one row, if a row is longer) and never a row of the tail.
    """
    tail = max(0, n - (1 + math.isqrt(8 * pairs + 1)) // 2)
    blocks = []
    i = 0
    while i < tail:
        cols = n - 1 - i
        rows = min(tail - i, max(1, pairs // cols))
        blocks.append((i, rows, rows * cols))
        i += rows
    r = n - tail
    blocks.append((tail, r, r * (r - 1) // 2))
    return blocks


def empirical_semivariogram(x, y, bins: int, max_lag: float):
    """Binned empirical semivariogram of scattered data.

    For each lag bin, gamma_hat = sum over pairs of (y_i - y_j)^2 / (2 * count).
    Pair lags are Euclidean distances; the edges are
    ``np.linspace(0, max_lag, bins + 1)`` and a pair with lag ``h`` falls in
    bin ``np.digitize(h, edges[1:-1])``: bin b holds edges[b] <= h < edges[b+1],
    the last bin includes its right edge ``max_lag``, and a pair with
    h > max_lag counts nowhere.

    The pairs i < j are walked in the blocks of :func:`_pair_plan`, of
    about max(``_PAIR_BLOCK``, bins) pairs each, so a block's per-bin work
    never outweighs its pairs.  Once the rows left hold at most that many
    pairs, they are one tail block, taken from ``pdist`` in its condensed
    order: the lags from ``pdist(x[i:])`` and the squared response
    differences from ``pdist(y[i:, None], "sqeuclidean")``, not squared
    again.
    Each earlier block is rows [i, i + r) against columns [i + 1, n) from
    ``cdist`` (one row, if a row is longer), and its repeated lower-triangle
    square is evaluated too; for n up to 6000 the plan evaluates at most
    1.08 lags per pair.  Three work buffers sized by the plan's largest
    block (lags, bin indices, weights) are allocated once per call and
    every block is computed into them, so the working memory is a few
    arrays of max(2^16, bins, n) entries rather than of n(n-1)/2: a
    ``tracemalloc`` peak of 1.9 to 3.3 MB for n from 3000 to 20 000 (bins
    12, max_lag 0.5 or 2 on the unit square).  An extra sentinel bin
    ``bins`` takes every lag beyond max_lag, and the repeated squares,
    whose lags are set to infinity; its sum is never read.  Where at least
    half of a block's pairs lie within max_lag, all of them are binned, the
    rest in the sentinel; otherwise the kept pairs are gathered first,
    because binning the others would cost more than dropping them.  A
    pair's bin is its estimate min(h * (bins / max_lag), bins + 0.5)
    truncated, which is already ``np.digitize``'s bin unless the estimate
    lies within min(0.5, 16 eps (bins + 1)) of an integer, an edge; only
    those pairs are tested against the exact edges and moved by one.  A
    max_lag / bins that is not a normal float is rejected, because the
    edges can then repeat or fall out of order.  ``np.add.at`` adds each
    block's squared differences to the per-bin sums pair by pair, so the
    sums round as one pass over all pairs would.
    Responses so far apart that a bin's sum overflows are an input error;
    pairs beyond max_lag are never read, however far apart.

    Returns
    -------
    (centers, counts, gamma) : three arrays of length ``bins``; ``gamma`` is
    NaN on bins containing no pairs.
    """
    bins = _integer(bins, "bins")
    max_lag = _nonnegative(max_lag, "max_lag")
    if bins < 1:
        raise InputError(f"bins must be positive, got {bins}")
    if max_lag == 0.0:
        raise InputError("max_lag must be positive, got 0.0")
    if bins >= _MAX_FLOATS:  # the bins + 1 edges
        raise InputError(f"bins must be below {_MAX_FLOATS}, got {bins}")
    if max_lag / bins < np.finfo(float).tiny:
        # subnormal edges repeat or fall out of order
        raise InputError(f"bin width max_lag / bins = {max_lag / bins!r} is not a normal float")
    data = Dataset(x, y)
    x, y = data.x, data.y
    if data.n < 2:
        raise InputError("need at least two points for an empirical semivariogram")

    n = x.shape[0]
    # so a block's per-bin work never outweighs its pairs
    blocks = _pair_plan(n, max(_PAIR_BLOCK, bins))
    tail = blocks[-1][0]
    size = max(lags for _, _, lags in blocks)
    with np.errstate(over="ignore"):  # at the float max the sentinel's edge is inf
        beyond = np.nextafter(max_lag, np.inf)
    try:
        edges = np.linspace(0.0, max_lag, bins + 1)
        # bin b holds bounds[b] <= h < bounds[b + 1]; the sentinel bin holds h > max_lag
        bounds = np.concatenate((edges[:-1], [beyond, np.inf]))
        counts = np.zeros(bins + 1, dtype=np.intp)
        sums = np.zeros(bins + 1)
    except (MemoryError, ValueError) as err:  # ValueError: numpy's own size limit
        raise InputError(f"cannot allocate {bins} bins: {err}") from None
    index, weights, lags = np.empty(size, dtype=np.intp), np.empty(size), np.empty(size)
    near = np.empty(size, dtype=bool)
    # an estimate within this distance of an integer may be off by one bin
    tol = min(0.5, 16.0 * np.finfo(float).eps * (bins + 1))
    tri = np.tri(max((rows for _, rows, _ in blocks[:-1]), default=0), dtype=bool, k=-1)
    # an overflow is to inf: of a lag's estimate only far beyond max_lag, in
    # the sentinel; of a response difference or its square, in the sums read
    # below, or in the sentinel's, which is not read
    with np.errstate(over="ignore"):
        for i, rows, m in blocks:
            cols = n - 1 - i
            if i == tail:  # the rest of the triangle, in pdist's condensed order
                lag = pdist(x[i:], out=lags[:m])
            else:
                lag = cdist(x[i:i + rows], x[i + 1:], out=lags[:m].reshape(rows, cols))
                lag[:, :rows][tri[:rows, :rows]] = np.inf  # the square's repeated pairs: sentinel
                lag = lag.reshape(-1)
            keep = np.less_equal(lag, max_lag, out=near[:m])
            k, sel = np.count_nonzero(keep), None
            if 2 * k < m:  # dropping the rest costs less than binning it in the sentinel
                sel = np.flatnonzero(keep)
                lag = lag[sel]
            else:
                k = m
            idx, est = index[:k], weights[:k]
            np.multiply(lag, bins / max_lag, out=est)
            np.minimum(est, bins + 0.5, out=est)
            np.copyto(idx, est, casting="unsafe")  # truncates
            est -= idx
            est -= 0.5
            np.abs(est, out=est)  # 0.5 less the distance to the nearest integer
            edge = np.flatnonzero(np.greater_equal(est, 0.5 - tol, out=near[:k]))
            h, b = lag[edge], idx[edge]
            b -= h < bounds[b]
            b += h >= bounds[b + 1]
            idx[edge] = b
            # the estimates are spent: the block's (y_i - y_j)^2 take their place
            sqdiff = est
            if i == tail:  # squared already; the lags are spent too
                diff = pdist(y[i:, None], "sqeuclidean",
                             out=weights[:m] if sel is None else lags[:m])
                if sel is not None:
                    np.take(diff, sel, out=sqdiff)
            else:
                diff = weights[:m]
                np.subtract(y[i:i + rows, None], y[None, i + 1:], out=diff.reshape(rows, cols))
                if sel is not None:
                    sqdiff[:] = diff[sel]
                sqdiff *= sqdiff
            counts += np.bincount(idx, minlength=bins + 1)
            np.add.at(sums, idx, sqdiff)  # pair by pair, so it rounds as one pass over the pairs

    counts, sums = counts[:bins], sums[:bins]
    if not np.isfinite(sums).all():
        raise InputError("responses too large: a sum of squared differences overflows")
    centers = 0.5 * edges[:-1] + 0.5 * edges[1:]  # the sum overflows near the float max
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

    * ``known``: a known constant;
    * ``constant_unknown``: an unknown constant (Ordinary Kriging case),
      semantically identical to a one-function basis f == 1, without its
      coefficients or prior (a degree-0 :meth:`polynomial` takes them);
    * ``basis``: m(x) = sum_l f_l(x) * beta_l for known functions f_l, with
      the coefficients possibly unknown (Universal Kriging case). When
      ``coefficients`` is set the mean is fully identified (a known mean
      function is such a basis); ``prior_mean`` / ``prior_cov`` optionally
      place a Gaussian prior on the coefficients.

    A basis is either hand-built ``functions``, each taking a 1-D location
    array of length d and returning a float, or a polynomial given by its
    p x d matrix of monomial ``exponents`` alone; :func:`basis_matrix`
    evaluates the exponents in one vectorised product.  Every number is
    stored as a tuple of floats, so specs compare equal and hash by value
    (a function by identity), and a spec never shares an array with its
    caller.  A field its kind does not read is an :class:`InputError`, not
    dropped.
    """

    kind: str
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
            constant = _finite(self.constant, "constant")
            if constant.ndim:
                raise InputError(f"constant must be one number, got shape {constant.shape}")
            object.__setattr__(self, "constant", float(constant))
        if self.kind == KNOWN and self.constant is None:
            raise InputError("known mean requires a constant")
        if self.functions and self.kind != BASIS:
            raise InputError("only a basis mean takes functions")
        if self.exponents is not None:
            e = _real(self.exponents, "exponents")
            if self.kind != BASIS or self.functions or e.ndim != 2:
                raise InputError("a polynomial basis takes exponents and no functions")
            object.__setattr__(self, "exponents", _frozen(e))
        if self.kind != BASIS:
            for name in ("coefficients", "prior_mean", "prior_cov"):
                if getattr(self, name) is not None:
                    raise InputError(f"a {self.kind} mean takes no coefficients or prior, got "
                                     f"{name}; a degree-0 polynomial basis takes them")
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
                v = 0.5 * v + 0.5 * v.T
            object.__setattr__(self, name, _frozen(v))

    # -- constructors -------------------------------------------------------

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

    A known constant is a broadcast and a basis with coefficients is its
    basis matrix reduced row by row against them, so a row's value does not
    depend on the batch it is in.
    Raises an input error for means whose coefficients are not identified
    (the caller must run GLS first).
    """
    if mean.constant is not None:
        return np.full(x.shape[0], mean.constant)
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
    x = _real(x, "basis locations")
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
        x = np.array(_finite(self.x, "x"), order="C", ndmin=1)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2 or x.shape[0] < 1:
            raise InputError(f"x must be a nonempty (n, d) array, got shape {x.shape}")
        y = np.array(_finite(self.y, "y"), order="C").reshape(-1)
        if y.shape[0] != x.shape[0]:
            raise InputError(f"{x.shape[0]} locations but {y.shape[0]} responses")
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


def _fields(doc, what: str, *keys, optional=()) -> list:
    """The values of ``keys`` in ``doc``, a JSON object holding them all.

    A key that is neither in ``keys`` nor in ``optional`` is refused by
    name, so a misspelt key is not read as an absent one.
    """
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be a JSON object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise InputError(f"{what} lacks {', '.join(map(repr, missing))}")
    unknown = [key for key in doc if key not in keys and key not in optional]
    if unknown:
        raise InputError(f"{what} does not define {', '.join(map(repr, unknown))}")
    return [doc[key] for key in keys]


def model_from_json(doc: dict, dim: int | None = None):
    """Parse the interchange document into (KernelSpec, MeanSpec, noise).

    ``dim`` (e.g. taken from a dataset) broadcasts an isotropic lengthscale.
    Values go to the constructors as they are, whose validators reject non-numbers.
    ``variant`` and ``max_jitter`` are the CLI's keys, read there.
    """
    kdoc, mdoc, noise = _fields(doc, "model document", "kernel", "mean", "noise_variance",
                                optional=("variant", "max_jitter"))
    kernel = _kernel_from_json(kdoc, dim)
    return kernel, _mean_from_json(mdoc, kernel.dim), _nonnegative(noise, "noise_variance")


def _kernel_from_json(kdoc: dict, dim: int | None = None) -> KernelSpec:
    """Parse a kernel document; ``dim`` broadcasts an isotropic lengthscale."""
    return KernelSpec(*_fields(kdoc, "kernel document", "family", "variance", "lengthscales"),
                      dim=dim)


_PRIOR_KEYS = ("coefficients", "prior_mean", "prior_cov")
_MEAN_KEYS = {"constant_unknown": (), "known": ("constant",), "basis": ("basis", "degree")}


def _mean_from_json(doc: dict, dim: int) -> MeanSpec:
    """Parse a mean document; a kind other than basis rejects coefficients and a prior.

    A field held as ``null`` is refused by name, not read as absent, and
    so is a key the document's type does not define.
    """
    mtype = doc.get("type") if isinstance(doc, dict) else None
    if mtype is not None and mtype not in tuple(_MEAN_KEYS):  # a list type is unhashable
        raise InputError(f"unknown mean type {mtype!r}")
    _fields(doc, "mean document", "type", optional=_PRIOR_KEYS + _MEAN_KEYS.get(mtype, ()))
    for name, value in doc.items():
        if value is None:
            raise InputError(f"mean field {name!r} is null; leave it out or give a value")
    priors = {name: doc.get(name) for name in _PRIOR_KEYS}
    if mtype == "constant_unknown":
        return MeanSpec(kind=CONSTANT_UNKNOWN, **priors)
    if mtype == "known":
        if "constant" not in doc:
            raise InputError("known mean document lacks 'constant'")
        return MeanSpec(kind=KNOWN, constant=doc["constant"], **priors)
    if doc.get("basis", "polynomial") != "polynomial":
        raise InputError(f"unsupported basis family {doc.get('basis')!r}")
    return MeanSpec.polynomial(dim, doc.get("degree", 1), **priors)
