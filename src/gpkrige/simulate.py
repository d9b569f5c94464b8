"""Random-field sampling and the desk-scale predictor comparison study.

A study draws training and test locations uniformly over a box and samples
the joint law of the noisy training observations Y and the latent field
Z(X*) at the test points, factored as p(y) p(z* | y).  The observations
are y = m(X) + L xi, with L the Cholesky factor of S = Sigma + sigma^2 I
that the replicate's Kriging engine uses anyway; the test values come from
the exact conditional, mean m(X*) + K*^T S^-1 (y - m(X)) = m(X*) + V^T xi
and the engine's posterior covariance, drawn through the symmetric
eigendecomposition of that m x m matrix (conditioning by Kriging).  When
S does not factor or that covariance is not positive semidefinite
(noise-free data at coincident points), the replicate falls back to
:func:`sample_field`'s joint draw.
The study then fits the requested predictors, scores squared prediction
error against the latent field values at the test points, and reports for
GPR the empirical coverage of its central 95% predictive intervals.

Reproducibility: all randomness flows through NumPy's PCG64 generator; each
replicate draws from an independent stream keyed by (seed, replicate index),
so reports are identical regardless of execution order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import ndtri

from .exceptions import GpKrigeError, InputError, SingularityError, StudyError
from .kernels import (
    _MAX_FLOATS,
    Dataset,
    KernelSpec,
    MeanSpec,
    _as_locations,
    _fields,
    _frozen,
    _integer,
    _kernel_from_json,
    _mean_from_json,
    _mean_vector,
    _nonnegative,
    _real,
    build_gram,
)
from .kriging import _Engine, ls_predict

PREDICTORS = ("ls", "sk", "ok", "uk", "gpr")

_Z95 = float(ndtri(0.975))
_PSD_TOL = 1e-9


@dataclass(frozen=True)
class StudyConfig:
    """Configuration of one simulation study.

    ``true_mean`` must have fixed parameters (it defines the sampled field
    and is handed to the matched-model predictors "sk" and "gpr").  The
    "uk" predictor fits a degree-1 polynomial trend; "ls" fits a constant.
    """

    kernel: KernelSpec
    true_mean: MeanSpec
    noise_variance: float
    n_train: int
    n_test: int
    domain: tuple[tuple[float, float], ...]
    replicates: int
    seed: int
    predictors: tuple[str, ...] = ("ok",)

    def __post_init__(self):
        preds = self.predictors
        if not (isinstance(preds, (list, tuple)) and preds
                and all(p in PREDICTORS for p in preds) and len(set(preds)) == len(preds)):
            raise InputError(f"predictors must be a nonempty list of distinct names from "
                             f"{PREDICTORS}, got {preds!r}")
        object.__setattr__(self, "predictors", tuple(preds))
        if not self.true_mean.is_identified:
            raise InputError("true_mean must have fixed parameters")
        domain = _real(self.domain, "domain")
        if domain.shape != (self.kernel.dim, 2):
            raise InputError(f"domain must be one (lo, hi) interval per kernel dimension, "
                             f"an array of shape {(self.kernel.dim, 2)}, got {domain.shape}")
        if not all(-np.inf < lo < hi < np.inf for lo, hi in domain.tolist()):
            raise InputError("each domain interval needs finite lo < hi")
        object.__setattr__(self, "domain", _frozen(domain))
        for name, least in (("n_train", 1), ("n_test", 1), ("replicates", 1), ("seed", 0)):
            v = _integer(getattr(self, name), name)
            if v < least:
                raise InputError(f"{name} must be at least {least}, got {v}")
            if name.startswith("n_") and v * self.kernel.dim >= _MAX_FLOATS:  # x is n x d
                raise InputError(f"{name} x dimension must be below {_MAX_FLOATS}, got {v}")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "noise_variance",
                           _nonnegative(self.noise_variance, "noise_variance"))
        if "uk" in preds and self.n_train < 1 + self.kernel.dim:
            raise InputError(
                f"uk needs n_train >= {1 + self.kernel.dim} for the linear trend basis"
            )


@dataclass(frozen=True)
class PredictorSummary:
    """Per-predictor study results, aggregated over replicates."""

    mse_mean: float
    mse_stderr: float
    mse_replicates: tuple[float, ...]
    failures: int
    mean_error_variance: float | None = None
    coverage_95: float | None = None


@dataclass(frozen=True)
class StudyReport:
    replicates: int
    seed: int
    predictors: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """``dataclasses.asdict`` with None and NaN (not JSON) fields left out, tuples as lists."""
        return asdict(self, dict_factory=lambda items: {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in items if not (v is None or isinstance(v, float) and np.isnan(v))
        })


def sample_field(kernel: KernelSpec, mean: MeanSpec, x, noise_variance: float,
                 seed) -> np.ndarray:
    """Draw one exact sample of Y = Z + noise at the given locations.

    The covariance Sigma + sigma^2 I is factored by symmetric
    eigendecomposition, which also covers positive-semidefinite cases
    (degenerate fields sample as their mean).  ``seed`` may be anything
    ``numpy.random.default_rng`` accepts, including a Generator.
    """
    x = _as_locations(x, kernel.dim)
    mean_vec = _mean_vector(mean, x)
    cov = build_gram(kernel, x, noise_variance)
    return mean_vec + _sample_zero_mean(cov, np.random.default_rng(seed))


def _sample_zero_mean(cov: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh(cov)
    scale = max(1.0, float(eigvals.max(initial=0.0)))
    if eigvals.min(initial=0.0) < -_PSD_TOL * scale:
        raise SingularityError(
            f"covariance is not positive semidefinite (min eigenvalue {eigvals.min():.3e})"
        )
    root = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    return root @ rng.standard_normal(cov.shape[0])


def _draw_locations(rng, domain, count):
    lows = np.array([lo for lo, _ in domain])
    highs = np.array([hi for _, hi in domain])
    return lows + rng.random((count, len(domain))) * (highs - lows)


def _sample_replicate(cfg, x_train, x_test, rng):
    """One replicate's engine over its drawn observations, and Z at ``x_test``.

    The conditional draw takes the normals of z* | y first: its PSD check
    runs before any normal is drawn, so a replicate that falls back to the
    joint draw consumes ``rng`` exactly as :func:`sample_field` alone would.
    """
    engine = _Engine(Dataset(x_train, np.zeros(cfg.n_train), cfg.noise_variance),
                     cfg.kernel, x_test)
    try:
        chol = engine.factor.chol
        deviation = _sample_zero_mean(engine.posterior_cov(), rng)
    except SingularityError:
        z_all = sample_field(cfg.kernel, cfg.true_mean, np.vstack([x_train, x_test]), 0.0,
                             rng)
        y_train = z_all[: cfg.n_train]
        if cfg.noise_variance > 0.0:
            y_train = y_train + np.sqrt(cfg.noise_variance) * rng.standard_normal(
                cfg.n_train
            )
        return engine.observing(y_train), z_all[cfg.n_train:]
    # y - m(X) = L xi, so the conditional mean K*^T S^-1 (y - m(X)) is V^T xi
    xi = rng.standard_normal(cfg.n_train)
    y_train = _mean_vector(cfg.true_mean, x_train) + chol @ xi
    z_test = _mean_vector(cfg.true_mean, x_test) + engine._targets @ xi + deviation
    return engine.observing(y_train), z_test


def _run_predictor(name, cfg, engine, uk_mean, ls_mean):
    """Returns the predicted means at the test points and the error variances or None."""
    if name == "ls":
        pred = ls_predict(engine.data, ls_mean, engine.xs[0])
        # constant basis: one fitted value serves every test point
        return np.full(engine.xs.shape[0], pred), None
    batch = engine.predict(name, uk_mean if name == "uk" else cfg.true_mean)
    return batch.mean, batch.variance


def run_study(cfg: StudyConfig) -> StudyReport:
    """Run the replicated comparison study described by ``cfg``.

    Each replicate builds one two-stage engine.  Its factor of the
    observation covariance and its target solve serve first the sampler,
    which draws the observations and then the test values from their exact
    conditional, and then every Kriging and GP predictor, which adds only
    its mean stage; sk and gpr, which assume the same known mean, share
    one.  A predictor that fails inside a replicate with a
    :class:`GpKrigeError` is recorded and skipped for that replicate; any
    other exception is a bug and propagates.  The study itself fails only
    when no replicate yields any usable result.
    """
    uk_mean = MeanSpec.polynomial(cfg.kernel.dim, 1)
    ls_mean = MeanSpec.constant_unknown()
    mse = {p: [] for p in cfg.predictors}
    variances = {p: [] for p in cfg.predictors}
    failures = {p: 0 for p in cfg.predictors}
    gpr_hits = []  # one bool per GPR test prediction: inside its 95% interval

    for rep in range(cfg.replicates):
        rng = np.random.default_rng([cfg.seed, rep])
        x_train = _draw_locations(rng, cfg.domain, cfg.n_train)
        x_test = _draw_locations(rng, cfg.domain, cfg.n_test)
        engine, z_test = _sample_replicate(cfg, x_train, x_test, rng)
        for name in cfg.predictors:
            try:
                pred, err_vars = _run_predictor(name, cfg, engine, uk_mean, ls_mean)
            except GpKrigeError:
                failures[name] += 1
                continue
            mse[name].append(float(np.mean((pred - z_test) ** 2)))
            if err_vars is not None:
                variances[name].extend(err_vars.tolist())
            if name == "gpr":
                gpr_hits.extend((np.abs(z_test - pred) <= _Z95 * np.sqrt(err_vars)).tolist())

    if not any(mse.values()):
        raise StudyError("every predictor failed in every replicate")

    summaries = {}
    for name in cfg.predictors:
        values = np.array(mse[name])
        if values.size == 0:
            summaries[name] = PredictorSummary(
                mse_mean=float("nan"), mse_stderr=float("nan"),
                mse_replicates=(), failures=failures[name],
            )
            continue
        stderr = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
        summaries[name] = PredictorSummary(
            mse_mean=float(values.mean()),
            mse_stderr=stderr,
            mse_replicates=tuple(float(v) for v in values),
            failures=failures[name],
            mean_error_variance=(
                float(np.mean(variances[name])) if variances[name] else None
            ),
            coverage_95=sum(gpr_hits) / len(gpr_hits) if name == "gpr" and gpr_hits else None,
        )
    return StudyReport(replicates=cfg.replicates, seed=cfg.seed, predictors=summaries)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def study_config_from_json(doc: dict) -> StudyConfig:
    """Parse a study config; its values go to :class:`StudyConfig` as they are."""
    kdoc, mdoc, noise, n_train, n_test, domain, replicates, seed = _fields(
        doc, "study config", "kernel", "true_mean", "noise_variance", "n_train", "n_test",
        "domain", "replicates", "seed", optional=("predictors",))
    # one interval per dimension broadcasts an isotropic lengthscale
    kernel = _kernel_from_json(kdoc, dim=len(domain) if isinstance(domain, list) else None)
    return StudyConfig(kernel=kernel, true_mean=_mean_from_json(mdoc, kernel.dim),
                       noise_variance=noise, n_train=n_train, n_test=n_test, domain=domain,
                       replicates=replicates, seed=seed, predictors=doc.get("predictors", ["ok"]))
