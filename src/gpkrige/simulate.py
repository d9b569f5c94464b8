"""Random-field sampling and the desk-scale predictor comparison study.

A study draws training and test locations uniformly over a box and samples
the joint law of the noisy training observations Y and the latent field
Z(X*) at the test points, factored as p(y) p(z* | y).  The observations
are y = m(X) + L xi, with L the Cholesky factor of S = Sigma + sigma^2 I
that the replicate's Kriging engine uses anyway; the test values come from
the exact conditional, mean m(X*) + K*^T S^-1 (y - m(X)) = m(X*) + V^T xi
and covariance K** - V^T V, with V = L^-1 K* the engine's whitened target
stage, drawn through the symmetric eigendecomposition of that m x m matrix
(conditioning by Kriging).  When S does not factor or that covariance is
not positive semidefinite (noise-free data at coincident points), the
replicate falls back to :func:`sample_field`'s joint draw.
The study then fits the requested predictors, scores squared prediction
error against the latent field values at the test points, and reports for
GPR the empirical coverage of its central 95% predictive intervals.

Reproducibility: all randomness flows through NumPy's PCG64 generator; each
replicate draws from an independent stream keyed by (seed, replicate index),
so reports are identical regardless of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .exceptions import GpKrigeError, InputError, SingularityError, StudyError
from .kernels import (
    Dataset,
    KernelSpec,
    MeanSpec,
    _as_locations,
    _integer,
    _kernel_from_json,
    _kernel_to_json,
    _mean_from_json,
    _mean_to_json,
    _mean_vector,
    _nonnegative,
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
        preds = tuple(str(p).lower() for p in self.predictors)
        if not preds:
            raise InputError("at least one predictor is required")
        for p in preds:
            if p not in PREDICTORS:
                raise InputError(f"unknown predictor {p!r}; expected one of {PREDICTORS}")
        object.__setattr__(self, "predictors", preds)
        if not self.true_mean.is_identified:
            raise InputError("true_mean must have fixed parameters")
        domain = tuple((float(lo), float(hi)) for lo, hi in self.domain)
        if len(domain) != self.kernel.dim:
            raise InputError(
                f"domain has {len(domain)} dimensions, kernel has {self.kernel.dim}"
            )
        if not all(-np.inf < lo < hi < np.inf for lo, hi in domain):
            raise InputError("each domain interval needs finite lo < hi")
        object.__setattr__(self, "domain", domain)
        for name, least in (("n_train", 1), ("n_test", 1), ("replicates", 1), ("seed", 0)):
            v = _integer(getattr(self, name), name)
            if v < least:
                raise InputError(f"{name} must be at least {least}, got {v}")
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

    def to_dict(self) -> dict:
        doc = {
            "mse_mean": self.mse_mean,
            "mse_stderr": self.mse_stderr,
            "mse_replicates": list(self.mse_replicates),
            "failures": self.failures,
        }
        if self.mean_error_variance is not None:
            doc["mean_error_variance"] = self.mean_error_variance
        if self.coverage_95 is not None:
            doc["coverage_95"] = self.coverage_95
        return doc


@dataclass(frozen=True)
class StudyReport:
    replicates: int
    seed: int
    predictors: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "replicates": self.replicates,
            "seed": self.seed,
            "predictors": {k: v.to_dict() for k, v in self.predictors.items()},
        }


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
        vt = engine._targets
        deviation = _sample_zero_mean(build_gram(cfg.kernel, x_test) - vt @ vt.T, rng)
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
    z_test = _mean_vector(cfg.true_mean, x_test) + vt @ xi + deviation
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
    its mean stage.  A predictor that fails inside a replicate with a
    :class:`GpKrigeError` is recorded and skipped for that replicate; any
    other exception is a bug and propagates.  The study itself fails only
    when no replicate yields any usable result.
    """
    uk_mean = MeanSpec.polynomial(cfg.kernel.dim, 1)
    ls_mean = MeanSpec.constant_unknown()
    mse = {p: [] for p in cfg.predictors}
    variances = {p: [] for p in cfg.predictors}
    failures = {p: 0 for p in cfg.predictors}
    coverage_hits = 0
    coverage_total = 0
    usable_replicates = 0

    for rep in range(cfg.replicates):
        rng = np.random.default_rng([cfg.seed, rep])
        x_train = _draw_locations(rng, cfg.domain, cfg.n_train)
        x_test = _draw_locations(rng, cfg.domain, cfg.n_test)
        engine, z_test = _sample_replicate(cfg, x_train, x_test, rng)
        replicate_ok = False
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
                covered = np.abs(z_test - pred) <= _Z95 * np.sqrt(err_vars)
                coverage_hits += int(covered.sum())
                coverage_total += covered.size
            replicate_ok = True
        if replicate_ok:
            usable_replicates += 1

    if usable_replicates == 0:
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
            coverage_95=(
                coverage_hits / coverage_total
                if name == "gpr" and coverage_total else None
            ),
        )
    return StudyReport(replicates=cfg.replicates, seed=cfg.seed, predictors=summaries)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def study_config_to_json(cfg: StudyConfig) -> dict:
    return {
        "kernel": _kernel_to_json(cfg.kernel),
        "true_mean": _mean_to_json(cfg.true_mean),
        "noise_variance": cfg.noise_variance,
        "n_train": cfg.n_train,
        "n_test": cfg.n_test,
        "domain": [list(interval) for interval in cfg.domain],
        "replicates": cfg.replicates,
        "seed": cfg.seed,
        "predictors": list(cfg.predictors),
    }


def study_config_from_json(doc: dict) -> StudyConfig:
    if not isinstance(doc, dict):
        raise InputError("study config must be a JSON object")
    try:
        domain = doc["domain"]
        kernel = _kernel_from_json(doc["kernel"], dim=len(domain))
        return StudyConfig(
            kernel=kernel,
            true_mean=_mean_from_json(doc["true_mean"], kernel.dim),
            noise_variance=doc["noise_variance"],
            n_train=doc["n_train"],
            n_test=doc["n_test"],
            domain=tuple((float(lo), float(hi)) for lo, hi in domain),
            replicates=doc["replicates"],
            seed=doc["seed"],
            predictors=tuple(doc.get("predictors", ["ok"])),
        )
    except (KeyError, TypeError, ValueError) as err:
        if isinstance(err, InputError):
            raise
        raise InputError(f"bad study config: {err}") from err
