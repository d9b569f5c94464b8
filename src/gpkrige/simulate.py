"""Random-field sampling and the desk-scale predictor comparison study.

A study draws training and test locations uniformly over a box, samples the
latent field jointly at all locations (exact multivariate normal through a
symmetric eigendecomposition of the covariance), observes the training
values through additive noise, fits the requested predictors, and scores
squared prediction error against the latent field values at the test
points.  GPR additionally reports the empirical coverage of its central
95% predictive intervals.

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
    _kernel_from_json,
    _kernel_to_json,
    _mean_from_json,
    _mean_to_json,
    _mean_vector,
    build_gram,
)
from .kriging import _factor_observation_cov, _fit, _predict, _variant_mean, ls_predict

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
        if any(hi <= lo for lo, hi in domain):
            raise InputError("each domain interval needs lo < hi")
        object.__setattr__(self, "domain", domain)
        for name in ("n_train", "n_test", "replicates"):
            v = int(getattr(self, name))
            if v < 1:
                raise InputError(f"{name} must be positive, got {v}")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "seed", int(self.seed))
        noise = float(self.noise_variance)
        if noise < 0.0:
            raise InputError(f"noise_variance must be nonnegative, got {noise}")
        object.__setattr__(self, "noise_variance", noise)
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


def _run_predictor(name, cfg, data, factor, x_test, z_test, uk_mean, ls_mean):
    """Returns (squared errors, error variances or None, coverage pair or None)."""
    if name == "ls":
        pred = np.full(x_test.shape[0], ls_predict(data, ls_mean, x_test[0]))
        # constant basis: one fitted value serves every test point
        return (pred - z_test) ** 2, None, None
    spec = _variant_mean(name, uk_mean if name == "uk" else cfg.true_mean)
    batch = _predict(_fit(data, cfg.kernel, spec, factor), x_test)
    sq = (batch.mean - z_test) ** 2
    if name != "gpr":
        return sq, batch.variance, None
    covered = np.abs(z_test - batch.mean) <= _Z95 * np.sqrt(batch.variance)
    return sq, batch.variance, (int(covered.sum()), covered.size)


def run_study(cfg: StudyConfig) -> StudyReport:
    """Run the replicated comparison study described by ``cfg``.

    The observation covariance is factored once per replicate and shared
    by every Kriging and GP predictor.  A predictor that fails inside a
    replicate with a :class:`GpKrigeError` is recorded and skipped for that
    replicate; any other exception is a bug and propagates.  The study
    itself fails only when no replicate yields any usable result.
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
        x_all = np.vstack([x_train, x_test])
        z_all = sample_field(cfg.kernel, cfg.true_mean, x_all, 0.0, rng)
        y_train = z_all[: cfg.n_train]
        if cfg.noise_variance > 0.0:
            y_train = y_train + np.sqrt(cfg.noise_variance) * rng.standard_normal(
                cfg.n_train
            )
        z_test = z_all[cfg.n_train:]
        data = Dataset(x_train, y_train, cfg.noise_variance)

        factor = None
        replicate_ok = False
        for name in cfg.predictors:
            try:
                if name != "ls" and factor is None:
                    factor = _factor_observation_cov(data, cfg.kernel, 0.0)
                sq, err_vars, cover = _run_predictor(
                    name, cfg, data, factor, x_test, z_test, uk_mean, ls_mean
                )
            except GpKrigeError:
                failures[name] += 1
                continue
            mse[name].append(float(np.mean(sq)))
            if err_vars is not None:
                variances[name].extend(err_vars.tolist())
            if cover is not None:
                coverage_hits += cover[0]
                coverage_total += cover[1]
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
