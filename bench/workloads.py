"""Benchmark workloads: seeded inputs, the CLI jobs of one cycle, and output checks.

Every input is generated here with numpy from the workload seed and handed
to gpkrige only as CSV/JSON files.  Each workload is a fixed cycle of CLI
jobs that covers all four commands (predict, verify, variogram, study); the
workloads differ in which of them carries the weight:

* ``predict-grid``: one fit, many targets.  All five predict variants on a
  16x16 grid from n=300 points, so the per-target Kriging loop dominates.
* ``dense-large-n``: few calls, large dense algebra.  gpr and gpr-basis at
  n=2000 with a 20x20 grid (full 400x400 posterior covariance) and a
  variogram over 3000 points.  Its verify and study jobs run on a 200-point
  subset so that they stay small beside the dense work.
* ``study-refit``: many fits, few targets.  A study with all five
  predictors, n_train=400, n_test=40 and 4 replicates, plus every predict
  variant on a 4x4 grid (one fit per job, 16 targets).

Grids and replicate counts are sized so that a 30-second run holds about
ten cycles: on a shared 2-core host the speed drifts by tens of percent
over a few seconds, and only a median over many cycles stays steady.

The reference values that the checks compare against are computed once per
run, before the timed window, from the benchmark's own kernel code and a
dense LU solve (``numpy.linalg.solve``) of the bordered Kriging system; they
share no factorization with gpkrige.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

VARIANCE = 1.0
LENGTHSCALE = 0.25
NOISE = 1e-4
KERNEL_DOC = {"family": "matern52", "variance": VARIANCE, "lengthscales": [LENGTHSCALE]}
KNOWN_MEAN = 0.0
MEAN_DOCS = {
    "sk": {"type": "known", "constant": KNOWN_MEAN},
    "gpr": {"type": "known", "constant": KNOWN_MEAN},
    "ok": {"type": "constant_unknown"},
    "uk": {"type": "basis", "basis": "polynomial", "degree": 1},
    "gpr-basis": {"type": "basis", "basis": "polynomial", "degree": 1},
}
ALL_VARIANTS = ("sk", "ok", "uk", "gpr", "gpr-basis")
STUDY_PREDICTORS = ("ls", "sk", "ok", "uk", "gpr")
VARIO_BINS = 12
VARIO_MAX_LAG = 0.8
# Random-Fourier-feature count of the synthetic Matern-5/2 field.
FIELD_FEATURES = 512


@dataclass(frozen=True)
class Shape:
    """Input sizes of one workload cycle."""

    n: int                 # training points of the predict jobs
    grid: int              # predict targets per axis (grid x grid targets)
    variants: tuple        # predict variants, one job each
    verify_n: int          # training points of the verify job (a prefix of the data)
    verify_grid: int       # verify targets per axis
    vario_n: int           # points of the variogram job
    study_train: int
    study_test: int
    study_reps: int


WORKLOADS = {
    "predict-grid": Shape(n=300, grid=16, variants=ALL_VARIANTS, verify_n=300,
                          verify_grid=3, vario_n=300,
                          study_train=100, study_test=20, study_reps=2),
    "dense-large-n": Shape(n=2000, grid=20, variants=("gpr", "gpr-basis"), verify_n=200,
                           verify_grid=3, vario_n=3000,
                           study_train=200, study_test=20, study_reps=1),
    "study-refit": Shape(n=400, grid=4, variants=ALL_VARIANTS, verify_n=400,
                         verify_grid=2, vario_n=400,
                         study_train=400, study_test=40, study_reps=4),
}


def toy(shape: Shape) -> Shape:
    """The same cycle at toy size: the warm-up pass and the smoke test."""
    return dataclasses.replace(shape, n=40, grid=4, verify_n=40, verify_grid=2,
                               vario_n=60, study_train=30,
                               study_test=5, study_reps=1)


@dataclass
class Job:
    """One CLI invocation and the check of its output."""

    command: str
    argv: list
    targets: int           # target predictions the job delivers
    out_path: Path | None
    check: Callable        # check(exit_code, tol) -> None, raises CheckFailed


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------


def _field(rng, x):
    """A smooth random field with a Matern-5/2 spectrum (random Fourier features).

    The Matern-nu spectral density is a Student-t with 2*nu degrees of
    freedom, scaled by 1/lengthscale.
    """
    dof = 5.0
    g = rng.standard_normal((FIELD_FEATURES, x.shape[1]))
    omega = g / np.sqrt(rng.chisquare(dof, (FIELD_FEATURES, 1)) / dof) / LENGTHSCALE
    phase = rng.uniform(0.0, 2.0 * math.pi, FIELD_FEATURES)
    return math.sqrt(2.0 * VARIANCE / FIELD_FEATURES) * np.cos(x @ omega.T + phase).sum(axis=1)


def _write_csv(path, x, y):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x1,x2,y\n")
        for (a, b), v in zip(x.tolist(), y.tolist()):
            fh.write(f"{a!r},{b!r},{v!r}\n")


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _grid(count):
    axis = np.linspace(0.0, 1.0, count)
    mesh = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def build_jobs(shape: Shape, seed: int, workdir: Path) -> list:
    """Write the inputs of one cycle into ``workdir`` and return its jobs."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    total = max(shape.n, shape.vario_n, shape.verify_n)
    x = rng.random((total, 2))
    y = _field(rng, x) + math.sqrt(NOISE) * rng.standard_normal(total)

    data = workdir / "data.csv"
    _write_csv(data, x[:shape.n], y[:shape.n])
    jobs = []
    grid_args = ["--grid", f"0:1:{shape.grid}", "--grid", f"0:1:{shape.grid}"]
    targets = _grid(shape.grid)
    for variant in shape.variants:
        config = workdir / f"model-{variant}.json"
        _write_json(config, {"variant": variant, "kernel": KERNEL_DOC,
                             "mean": MEAN_DOCS[variant], "noise_variance": NOISE})
        out = workdir / f"pred-{variant}.csv"
        ref = predict_reference(x[:shape.n], y[:shape.n], targets, variant)
        jobs.append(Job("predict", ["predict", "--data", str(data), "--config", str(config),
                                    *grid_args, "--out", str(out)],
                        len(targets), out, _predict_check(out, targets, ref)))

    verify_data = workdir / "verify.csv"
    _write_csv(verify_data, x[:shape.verify_n], y[:shape.verify_n])
    verify_config = workdir / "model-verify.json"
    _write_json(verify_config, {"variant": "uk", "kernel": KERNEL_DOC,
                                "mean": MEAN_DOCS["uk"], "noise_variance": NOISE})
    g = f"0:1:{shape.verify_grid}"
    jobs.append(Job("verify", ["verify", "--data", str(verify_data), "--config",
                               str(verify_config), "--grid", g, "--grid", g],
                    0, None, _verify_check))

    vario_data = workdir / "vario.csv"
    _write_csv(vario_data, x[:shape.vario_n], y[:shape.vario_n])
    vario_out = workdir / "vario.csv.out"
    vario_ref = variogram_reference(x[:shape.vario_n], y[:shape.vario_n])
    jobs.append(Job("variogram", ["variogram", "--data", str(vario_data), "--bins",
                                  str(VARIO_BINS), "--max-lag", str(VARIO_MAX_LAG),
                                  "--out", str(vario_out)],
                    0, vario_out, _variogram_check(vario_out, vario_ref)))

    study_config = workdir / "study.json"
    _write_json(study_config, {
        "kernel": KERNEL_DOC, "true_mean": MEAN_DOCS["sk"], "noise_variance": NOISE,
        "n_train": shape.study_train, "n_test": shape.study_test,
        "domain": [[0.0, 1.0], [0.0, 1.0]], "replicates": shape.study_reps,
        "seed": int(rng.integers(2**31)), "predictors": list(STUDY_PREDICTORS),
    })
    study_out = workdir / "report.json"
    jobs.append(Job("study", ["study", "--config", str(study_config), "--out", str(study_out)],
                    shape.study_test * len(STUDY_PREDICTORS) * shape.study_reps,
                    study_out, _study_check(study_out, shape.study_reps)))
    return jobs


# ---------------------------------------------------------------------------
# References, independent of gpkrige
# ---------------------------------------------------------------------------


def _matern52(xa, xb):
    sq = (xa * xa).sum(1)[:, None] + (xb * xb).sum(1)[None, :] - 2.0 * xa @ xb.T
    s = math.sqrt(5.0) * np.sqrt(np.maximum(sq, 0.0)) / LENGTHSCALE
    return VARIANCE * (1.0 + s + s * s / 3.0) * np.exp(-s)


def predict_reference(x, y, xs, variant):
    """(mean, error variance) at ``xs`` from a dense LU solve of the bordered system.

    Solves [[S, M], [M^T, 0]] [lam; nu] = [K*; F*^T] with S = K + noise*I and
    M the mean basis (empty for a known mean); the error variance is
    variance - lam.K* - nu.F*.  GPR with a known mean equals Simple Kriging
    and GPR with a basis mean equals Universal Kriging, so the same system
    serves every variant.
    """
    n = x.shape[0]
    s = _matern52(x, x)
    s[np.diag_indices(n)] = VARIANCE + NOISE
    kstar = _matern52(x, xs)
    mean_type = MEAN_DOCS[variant]["type"]
    if mean_type == "known":
        lam = np.linalg.solve(s, kstar)
        mean = KNOWN_MEAN + lam.T @ (y - KNOWN_MEAN)
        return mean, VARIANCE - (lam * kstar).sum(0)
    if mean_type == "constant_unknown":
        m, fstar = np.ones((n, 1)), np.ones((xs.shape[0], 1))
    else:
        m = np.column_stack([np.ones(n), x])
        fstar = np.column_stack([np.ones(xs.shape[0]), xs])
    p = m.shape[1]
    bordered = np.block([[s, m], [m.T, np.zeros((p, p))]])
    sol = np.linalg.solve(bordered, np.vstack([kstar, fstar.T]))
    lam, nu = sol[:n], sol[n:]
    return lam.T @ y, VARIANCE - (lam * kstar).sum(0) - (nu * fstar.T).sum(0)


def variogram_reference(x, y):
    """(pair counts, semivariances) per bin, accumulated one row of pairs at a time."""
    edges = np.linspace(0.0, VARIO_MAX_LAG, VARIO_BINS + 1)
    counts = np.zeros(VARIO_BINS, dtype=np.int64)
    sums = np.zeros(VARIO_BINS)
    for i in range(x.shape[0] - 1):
        d = x[i + 1:] - x[i]
        lag = np.sqrt((d * d).sum(1))
        keep = lag <= VARIO_MAX_LAG
        idx = np.searchsorted(edges[1:-1], lag[keep], side="right")
        counts += np.bincount(idx, minlength=VARIO_BINS)
        sums += np.bincount(idx, weights=(y[i + 1:][keep] - y[i]) ** 2, minlength=VARIO_BINS)
    with np.errstate(invalid="ignore", divide="ignore"):
        gamma = sums / (2.0 * counts)
    return counts, gamma


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _deviation(a, b):
    """The relative deviation ``verify`` uses, elementwise."""
    return np.abs(a - b) / np.maximum(1.0, np.abs(a))


def _read_table(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _require_ok(code):
    if code != 0:
        raise CheckFailed(f"exit code {code}")


def _predict_check(out, targets, ref):
    ref_mean, ref_var = ref

    def check(code, tol):
        _require_ok(code)
        header, rows = _read_table(out)
        if header[:4] != ["x1", "x2", "mean", "error_variance"] or len(rows) != len(targets):
            raise CheckFailed(f"{out.name}: unexpected header or row count")
        table = np.array([[float(v) for v in row[:4]] for row in rows])
        if np.abs(table[:, :2] - targets).max() > 1e-12:
            raise CheckFailed(f"{out.name}: target coordinates differ from the grid")
        dev = np.maximum(_deviation(table[:, 2], ref_mean), _deviation(table[:, 3], ref_var))
        bad = np.flatnonzero(~(dev <= tol))
        if bad.size:
            raise CheckFailed(f"{out.name}: row {bad[0] + 1} deviates by {dev[bad[0]]:.3e}")
    return check


def _verify_check(code, _tol):
    _require_ok(code)


def _variogram_check(out, ref):
    ref_counts, ref_gamma = ref

    def check(code, tol):
        _require_ok(code)
        header, rows = _read_table(out)
        if header[:3] != ["lag_center", "pair_count", "empirical_semivariance"] \
                or len(rows) != VARIO_BINS:
            raise CheckFailed(f"{out.name}: unexpected header or row count")
        for b, row in enumerate(rows):
            if int(row[1]) != ref_counts[b]:
                raise CheckFailed(f"{out.name}: bin {b} counts {row[1]}, expected {ref_counts[b]}")
            if ref_counts[b] and not _deviation(float(row[2]), ref_gamma[b]) <= tol:
                raise CheckFailed(f"{out.name}: bin {b} semivariance deviates")
    return check


def _study_check(out, replicates):
    def check(code, tol):
        _require_ok(code)
        with open(out, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        preds = report["predictors"]
        if set(preds) != set(STUDY_PREDICTORS):
            raise CheckFailed("study report lacks a predictor")
        if any(p["failures"] != 0 for p in preds.values()):
            raise CheckFailed("study reports predictor failures")
        sk, gpr = preds["sk"]["mse_replicates"], preds["gpr"]["mse_replicates"]
        if len(sk) != replicates or len(gpr) != replicates:
            raise CheckFailed("study report has the wrong replicate count")
        dev = max(_deviation(a, b) for a, b in zip(sk, gpr))
        if not dev <= tol:
            raise CheckFailed(f"GPR and SK mse differ by {dev:.3e}")
    return check
