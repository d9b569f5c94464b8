"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance below is pinned; the equivalence criteria exercise pairs of
independently implemented solution paths, and the study criteria are
property-based Monte-Carlo checks with fixed seeds.
"""

import json
import time

import numpy as np
import pytest

from gpkrige import (
    Dataset,
    KernelSpec,
    MeanSpec,
    StudyConfig,
    build_gram,
    gls_beta,
    gpr_predict,
    gpr_predict_basis,
    kernel_matrix,
    ls_predict,
    ordinary_krige,
    predict_points,
    run_study,
    sample_field,
    simple_krige,
    universal_krige,
)
from gpkrige.cli import main as cli_main
from gpkrige.oracle import (
    gls_constant,
    joint_prior,
    sk_with_plugin_mean,
)
from helpers import random_instance

ZERO_MEAN = MeanSpec.known_constant(0.0)
ONE_BASIS = MeanSpec.basis([lambda x: 1.0])


def report(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert passed, line


def rel(a, b):
    return abs(a - b) / max(1.0, abs(a))


@pytest.fixture(scope="module")
def instances():
    """100 random well-conditioned noise-free instances, n in [2,50], d in [1,3]."""
    rng = np.random.default_rng(2024)
    return [random_instance(rng) for _ in range(100)]


def test_criterion_01_ok_path_equivalence(instances):
    worst = 0.0
    for data, kernel, xstar in instances:
        a = ordinary_krige(data, kernel, xstar)
        c = sk_with_plugin_mean(data, kernel, MeanSpec.constant_unknown(), xstar)
        worst = max(worst, rel(a.mean, c.mean), rel(a.error_variance, c.error_variance))
    report("criterion 1 OK path equivalence (100 instances)", worst <= 1e-10,
           f"max relative deviation {worst:.3e} <= 1e-10")


def test_criterion_02_uk_reduces_to_ok(instances):
    worst = 0.0
    for data, kernel, xstar in instances:
        uk = universal_krige(data, kernel, ONE_BASIS, xstar)
        ok = ordinary_krige(data, kernel, xstar)
        worst = max(worst, rel(ok.mean, uk.mean),
                    rel(ok.error_variance, uk.error_variance))
    report("criterion 2 UK(p=1) reduces to OK", worst <= 1e-10,
           f"max relative deviation {worst:.3e} <= 1e-10")


def test_criterion_03_gpr_equals_sk():
    rng = np.random.default_rng(2025)
    worst = 0.0
    for i in range(50):
        noise = 0.0 if i % 2 == 0 else 0.1
        data, kernel, xstar = random_instance(rng, n=int(rng.integers(2, 31)),
                                              noise=noise)
        post = gpr_predict(data, kernel, ZERO_MEAN, [xstar])
        sk = simple_krige(data, kernel, ZERO_MEAN, xstar)
        worst = max(worst, abs(post.mean[0] - sk.mean),
                    abs(post.variance[0] - sk.error_variance))
    report("criterion 3 GPR equals SK (50 instances, with/without noise)",
           worst <= 1e-9, f"max absolute deviation {worst:.3e} <= 1e-9")


def _basis_for(p, dim):
    fns = [lambda x: 1.0]
    if p >= 2:
        fns.append(lambda x: x[0])
    if p >= 3:
        fns.append((lambda x: x[1]) if dim >= 2 else (lambda x: x[0] ** 2))
    return MeanSpec.basis(fns[:p])


def test_criterion_04_gpr_basis_equals_uk():
    rng = np.random.default_rng(2026)
    worst = 0.0
    worst_prior = 0.0
    for i in range(50):
        p = 1 + i % 3
        data, kernel, xstar = random_instance(rng, n=int(rng.integers(p + 2, 25)))
        basis = _basis_for(p, data.dim)
        post = gpr_predict_basis(data, kernel, basis, [xstar])
        uk = universal_krige(data, kernel, basis, xstar)
        worst = max(worst, rel(uk.mean, post.mean[0]),
                    rel(uk.error_variance, post.variance[0]))
        # noninformative result must not depend on the prior mean
        shifted = MeanSpec.basis(basis.functions,
                                 prior_mean=rng.normal(size=p, scale=10.0))
        alt = gpr_predict_basis(data, kernel, shifted, [xstar])
        worst_prior = max(worst_prior, abs(alt.mean[0] - post.mean[0]),
                          abs(alt.variance[0] - post.variance[0]))
    passed = worst <= 1e-8 and worst_prior <= 1e-12
    report("criterion 4 noninformative GPR-basis equals UK (p in 1..3)", passed,
           f"max deviation {worst:.3e} <= 1e-8, prior-mean effect {worst_prior:.3e}")


def _objective(lams, gram, kstar, sigma_star2):
    quad = np.einsum("ij,jk,ik->i", lams, gram, lams)
    return quad + sigma_star2 - 2.0 * lams @ kstar


def test_criterion_05_blup_optimality(instances):
    rng = np.random.default_rng(2027)
    small = [inst for inst in instances if inst[0].n <= 4]
    small += [random_instance(rng, n=int(rng.integers(2, 5))) for _ in range(10)]
    worst_gap = 0.0
    for data, kernel, xstar in small:
        gram = build_gram(kernel, data.x, 0.0)
        kstar = kernel_matrix(kernel, data.x, [xstar])[:, 0]
        n = data.n

        cand = rng.normal(size=(1000, n), scale=2.0)
        sk = simple_krige(data, kernel, ZERO_MEAN, xstar)
        worst_gap = max(worst_gap, sk.error_variance
                        - _objective(cand, gram, kstar, kernel.variance).min())

        cand_ok = cand + (1.0 - cand.sum(axis=1))[:, None] / n
        ok = ordinary_krige(data, kernel, xstar)
        worst_gap = max(worst_gap, ok.error_variance
                        - _objective(cand_ok, gram, kstar, kernel.variance).min())

        if n >= 3:
            m = np.hstack([np.ones((n, 1)), data.x[:, :1]])
            fstar = np.array([1.0, xstar[0]])
            proj = m @ np.linalg.solve(m.T @ m, m.T @ cand.T - fstar[:, None])
            cand_uk = cand - proj.T
            mean = MeanSpec.basis([lambda x: 1.0, lambda x: x[0]])
            uk = universal_krige(data, kernel, mean, xstar)
            worst_gap = max(worst_gap, uk.error_variance
                            - _objective(cand_uk, gram, kstar, kernel.variance).min())
    report(f"criterion 5 BLUP optimality ({len(small)} small instances, "
           "1000 feasible weights each)", worst_gap <= 1e-9,
           f"max improvement over returned variance {worst_gap:.3e} <= 1e-9")


def test_criterion_06_exact_interpolation():
    rng = np.random.default_rng(2028)
    worst_mean = 0.0
    worst_var = 0.0
    for _ in range(20):
        # n >= 5 so the degree-1 polynomial basis fits in up to 3 dimensions
        data, kernel, _ = random_instance(rng, n=int(rng.integers(5, 12)))
        basis = MeanSpec.polynomial(data.dim, 1)
        for i in range(data.n):
            xi, yi = data.x[i], data.y[i]
            preds = [
                simple_krige(data, kernel, ZERO_MEAN, xi),
                ordinary_krige(data, kernel, xi),
                sk_with_plugin_mean(data, kernel, MeanSpec.constant_unknown(), xi),
                universal_krige(data, kernel, basis, xi),
                sk_with_plugin_mean(data, kernel, basis, xi),
            ]
            post = gpr_predict(data, kernel, ZERO_MEAN, [xi])
            post_b = gpr_predict_basis(data, kernel, basis, [xi])
            values = ([(p.mean, p.error_variance) for p in preds]
                      + [(post.mean[0], post.variance[0]),
                         (post_b.mean[0], post_b.variance[0])])
            for mean, var in values:
                worst_mean = max(worst_mean, abs(mean - yi))
                worst_var = max(worst_var, var)
    passed = worst_mean <= 1e-8 and worst_var <= 1e-8
    report("criterion 6 exact interpolation at training points (all variants)",
           passed, f"max |mean - y| {worst_mean:.3e}, max variance {worst_var:.3e}")


def test_criterion_07_variance_structure(instances):
    worst_identity = 0.0
    min_extra = np.inf
    min_uk_gap = np.inf
    usable = [inst for inst in instances if inst[0].n >= inst[0].dim + 2]
    for data, kernel, xstar in usable[:50]:
        gram = build_gram(kernel, data.x, 0.0)
        kstar = kernel_matrix(kernel, data.x, [xstar])[:, 0]
        s = np.linalg.solve(gram, kstar)
        w = np.linalg.solve(gram, np.ones(data.n))
        extra = (1.0 - s.sum()) ** 2 / w.sum()

        sk = simple_krige(data, kernel, ZERO_MEAN, xstar)
        ok = ordinary_krige(data, kernel, xstar)
        worst_identity = max(
            worst_identity, abs((ok.error_variance - sk.error_variance) - extra)
        )
        min_extra = min(min_extra, ok.error_variance - sk.error_variance)

        uk = universal_krige(data, kernel, MeanSpec.polynomial(data.dim, 1), xstar)
        min_uk_gap = min(min_uk_gap, uk.error_variance - sk.error_variance)
    passed = worst_identity <= 1e-9 and min_extra >= -1e-9 and min_uk_gap >= -1e-9
    report("criterion 7 variance structure (OK = SK + inflation, UK >= SK)",
           passed, f"identity deviation {worst_identity:.3e}, "
           f"min OK-SK {min_extra:.3e}, min UK-SK {min_uk_gap:.3e}")


def test_criterion_08_degenerate_reductions():
    rng = np.random.default_rng(2029)
    white = KernelSpec("white_noise_only", 1.0, (1.0,))
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 12))
        x = rng.uniform(0.0, 10.0, (n, 1))
        data = Dataset(x, rng.normal(size=n))
        ybar = data.y.mean()
        ok = ordinary_krige(data, white, rng.uniform(0, 10, 1))
        worst = max(worst, abs(ok.mean - ybar), abs(gls_constant(data, white) - ybar))

        mean = MeanSpec.polynomial(1, 1)
        beta_gls = gls_beta(data, white, mean)
        xstar = rng.uniform(0, 10, 1)
        ls_value = ls_predict(data, mean, xstar)
        gls_value = beta_gls[0] + beta_gls[1] * xstar[0]
        worst = max(worst, abs(ls_value - gls_value))
    report("criterion 8 degenerate reductions under white-noise kernel",
           worst <= 1e-10, f"max deviation {worst:.3e} <= 1e-10")


def test_criterion_09_study_ok_beats_ls():
    cfg = StudyConfig(
        kernel=KernelSpec("squared_exponential", 1.0, (0.2,)),
        true_mean=MeanSpec.known_constant(5.0),
        noise_variance=0.01,
        n_train=30,
        n_test=20,
        domain=((0.0, 1.0),),
        replicates=100,
        seed=31415,
        predictors=("ls", "ok"),
    )
    start = time.monotonic()
    rep = run_study(cfg)
    elapsed = time.monotonic() - start
    ls = np.array(rep.predictors["ls"].mse_replicates)
    ok = np.array(rep.predictors["ok"].mse_replicates)
    wins = int((ok <= ls).sum())
    passed = wins >= 95 and elapsed <= 30.0
    report("criterion 9 OK beats LS(mean) under correlated truth", passed,
           f"OK <= LS in {wins}/100 replicates (need >= 95), {elapsed:.1f}s <= 30s")


def test_criterion_10_gpr_calibration():
    cfg = StudyConfig(
        kernel=KernelSpec("squared_exponential", 1.0, (0.2,)),
        true_mean=MeanSpec.known_constant(5.0),
        noise_variance=0.01,
        n_train=30,
        n_test=20,
        domain=((0.0, 1.0),),
        replicates=100,
        seed=27182,
        predictors=("gpr",),
    )
    rep = run_study(cfg)
    coverage = rep.predictors["gpr"].coverage_95
    total = cfg.replicates * cfg.n_test
    passed = total >= 2000 and 0.90 <= coverage <= 0.99
    report("criterion 10 matched-model GPR 95% interval calibration", passed,
           f"coverage {coverage:.4f} in [0.90, 0.99] over {total} predictions")


def test_criterion_11_cli_round_trip(tmp_path):
    kernel = KernelSpec("exponential", 1.0, (0.3,))
    rng = np.random.default_rng(71)
    x = rng.uniform(0.0, 1.0, (20, 1))
    y = sample_field(kernel, MeanSpec.known_constant(5.0), x, 0.0, rng)
    data_path = tmp_path / "data.csv"
    with open(data_path, "w") as fh:
        fh.write("x1,y\n")
        for xi, yi in zip(x[:, 0], y):
            fh.write(f"{float(xi)!r},{float(yi)!r}\n")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "variant": "ok",
        "kernel": {"family": "exponential", "variance": 1.0, "lengthscales": [0.3]},
        "mean": {"type": "constant_unknown"},
        "noise_variance": 0.0,
    }))

    verify_code = cli_main(["verify", "--data", str(data_path),
                            "--config", str(config_path), "--grid", "0.05:0.95:7"])

    out_path = tmp_path / "pred.csv"
    cli_main(["predict", "--data", str(data_path), "--config", str(config_path),
              "--grid", "0:1:11", "--out", str(out_path)])
    dataset = Dataset(x, y, 0.0)
    exact = True
    rows = out_path.read_text().strip().splitlines()[1:]
    for row in rows:
        fields = row.split(",")
        lib = ordinary_krige(dataset, kernel, [float(fields[0])])
        # shortest round-trip decimals must reparse to the library floats
        exact = exact and float(fields[1]) == lib.mean
        exact = exact and float(fields[2]) == lib.error_variance

    study_path = tmp_path / "study.json"
    study_path.write_text(json.dumps({
        "kernel": {"family": "squared_exponential", "variance": 1.0,
                   "lengthscales": [0.2]},
        "true_mean": {"type": "known", "constant": 5.0},
        "noise_variance": 0.01,
        "n_train": 10, "n_test": 5,
        "domain": [[0.0, 1.0]],
        "replicates": 3, "seed": 8,
        "predictors": ["ls", "ok"],
    }))
    rep1, rep2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cli_main(["study", "--config", str(study_path), "--out", str(rep1)])
    cli_main(["study", "--config", str(study_path), "--out", str(rep2)])
    identical = rep1.read_bytes() == rep2.read_bytes()

    passed = verify_code == 0 and exact and identical
    report("criterion 11 CLI round-trip (verify, full-precision predict, "
           "deterministic study)", passed,
           f"verify exit {verify_code}, exact={exact}, byte-identical={identical}")


def _residual_covariance(data, kernel, xs, records):
    """A C A^T with A = [-Lam^T | I]: the covariance of Z(X*) - Lam^T Y under the prior."""
    _, joint = joint_prior(data, kernel, ZERO_MEAN, xs)
    lam_t = np.array([r.weights.lam for r in records])
    a = np.hstack([-lam_t, np.eye(len(records))])
    return a @ joint @ a.T


def test_criterion_12_conditioning_by_kriging(instances):
    # conditioning by Kriging subtracts the Kriged field, a linear map of the
    # joint draw; pushed through the joint prior it must give the posterior
    # covariance: SK weights give gpr's, UK weights the noninformative gpr-basis'
    rng = np.random.default_rng(2027)
    worst_sk = worst_uk = 0.0
    for i, (data, kernel, xstar) in enumerate(instances):
        xs = np.vstack([xstar, rng.uniform(data.x.min(axis=0), data.x.max(axis=0),
                                           (2, data.dim)), data.x[:1]])
        basis = _basis_for(min(1 + i % 3, data.n - 1), data.dim)
        pairs = (
            (predict_points(data, kernel, xs, "sk", ZERO_MEAN),
             gpr_predict(data, kernel, ZERO_MEAN, xs).covariance),
            (predict_points(data, kernel, xs, "uk", basis),
             gpr_predict_basis(data, kernel, basis, xs).covariance),
        )
        sk_dev, uk_dev = (
            np.abs(_residual_covariance(data, kernel, xs, records) - cov).max()
            / max(1.0, np.abs(cov).max())
            for records, cov in pairs
        )
        worst_sk, worst_uk = max(worst_sk, sk_dev), max(worst_uk, uk_dev)
    passed = worst_sk <= 1e-8 and worst_uk <= 1e-8
    report("criterion 12 conditioning by Kriging reproduces the GP posterior covariance",
           passed, f"max deviation SK/gpr {worst_sk:.3e}, UK/gpr-basis {worst_uk:.3e} <= 1e-8")
