"""What ``gpkrige verify`` can and cannot see: a fault matrix.

Each case injects one fault into the engine's own bindings (or into the
kernel profile that engine and oracle share) by monkeypatch, runs
``verify`` on one of two fixed inputs, and asserts the exit code and the
exact set of rows that fail.  The inputs:

* ``noisy``: the benchmark's verify kind, 300 random points on the unit
  square, Matern-5/2 with lengthscale 0.25, noise variance 1e-4, ``uk`` with
  a degree-1 basis and a 3 x 3 grid; ``interpolation`` is skipped there;
* ``noise-free``: 60 random points, the same kernel and model, noise 0;
* ``noisy-prior``: the noisy data with ``gpr-basis`` and a Gaussian prior
  on the three coefficients, mean (0.5, -1, 1) and covariance
  diag(1, 2, 0.5).

A fault that no row catches is a recorded gap: its case asserts that
nothing fails, and the change that closes the gap flips the assertion.
Run with ``-s`` to print the matrix, one ``[fault-matrix]`` line per case.
"""

import contextlib
import dataclasses
import io

import numpy as np
import pytest

from gpkrige import kernels, kriging
from gpkrige.cli import main
from gpkrige.kernels import _rowdot
from test_cli import write_config, write_csv

TREND_ROWS = frozenset({"uk_vs_sk_plus_gls_beta", "gpr_basis_vs_uk"})
ROUTE_ROWS = TREND_ROWS | {"ok_vs_sk_plus_gls", "gpr_vs_sk"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The (data, config) paths of the two inputs, keyed by name."""
    tmp = tmp_path_factory.mktemp("faults")
    rng = np.random.default_rng(20261020)
    x = rng.random((300, 2))
    y = np.sin(6.0 * x[:, 0]) + np.cos(4.0 * x[:, 1]) + 0.01 * rng.standard_normal(300)
    noisy = (x, y, 1e-4)
    x = rng.random((60, 2))
    noise_free = (x, np.sin(6.0 * (x[:, 0] + x[:, 1])), 0.0)
    basis = {"type": "basis", "basis": "polynomial", "degree": 1}
    prior = {**basis, "prior_mean": [0.5, -1.0, 1.0],
             "prior_cov": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.5]]}
    paths = {}
    for name, (x, y, noise), variant, mean in (("noisy", noisy, "uk", basis),
                                               ("noise-free", noise_free, "uk", basis),
                                               ("noisy-prior", noisy, "gpr-basis", prior)):
        data, config = tmp / f"{name}.csv", tmp / f"{name}.json"
        write_csv(data, x, y)
        write_config(config, {"variant": variant,
                              "kernel": {"family": "matern52", "variance": 1.0,
                                         "lengthscales": [0.25]},
                              "mean": mean, "noise_variance": noise})
        paths[name] = (str(data), str(config))
    return paths


def no_fault(monkeypatch):
    pass


def profile_lag(monkeypatch):
    # the Matern-5/2 profile at 1.001 u, shared by the engine and every route
    profile = kernels.KERNEL_FAMILIES["matern52"]
    monkeypatch.setitem(kernels.KERNEL_FAMILIES, "matern52", lambda u: profile(1.001 * u))


def s_diagonal(monkeypatch):
    # the noise on the engine's S diagonal x1.001, plus 1e-9
    cov = kriging._observation_cov
    monkeypatch.setattr(kriging, "_observation_cov",
                        lambda kernel, x, noise: cov(kernel, x, noise * 1.001 + 1e-9))


def k_star(monkeypatch):
    # the engine's K* x(1 + 1e-6)
    kernel_matrix = kriging.kernel_matrix
    monkeypatch.setattr(kriging, "kernel_matrix",
                        lambda *args: kernel_matrix(*args) * (1.0 + 1e-6))


def variance_trend_term(monkeypatch):
    # the engine's variance loses 1e-3 of Gamma G^-1 Gamma^T
    predict = kriging._Engine.predict

    def faulty(self, variant, mean=None):
        batch = predict(self, variant, mean)
        return dataclasses.replace(batch, variance=batch.variance
                                   - 1e-3 * _rowdot(batch.gamma, batch.h))

    monkeypatch.setattr(kriging._Engine, "predict", faulty)


def known_mean_shift(monkeypatch):
    # the engine's known-mean predictions + 1e-6
    predict = kriging._Engine.predict

    def faulty(self, variant, mean=None):
        batch = predict(self, variant, mean)
        if variant in ("sk", "gpr"):
            return dataclasses.replace(batch, mean=batch.mean + 1e-6)
        return batch

    monkeypatch.setattr(kriging._Engine, "predict", faulty)


def dropped_basis_column(monkeypatch):
    # the engine's basis M and F* lose their last column when p >= 2
    basis_matrix = kriging.basis_matrix

    def faulty(mean, x):
        m = basis_matrix(mean, x)
        return m[:, :-1] if m.shape[1] >= 2 else m

    monkeypatch.setattr(kriging, "basis_matrix", faulty)


def prior_ignored(monkeypatch):
    # the engine fits gpr-basis as uk, without the coefficient prior
    variant_mean = kriging._variant_mean
    monkeypatch.setattr(kriging, "_variant_mean", lambda variant, mean: variant_mean(
        "uk" if variant == "gpr-basis" else variant, mean))


# (fault, input, exit code, failing rows)
MATRIX = [
    (no_fault, "noisy", 0, set()),
    (no_fault, "noise-free", 0, set()),
    (no_fault, "noisy-prior", 0, set()),
    # a gap: both sides read the one profile, so no row can see it;
    # ROADMAP item 19B's gram_vs_bessel row is to catch it
    (profile_lag, "noisy", 0, set()),
    (profile_lag, "noise-free", 0, set()),
    (s_diagonal, "noisy", 5, ROUTE_ROWS),
    # the 1e-9 nugget also moves OK off the data, by 2.5e-8 relative
    (s_diagonal, "noise-free", 5, ROUTE_ROWS | {"interpolation"}),
    (k_star, "noisy", 5, ROUTE_ROWS),
    # at the data points the variance comes out -2e-6: the engine's clamp
    # stops the run (exit 3) before any row prints
    (k_star, "noise-free", 3, set()),
    # gpr_vs_sk conditions on a known mean, where p = 0 and the term is empty
    (variance_trend_term, "noisy", 5, ROUTE_ROWS - {"gpr_vs_sk"}),
    (variance_trend_term, "noise-free", 5, ROUTE_ROWS - {"gpr_vs_sk"}),
    (known_mean_shift, "noisy", 5, {"gpr_vs_sk"}),
    (known_mean_shift, "noise-free", 5, {"gpr_vs_sk"}),
    # the oracle builds M and F* with its own basis_matrix, so both trend
    # rows see the engine's narrower trend; on a prior-bearing input the
    # fault crashes on the prior's shapes, so it runs on the uk inputs only
    (dropped_basis_column, "noisy", 5, TREND_ROWS),
    (dropped_basis_column, "noise-free", 5, TREND_ROWS),
    # a gap: every row strips the prior, so none reads the configured fit;
    # ROADMAP item 14's gpr_prior_vs_marginal_sk row is to catch it
    (prior_ignored, "noisy-prior", 0, set()),
]


@pytest.mark.parametrize("fault, name, code, failing", MATRIX,
                         ids=[f"{fault.__name__}-{name}" for fault, name, _, _ in MATRIX])
def test_fault_fails_exactly_its_rows(inputs, monkeypatch, fault, name, code, failing):
    data, config = inputs[name]
    fault(monkeypatch)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = main(["verify", "--data", data, "--config", config,
                    "--grid", "0:1:3", "--grid", "0:1:3"])
    status = {line.split()[0]: line.split()[-1] for line in out.getvalue().splitlines()}
    failed = {row for row, verdict in status.items() if verdict == "fail"}
    print(f"\n[fault-matrix] {fault.__name__} on {name}: exit {got}, failing: "
          f"{', '.join(sorted(failed)) or 'none'}")
    assert got == code, err.getvalue()
    assert failed == failing
    if code == 3:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("numerical error: error variance")
    else:
        assert set(status) == ROUTE_ROWS | {"interpolation"}
