"""CLI commands: predict, variogram, study, verify, and their exit codes."""

import dataclasses
import json

import numpy as np
import pytest

from gpkrige import (
    Dataset,
    KernelSpec,
    MeanSpec,
    ordinary_krige,
    sample_field,
    semivariogram_of,
    simple_krige,
)
from gpkrige import kriging, linalg, oracle
from gpkrige.cli import main

SE_CONFIG = {
    "variant": "ok",
    "kernel": {"family": "squared_exponential", "variance": 1.0, "lengthscales": [1.0]},
    "mean": {"type": "constant_unknown"},
    "noise_variance": 0.0,
}


POLY_MEAN = {"type": "basis", "basis": "polynomial", "degree": 1}
MALFORMED_CONFIGS = {
    "constant-string": {**SE_CONFIG, "variant": "sk",
                        "mean": {"type": "known", "constant": "abc"}},
    "constant-null": {**SE_CONFIG, "variant": "sk",
                      "mean": {"type": "known", "constant": None}},
    "constant-nan": {**SE_CONFIG, "variant": "sk",
                     "mean": {"type": "known", "constant": float("nan")}},
    "degree-string": {**SE_CONFIG, "variant": "uk", "mean": {**POLY_MEAN, "degree": "one"}},
    "coefficients-string": {**SE_CONFIG, "variant": "sk",
                            "mean": {**POLY_MEAN, "coefficients": ["a", 1]}},
    "coefficients-nan": {**SE_CONFIG, "variant": "sk",
                         "mean": {**POLY_MEAN, "coefficients": [float("nan"), 1]}},
    "prior-cov-string": {**SE_CONFIG, "variant": "gpr-basis",
                         "mean": {**POLY_MEAN, "prior_cov": [[1.0, "x"], [0.0, 1.0]]}},
    "dimension-string": {**SE_CONFIG, "kernel": {**SE_CONFIG["kernel"], "dimension": "two"}},
    "dimension-zero": {**SE_CONFIG, "kernel": {**SE_CONFIG["kernel"], "dimension": 0}},
    "variance-inf": {**SE_CONFIG, "kernel": {**SE_CONFIG["kernel"], "variance": float("inf")}},
    "lengthscales-inf": {**SE_CONFIG,
                         "kernel": {**SE_CONFIG["kernel"], "lengthscales": [float("inf")]}},
    "noise-inf": {**SE_CONFIG, "noise_variance": float("inf")},
    "max-jitter-string": {**SE_CONFIG, "max_jitter": "abc"},
    "config-array": [SE_CONFIG],
}


def write_csv(path, x, y):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    header = [f"x{i + 1}" for i in range(x.shape[1])] + ["y"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row, yi in zip(x, y):
            fh.write(",".join(repr(float(v)) for v in row) + f",{float(yi)!r}\n")


def write_config(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def read_rows(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


@pytest.fixture
def demo(tmp_path):
    data = tmp_path / "data.csv"
    config = tmp_path / "config.json"
    write_csv(data, [0.0, 1.0], [1.0, 2.0])
    write_config(config, SE_CONFIG)
    return tmp_path, str(data), str(config)


class TestPredict:
    def test_two_point_symmetric_example(self, demo):
        tmp, data, config = demo
        out = tmp / "out.csv"
        code = main(["predict", "--data", data, "--config", config,
                     "--grid", "0.5:0.5:1", "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["x1", "mean", "error_variance"]
        assert rows[0][0] == "0.5"
        assert float(rows[0][1]) == pytest.approx(1.5, abs=1e-12)
        lib = ordinary_krige(Dataset([0.0, 1.0], [1.0, 2.0]),
                             KernelSpec("squared_exponential", 1.0, (1.0,)), [0.5])
        assert float(rows[0][2]) == lib.error_variance  # exact round-trip

    def test_sk_at_training_point(self, tmp_path):
        data = tmp_path / "d.csv"
        config = tmp_path / "c.json"
        write_csv(data, [0.0, 1.0], [1.5, -0.5])
        write_config(config, {**SE_CONFIG, "variant": "sk",
                              "mean": {"type": "known", "constant": 0.0}})
        out = tmp_path / "o.csv"
        code = main(["predict", "--data", str(data), "--config", str(config),
                     "--grid", "1:1:1", "--out", str(out)])
        assert code == 0
        _, rows = read_rows(out)
        assert float(rows[0][1]) == pytest.approx(-0.5, abs=1e-9)
        assert float(rows[0][2]) <= 1e-9

    def test_full_precision_round_trip(self, demo):
        tmp, data, config = demo
        out = tmp / "out.csv"
        main(["predict", "--data", data, "--config", config,
              "--grid", "0:2:7", "--out", str(out)])
        _, rows = read_rows(out)
        dataset = Dataset([0.0, 1.0], [1.0, 2.0])
        kernel = KernelSpec("squared_exponential", 1.0, (1.0,))
        for row in rows:
            lib = ordinary_krige(dataset, kernel, [float(row[0])])
            assert float(row[1]) == lib.mean
            assert float(row[2]) == lib.error_variance

    def test_malformed_row_cites_line(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("x1,y\n0.0,1.0\noops,2.0\n")
        config = tmp_path / "c.json"
        write_config(config, SE_CONFIG)
        code = main(["predict", "--data", str(data), "--config", str(config),
                     "--grid", "0:1:2"])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_bad_variant_exits_2(self, demo):
        tmp, data, config = demo
        bad = tmp / "bad.json"
        write_config(bad, {**SE_CONFIG, "variant": "cokriging"})
        assert main(["predict", "--data", data, "--config", str(bad),
                     "--grid", "0:1:2"]) == 2

    @pytest.mark.parametrize("doc", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
    def test_malformed_or_nonfinite_config_exits_2(self, demo, capsys, doc):
        tmp, data, _ = demo
        bad = tmp / "bad.json"
        write_config(bad, doc)
        assert main(["predict", "--data", data, "--config", str(bad),
                     "--grid", "0:1:2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_invalid_json_exits_2(self, demo, capsys):
        tmp, data, _ = demo
        bad = tmp / "bad.json"
        bad.write_text("{not json")
        assert main(["predict", "--data", data, "--config", str(bad),
                     "--grid", "0:1:2"]) == 2

    def test_duplicate_points_exit_3(self, tmp_path):
        data = tmp_path / "dup.csv"
        config = tmp_path / "c.json"
        write_csv(data, [0.0, 0.0], [1.0, 2.0])
        write_config(config, SE_CONFIG)
        assert main(["predict", "--data", str(data), "--config", str(config),
                     "--grid", "0:1:2"]) == 3

    def test_missing_targets_exit_2(self, demo):
        _, data, config = demo
        assert main(["predict", "--data", data, "--config", config]) == 2

    def test_points_file_targets(self, demo):
        tmp, data, config = demo
        pts = tmp / "pts.csv"
        pts.write_text("x1\n0.25\n0.75\n")
        out = tmp / "o.csv"
        assert main(["predict", "--data", data, "--config", config,
                     "--points", str(pts), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 2

    def test_grid_expansion_row_major(self, tmp_path):
        data = tmp_path / "d.csv"
        config = tmp_path / "c.json"
        write_csv(data, np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.2]]),
                  [1.0, 2.0, 1.5])
        write_config(config, {**SE_CONFIG,
                              "kernel": {"family": "squared_exponential",
                                         "variance": 1.0, "lengthscales": [1.0, 1.0]}})
        out = tmp_path / "o.csv"
        code = main(["predict", "--data", str(data), "--config", str(config),
                     "--grid", "0:1:2", "--grid", "0:1:3", "--out", str(out)])
        assert code == 0
        _, rows = read_rows(out)
        coords = [(float(r[0]), float(r[1])) for r in rows]
        assert coords == [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0),
                          (1.0, 0.0), (1.0, 0.5), (1.0, 1.0)]

    def test_repeated_invocations_byte_identical(self, demo):
        tmp, data, config = demo
        out1, out2 = tmp / "a.csv", tmp / "b.csv"
        main(["predict", "--data", data, "--config", config,
              "--grid", "0:3:9", "--out", str(out1)])
        main(["predict", "--data", data, "--config", config,
              "--grid", "0:3:9", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_uk_variant_matches_library(self, tmp_path):
        from gpkrige import universal_krige

        data_vals = ([0.0, 1.0, 2.5, 4.0], [1.0, -1.0, 0.5, 2.0])
        data = tmp_path / "d.csv"
        config = tmp_path / "c.json"
        write_csv(data, *data_vals)
        write_config(config, {**SE_CONFIG, "variant": "uk",
                              "mean": {"type": "basis", "basis": "polynomial",
                                       "degree": 1}})
        out = tmp_path / "o.csv"
        assert main(["predict", "--data", str(data), "--config", str(config),
                     "--grid", "3:3:1", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        lib = universal_krige(Dataset(*data_vals),
                              KernelSpec("squared_exponential", 1.0, (1.0,)),
                              MeanSpec.polynomial(1, 1), [3.0])
        assert float(rows[0][1]) == lib.mean
        assert float(rows[0][2]) == lib.error_variance

    def test_gpr_basis_variant_matches_uk(self, tmp_path):
        from gpkrige import universal_krige

        data_vals = ([0.0, 1.0, 2.5, 4.0], [1.0, -1.0, 0.5, 2.0])
        data = tmp_path / "d.csv"
        config = tmp_path / "c.json"
        write_csv(data, *data_vals)
        write_config(config, {**SE_CONFIG, "variant": "gpr-basis",
                              "mean": {"type": "basis", "basis": "polynomial",
                                       "degree": 1}})
        out = tmp_path / "o.csv"
        assert main(["predict", "--data", str(data), "--config", str(config),
                     "--grid", "3:3:1", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        lib = universal_krige(Dataset(*data_vals),
                              KernelSpec("squared_exponential", 1.0, (1.0,)),
                              MeanSpec.polynomial(1, 1), [3.0])
        assert float(rows[0][1]) == pytest.approx(lib.mean, abs=1e-10)
        assert float(rows[0][2]) == pytest.approx(lib.error_variance, abs=1e-10)

    def test_gpr_variant_matches_sk(self, tmp_path):
        data = tmp_path / "d.csv"
        config = tmp_path / "c.json"
        write_csv(data, [0.0, 1.0, 2.5], [1.0, -1.0, 0.5])
        write_config(config, {**SE_CONFIG, "variant": "gpr",
                              "mean": {"type": "known", "constant": 0.0}})
        out = tmp_path / "o.csv"
        assert main(["predict", "--data", str(data), "--config", str(config),
                     "--grid", "0.7:0.7:1", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        sk = simple_krige(Dataset([0.0, 1.0, 2.5], [1.0, -1.0, 0.5]),
                          KernelSpec("squared_exponential", 1.0, (1.0,)),
                          MeanSpec.known_constant(0.0), [0.7])
        assert float(rows[0][1]) == pytest.approx(sk.mean, abs=1e-12)
        assert float(rows[0][2]) == pytest.approx(sk.error_variance, abs=1e-12)

    @pytest.mark.parametrize("variant, mean", [
        ("gpr", {"type": "known", "constant": 0.0}),
        ("gpr-basis", {"type": "constant_unknown"}),
    ])
    def test_gpr_jitter_warns(self, tmp_path, capsys, variant, mean):
        data = tmp_path / "dup.csv"
        config = tmp_path / "c.json"
        write_csv(data, [0.0, 0.0, 1.0], [1.0, 1.0, 2.0])
        write_config(config, {**SE_CONFIG, "variant": variant, "mean": mean,
                              "max_jitter": 1e-6})
        assert main(["predict", "--data", str(data), "--config", str(config),
                     "--grid", "0:1:3"]) == 0
        assert "jitter" in capsys.readouterr().err


class TestVariogram:
    @pytest.mark.parametrize("bins, max_lag", [("0", "1"), ("2", "0"), ("2", "-1"),
                                               ("2", "nan"), ("2", "inf"),
                                               ("64", "5e-322"), ("4", "5e-324")])
    def test_invalid_bins_or_max_lag_exit_2(self, tmp_path, capsys, bins, max_lag):
        data = tmp_path / "d.csv"
        write_csv(data, np.arange(3.0), np.arange(3.0))
        assert main(["variogram", "--data", str(data), "--bins", bins,
                     "--max-lag", max_lag]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_constant_data_gives_zero(self, tmp_path):
        data = tmp_path / "d.csv"
        write_csv(data, np.arange(5.0), np.full(5, 2.0))
        out = tmp_path / "v.csv"
        assert main(["variogram", "--data", str(data), "--bins", "3",
                     "--max-lag", "4.5", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        for row in rows:
            if int(row[1]) > 0:
                assert float(row[2]) == 0.0

    def test_two_points_definitional(self, tmp_path):
        data = tmp_path / "d.csv"
        write_csv(data, [0.0, 1.0], [1.0, 4.0])
        out = tmp_path / "v.csv"
        assert main(["variogram", "--data", str(data), "--bins", "1",
                     "--max-lag", "2", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert int(rows[0][1]) == 1
        assert float(rows[0][2]) == pytest.approx(4.5)

    def test_empty_bins_emit_empty_field(self, tmp_path):
        data = tmp_path / "d.csv"
        write_csv(data, [0.0, 10.0], [0.0, 1.0])
        out = tmp_path / "v.csv"
        main(["variogram", "--data", str(data), "--bins", "4",
              "--max-lag", "20", "--out", str(out)])
        _, rows = read_rows(out)
        empties = [row for row in rows if int(row[1]) == 0]
        assert empties and all(row[2] == "" for row in empties)

    def test_model_column_matches_library(self, tmp_path):
        data = tmp_path / "d.csv"
        config = tmp_path / "c.json"
        rng = np.random.default_rng(60)
        write_csv(data, rng.uniform(0, 3, 8), rng.normal(size=8))
        write_config(config, SE_CONFIG)
        out = tmp_path / "v.csv"
        assert main(["variogram", "--data", str(data), "--bins", "4",
                     "--max-lag", "3", "--config", str(config),
                     "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header[-1] == "model_semivariance"
        kernel = KernelSpec("squared_exponential", 1.0, (1.0,))
        for row in rows:
            assert float(row[3]) == semivariogram_of(kernel, float(row[0]))


class TestStudy:
    STUDY = {
        "kernel": {"family": "squared_exponential", "variance": 1.0,
                   "lengthscales": [0.2]},
        "true_mean": {"type": "known", "constant": 5.0},
        "noise_variance": 0.01,
        "n_train": 10,
        "n_test": 5,
        "domain": [[0.0, 1.0]],
        "replicates": 2,
        "seed": 77,
        "predictors": ["ls", "ok"],
    }

    def test_minimal_config_valid_report(self, tmp_path):
        config = tmp_path / "s.json"
        write_config(config, {**self.STUDY, "replicates": 1})
        out = tmp_path / "r.json"
        assert main(["study", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["replicates"] == 1
        assert set(report["predictors"]) == {"ls", "ok"}

    def test_byte_identical_reports(self, tmp_path):
        config = tmp_path / "s.json"
        write_config(config, self.STUDY)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["study", "--config", str(config), "--out", str(out1)])
        main(["study", "--config", str(config), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_report(self, tmp_path):
        config = tmp_path / "s.json"
        write_config(config, self.STUDY)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["study", "--config", str(config), "--out", str(out1)])
        main(["study", "--config", str(config), "--seed", "78", "--out", str(out2)])
        a, b = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert a != b and b["seed"] == 78

    def test_bad_config_exit_2(self, tmp_path):
        config = tmp_path / "s.json"
        write_config(config, {**self.STUDY, "predictors": ["nope"]})
        assert main(["study", "--config", str(config)]) == 2

    @pytest.mark.parametrize("seed, override", [(-3, []), (77, ["--seed", "-3"])])
    def test_negative_seed_exits_2(self, tmp_path, capsys, seed, override):
        config = tmp_path / "s.json"
        write_config(config, {**self.STUDY, "seed": seed})
        assert main(["study", "--config", str(config), *override]) == 2
        assert "seed must be at least 0" in capsys.readouterr().err

    def test_seed_override_of_non_object_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "s.json"
        write_config(config, [self.STUDY])
        assert main(["study", "--config", str(config), "--seed", "3"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_total_failure_exit_4(self, tmp_path):
        config = tmp_path / "s.json"
        write_config(config, {
            **self.STUDY,
            "kernel": {"family": "squared_exponential", "variance": 0.0,
                       "lengthscales": [0.2]},
            "noise_variance": 0.0,
            "predictors": ["ok"],
        })
        assert main(["study", "--config", str(config)]) == 4


class TestVerify:
    @staticmethod
    def make_dataset(tmp_path, noise=0.0):
        kernel = KernelSpec("exponential", 1.0, (0.3,))
        rng = np.random.default_rng(61)
        x = rng.uniform(0, 1, (20, 1))
        y = sample_field(kernel, MeanSpec.known_constant(5.0), x, noise, rng)
        data = tmp_path / "d.csv"
        write_csv(data, x, y)
        config = tmp_path / "c.json"
        write_config(config, {
            "variant": "ok",
            "kernel": {"family": "exponential", "variance": 1.0,
                       "lengthscales": [0.3]},
            "mean": {"type": "constant_unknown"},
            "noise_variance": noise,
        })
        return str(data), str(config)

    def test_well_conditioned_dataset_passes(self, tmp_path, capsys):
        data, config = self.make_dataset(tmp_path)
        code = main(["verify", "--data", data, "--config", config,
                     "--grid", "0.05:0.95:7"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("pass") == 6
        assert "interpolation" in out

    def test_duplicate_points_exit_3(self, tmp_path):
        data = tmp_path / "dup.csv"
        write_csv(data, [0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
        config = tmp_path / "c.json"
        write_config(config, SE_CONFIG)
        assert main(["verify", "--data", str(data), "--config", str(config),
                     "--grid", "0:1:3"]) == 3

    def test_noisy_config_skips_interpolation(self, tmp_path, capsys):
        data, config = self.make_dataset(tmp_path, noise=0.1)
        code = main(["verify", "--data", data, "--config", config,
                     "--grid", "0.1:0.9:5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "skipped (noisy)" in out

    def test_perturbed_engine_fails_its_rows(self, tmp_path, capsys, monkeypatch):
        # every row compares the engine against a route that does not use it,
        # so a 1e-6 shift of the engine's mean must show in all of them
        engine = kriging._Engine.predict

        def perturbed(self, variant, mean=None):
            batch = engine(self, variant, mean)
            return dataclasses.replace(batch, mean=batch.mean + 1e-6)

        monkeypatch.setattr(kriging._Engine, "predict", perturbed)
        data, config = self.make_dataset(tmp_path)
        code = main(["verify", "--data", data, "--config", config,
                     "--grid", "0.05:0.95:7"])
        status = {line.split()[0]: line.split()[-1]
                  for line in capsys.readouterr().out.splitlines()}
        assert code == 5
        assert status == {name: "fail" for name in (
            "ok_vs_ok_direct", "ok_vs_sk_plus_gls", "uk_vs_sk_plus_gls_beta",
            "gpr_vs_sk", "gpr_basis_vs_uk", "interpolation")}

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_engine_target_block_built_once(self, tmp_path, capsys, monkeypatch, noise):
        # every variant reads one target stage; on noise-free data its rows
        # also hold the 20 data points, for the interpolation row
        data, config = self.make_dataset(tmp_path, noise)
        rows, block = [], kriging.kernel_matrix

        def counted(kernel, xa, xb):
            rows.append(len(xa))
            return block(kernel, xa, xb)

        monkeypatch.setattr(kriging, "kernel_matrix", counted)
        assert main(["verify", "--data", data, "--config", config,
                     "--grid", "0.05:0.95:7"]) == 0
        assert rows == [7 if noise else 7 + 20]

    def test_factorizations_do_not_grow_with_targets(self, tmp_path, capsys, monkeypatch):
        # the engine and four routes Cholesky-factor the n x n Gram once each,
        # and the bordered route LU-factors the (n + p) x (n + p) system once,
        # however many targets share the call
        data, config = self.make_dataset(tmp_path)
        n, p = 20, 2
        orders, lu_orders = [], []
        cholesky, lu_factor = linalg._try_cholesky, oracle.lu_factor

        def counted(a):
            orders.append(a.shape[0])
            return cholesky(a)

        def lu_counted(a):
            lu_orders.append(a.shape[0])
            return lu_factor(a)

        monkeypatch.setattr(linalg, "_try_cholesky", counted)
        monkeypatch.setattr(oracle, "lu_factor", lu_counted)
        full = {}
        for count in (3, 9):
            orders.clear()
            lu_orders.clear()
            assert main(["verify", "--data", data, "--config", config,
                         "--grid", f"0.05:0.95:{count}"]) == 0
            full[count] = (orders.count(n), lu_orders)
        assert full == {3: (5, [n + p]), 9: (5, [n + p])}

    def test_ill_conditioned_bordered_row_fails(self, tmp_path, capsys):
        # cond(Sigma) ~ 3e16: the engine's Cholesky/Schur answer and the dense
        # LU of the bordered system disagree, and the row must say so
        x = np.linspace(0.0, 1.0, 16)
        y = np.sin(6.0 * x) + 0.1 * np.random.default_rng(0).standard_normal(16)
        data, config = tmp_path / "d.csv", tmp_path / "c.json"
        write_csv(data, x, y)
        write_config(config, {**SE_CONFIG, "kernel": {**SE_CONFIG["kernel"],
                                                      "lengthscales": [0.3]}})
        code = main(["verify", "--data", str(data), "--config", str(config),
                     "--grid", "0:1:25"])
        status = {line.split()[0]: line.split()[-1]
                  for line in capsys.readouterr().out.splitlines()}
        assert code == 5
        assert status["gpr_basis_vs_uk"] == "fail"


@pytest.mark.parametrize("field, value", [("degree", 1.5), ("dimension", 1.5),
                                          ("n_train", 10.9), ("n_test", 5.5),
                                          ("replicates", 1.5), ("seed", 77.5)])
def test_non_integral_field_exits_2(tmp_path, capsys, field, value):
    config = tmp_path / "c.json"
    if field in TestStudy.STUDY:
        write_config(config, {**TestStudy.STUDY, field: value})
        argv = ["study", "--config", str(config)]
    else:
        model = {**SE_CONFIG, "variant": "uk", "mean": POLY_MEAN}
        part = "mean" if field == "degree" else "kernel"
        model[part] = {**model[part], field: value}
        write_config(config, model)
        data = tmp_path / "d.csv"
        write_csv(data, np.arange(5.0), np.sin(np.arange(5.0)))
        argv = ["predict", "--data", str(data), "--config", str(config), "--grid", "0:4:3"]
    assert main(argv) == 2
    assert f"{field} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["0:inf:3", "nan:1:2", "-inf:0:2"])
@pytest.mark.parametrize("command", ["predict", "verify"])
def test_non_finite_grid_bounds_exit_2(tmp_path, capsys, command, spec):
    data, config = TestVerify.make_dataset(tmp_path)
    assert main([command, "--data", data, "--config", config, f"--grid={spec}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bounds must be finite" in err
