"""CLI commands: predict, variogram, study, verify, and their exit codes."""

import dataclasses
import json
import os
import subprocess
import sys

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
from gpkrige import cli, kernels, kriging, linalg, oracle
from gpkrige.cli import main
from helpers import counted

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
    "variance-inf": {**SE_CONFIG, "kernel": {**SE_CONFIG["kernel"], "variance": float("inf")}},
    "lengthscales-inf": {**SE_CONFIG,
                         "kernel": {**SE_CONFIG["kernel"], "lengthscales": [float("inf")]}},
    "noise-inf": {**SE_CONFIG, "noise_variance": float("inf")},
    "max-jitter-string": {**SE_CONFIG, "max_jitter": "abc"},
    "config-array": [SE_CONFIG],
    # values of the wrong JSON type: a string or a boolean for a number, a list for a name
    "family-list": {**SE_CONFIG, "kernel": {**SE_CONFIG["kernel"], "family": ["matern52"]}},
    "lengthscales-string": {**SE_CONFIG, "kernel": {**SE_CONFIG["kernel"], "lengthscales": "1"}},
    "variance-digit-groups": {**SE_CONFIG, "kernel": {**SE_CONFIG["kernel"], "variance": "1_0"}},
    "noise-string": {**SE_CONFIG, "noise_variance": "1e-4"},
    "constant-bool": {**SE_CONFIG, "variant": "sk", "mean": {"type": "known", "constant": True}},
    "degree-bool": {**SE_CONFIG, "variant": "uk", "mean": {**POLY_MEAN, "degree": True}},
    "coefficients-scalar-string": {**SE_CONFIG, "variant": "sk",
                                   "mean": {**POLY_MEAN, "degree": 0, "coefficients": "12"}},
    "max-jitter-bool": {**SE_CONFIG, "max_jitter": True},
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

    @pytest.mark.parametrize("text, line, message", [
        ("x1,y\n0.0,1.0\noops,2.0\n", 3, "could not convert string to float: 'oops'"),
        ("x1,y\n\n0.0,1.0\noops,2.0\n", 4, "could not convert string to float: 'oops'"),
        ("x1,y\n0.0,1.0\n\n\n1.0\n", 5, "expected 2 fields, got 1"),
        ("x1,y\n0.0,1.0\n\nnan,2.0\n", 4, "non-finite value"),
        ("\nx1,z\n0.0,1.0\n", 2, "header must end with a 'y' column"),
        # checked in file order: the non-finite row is reported, not the short one
        ("x1,y\n0.0,1.0\ninf,2.0\n1.0\n", 3, "non-finite value"),
        # float() alone reads 1_0 as 10
        ("x1,y\n0.0,1.0\n1_0,2.0\n", 3, "digit-group underscores are not accepted"),
    ], ids=["unparsable", "unparsable-after-blank", "short-after-two-blanks",
            "nan-after-blank", "header-after-blank", "non-finite-before-short",
            "digit-group-underscore"])
    def test_malformed_row_cites_line(self, tmp_path, capsys, text, line, message):
        data = tmp_path / "bad.csv"
        data.write_text(text)
        config = tmp_path / "c.json"
        write_config(config, SE_CONFIG)
        code = main(["predict", "--data", str(data), "--config", str(config),
                     "--grid", "0:1:2"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {data}: line {line}: {message}\n"

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

    # a key a document does not define is refused by name: each of these once
    # ran as if the key were left out, with its default
    UNKNOWN_KEYS = {
        "model": ({**SE_CONFIG, "max_jiter": 1e-3}, "model document", "max_jiter"),
        "kernel": ({**SE_CONFIG, "kernel": {**SE_CONFIG["kernel"], "nugget": 0.1}},
                   "kernel document", "nugget"),
        "basis-mean": ({**SE_CONFIG, "variant": "uk", "mean": {**POLY_MEAN, "degre": 3}},
                       "mean document", "degre"),
        "known-mean": ({**SE_CONFIG, "variant": "sk",
                        "mean": {"type": "known", "constant": 1.0, "degree": 1}},
                       "mean document", "degree"),
    }

    @pytest.mark.parametrize("command", ["predict", "verify"])
    @pytest.mark.parametrize("doc, what, key", UNKNOWN_KEYS.values(), ids=UNKNOWN_KEYS.keys())
    def test_unknown_key_exits_2(self, demo, capsys, command, doc, what, key):
        tmp, data, _ = demo
        bad = tmp / "bad.json"
        write_config(bad, doc)
        assert main([command, "--data", data, "--config", str(bad), "--grid", "0:1:2"]) == 2
        assert capsys.readouterr() == ("", f"error: {what} does not define {key!r}\n")

    # a known or constant-unknown mean reads no coefficients or prior: a
    # document carrying one is refused by name, not predicted without it
    UNREAD_MEAN_FIELDS = {
        f"{mtype}-{name}": ({"type": mtype, **extra}, variant, name, value)
        for mtype, extra, variant in (("known", {"constant": 1.0}, "sk"),
                                      ("constant_unknown", {}, "gpr-basis"))
        for name, value in (("coefficients", [1.0]), ("prior_mean", [5.0]),
                            ("prior_cov", [[1e-6]]))
    }

    @pytest.mark.parametrize("mean, variant, name, value", UNREAD_MEAN_FIELDS.values(),
                             ids=UNREAD_MEAN_FIELDS.keys())
    def test_unread_mean_field_exits_2(self, demo, capsys, mean, variant, name, value):
        tmp, data, _ = demo
        bad = tmp / "bad.json"
        write_config(bad, {**SE_CONFIG, "variant": variant, "mean": {**mean, name: value}})
        assert main(["predict", "--data", data, "--config", str(bad),
                     "--grid", "0:1:2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a ") and f" got {name};" in captured.err

    # a null where a value belongs is refused by name, not read as an absent
    # field: each of these once predicted as if the field were left out
    NULL_MEAN_FIELDS = {
        "constant-unknown-prior": ("gpr-basis", {"type": "constant_unknown",
                                                 "prior_mean": None, "prior_cov": None},
                                   "prior_mean"),
        "basis-coefficients": ("uk", {**POLY_MEAN, "coefficients": None}, "coefficients"),
        "basis-prior-cov": ("gpr-basis", {**POLY_MEAN, "prior_mean": [0.0, 0.0],
                                          "prior_cov": None}, "prior_cov"),
    }

    @pytest.mark.parametrize("command", ["predict", "verify"])
    @pytest.mark.parametrize("variant, mean, name", NULL_MEAN_FIELDS.values(),
                             ids=NULL_MEAN_FIELDS.keys())
    def test_null_mean_field_exits_2(self, demo, capsys, command, variant, mean, name):
        tmp, data, _ = demo
        bad = tmp / "bad.json"
        write_config(bad, {**SE_CONFIG, "variant": variant, "mean": mean})
        assert main([command, "--data", data, "--config", str(bad), "--grid", "0:1:2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: mean field {name!r} is null")

    def test_constant_prior_is_a_degree_0_polynomial(self, tmp_path, capsys):
        # the prior N(5, 1e-6) pins the constant near 5; an unknown constant
        # without it predicts about 0.89 at x = 3
        data, config = tmp_path / "d.csv", tmp_path / "c.json"
        write_csv(data, [0.0, 0.4, 1.1], [1.0, 2.0, 0.5])
        prior = {"prior_mean": [5.0], "prior_cov": [[1e-6]]}
        doc = {**SE_CONFIG, "variant": "gpr-basis",
               "kernel": {"family": "matern52", "variance": 1.0, "lengthscales": [0.5]}}
        outputs = []
        for mean in ({"type": "constant_unknown", **prior}, {**POLY_MEAN, "degree": 0, **prior},
                     {"type": "constant_unknown"}):
            write_config(config, {**doc, "mean": mean})
            code = main(["predict", "--data", str(data), "--config", str(config),
                         "--grid", "3:3:1"])
            outputs.append((code, *capsys.readouterr()))
        refused, pinned, free = outputs
        assert refused[:2] == (2, "") and "got prior_mean;" in refused[2]
        assert pinned[0] == free[0] == 0
        assert float(pinned[1].splitlines()[1].split(",")[1]) == pytest.approx(4.9696, abs=1e-4)
        assert float(free[1].splitlines()[1].split(",")[1]) == pytest.approx(0.8926, abs=1e-4)

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
                                               ("64", "5e-322"), ("4", "5e-324"),
                                               # 8 PB of edges, far beyond any memory
                                               ("1000000000000000", "1"),
                                               # at and beyond numpy's largest array
                                               ("1152921504606846974", "1"),
                                               ("4611686018427387904", "1"),
                                               ("9223372036854775807", "1")])
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

    def test_model_at_lags_near_the_float_max(self, tmp_path, capsys):
        # the scaled lag centers overflow; the model is the sill, silently
        data = tmp_path / "d.csv"
        config = tmp_path / "c.json"
        write_csv(data, [0.0, 1.0, 3.0], [0.0, 1.0, 3.0])
        write_config(config, {**SE_CONFIG, "kernel": {"family": "matern52", "variance": 1.0,
                                                      "lengthscales": [0.5]}})
        assert main(["variogram", "--data", str(data), "--bins", "4", "--max-lag", "1.7e308",
                     "--config", str(config)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert [row.split(",")[3] for row in out.splitlines()[1:]] == ["1.0"] * 4


    @pytest.mark.parametrize("y", [[0.0, 1e200, -1e200], [1e308, -1e308, 0.0]])
    def test_overflowing_responses_exit_2(self, tmp_path, capsys, y):
        data = tmp_path / "d.csv"
        write_csv(data, [0.0, 1.0, 3.0], y)
        assert main(["variogram", "--data", str(data), "--bins", "2", "--max-lag", "4"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: responses too large: "
                       "a sum of squared differences overflows\n")


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

    @pytest.mark.parametrize("doc, what, key", [
        ({**STUDY, "predictor": ["ok"]}, "study config", "predictor"),
        ({**STUDY, "true_mean": {"type": "known", "constant": 5.0, "degree": 1}},
         "mean document", "degree"),
    ], ids=["study", "true-mean"])
    def test_unknown_key_exits_2(self, tmp_path, capsys, doc, what, key):
        config = tmp_path / "s.json"
        write_config(config, doc)
        assert main(["study", "--config", str(config)]) == 2
        assert capsys.readouterr() == ("", f"error: {what} does not define {key!r}\n")

    @pytest.mark.parametrize("seed, override", [(-3, []), (77, ["--seed", "-3"])])
    def test_negative_seed_exits_2(self, tmp_path, capsys, seed, override):
        config = tmp_path / "s.json"
        write_config(config, {**self.STUDY, "seed": seed})
        assert main(["study", "--config", str(config), *override]) == 2
        assert "seed must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("domain", ["01"]), ("noise_variance", "0.01")],
                             ids=["domain-string-pair", "noise-string"])
    def test_non_numeric_field_exits_2(self, tmp_path, capsys, field, value):
        config = tmp_path / "s.json"
        write_config(config, {**self.STUDY, field: value})
        assert main(["study", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be numeric") and "Traceback" not in err

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

    def test_predictor_failing_every_replicate_leaves_strict_json(self, tmp_path):
        # 60 points under an SE kernel of lengthscale 2 make S singular, so ok
        # fails in both replicates while ls succeeds: its MSE fields, NaN in
        # the library report, are left out, as JSON has no NaN
        config, out = tmp_path / "s.json", tmp_path / "r.json"
        write_config(config, {
            **self.STUDY,
            "kernel": {"family": "squared_exponential", "variance": 1.0,
                       "lengthscales": [2.0]},
            "noise_variance": 0.0, "n_train": 60, "seed": 3,
        })
        assert main(["study", "--config", str(config), "--out", str(out)]) == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        report = json.loads(out.read_text(), parse_constant=refuse)
        assert report["predictors"]["ok"] == {"failures": 2, "mse_replicates": []}
        assert report["predictors"]["ls"]["failures"] == 0


# the verify rows that compare the engine with an oracle route
ROUTE_ROWS = ("ok_vs_sk_plus_gls", "uk_vs_sk_plus_gls_beta", "gpr_vs_sk", "gpr_basis_vs_uk")


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
        assert out.count("pass") == 5
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
            "ok_vs_sk_plus_gls", "uk_vs_sk_plus_gls_beta", "gpr_vs_sk", "gpr_basis_vs_uk",
            "interpolation")}

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

    @pytest.mark.parametrize("configured", [False, True])
    def test_trend_beyond_the_data(self, tmp_path, capsys, configured):
        # two 2-D points cannot fit a degree-1 trend (3 functions): the trend
        # verify assumes for an ok config is skipped, a configured one is an
        # input error, as predict makes it
        data, config = tmp_path / "d.csv", tmp_path / "c.json"
        write_csv(data, [[0.0, 0.0], [1.0, 0.5]], [1.0, 2.0])
        mean = POLY_MEAN if configured else SE_CONFIG["mean"]
        write_config(config, {**SE_CONFIG, "variant": "uk" if configured else "ok",
                              "mean": mean})
        argv = ["--data", str(data), "--config", str(config),
                "--grid", "0:1:2", "--grid", "0:1:2"]
        code = main(["verify", *argv])
        out, err = capsys.readouterr()
        if configured:
            assert (code, out, err) == (2, "", "error: 3 basis functions exceed 2 observations\n")
            assert main(["predict", *argv]) == 2
            assert capsys.readouterr().err == err
            return
        assert code == 0 and err == ""
        rows = {line.split()[0]: line.split(None, 2)[1:] for line in out.splitlines()}
        for name in ("uk_vs_sk_plus_gls_beta", "gpr_basis_vs_uk"):
            assert rows.pop(name) == ["-", "skipped (p > n)"]
        assert {status for _, status in rows.values()} == {"pass"}
        assert len(rows) == 3

    @pytest.mark.parametrize("variant", ["ok", "gpr-basis"])
    def test_configured_trend_beyond_the_data(self, tmp_path, capsys, variant):
        # a configured degree-1 basis on two 2-D points: ok does not fit it,
        # so verify skips the trend rows and exits 0, as predict does;
        # gpr-basis fits it, so both commands exit 2 with the same error, as
        # for uk in test_trend_beyond_the_data
        data, config = tmp_path / "d.csv", tmp_path / "c.json"
        write_csv(data, [[0.0, 0.0], [1.0, 0.5]], [1.0, 2.0])
        write_config(config, {**SE_CONFIG, "variant": variant, "mean": POLY_MEAN})
        argv = ["--data", str(data), "--config", str(config),
                "--grid", "0:1:2", "--grid", "0:1:2"]
        code = main(["verify", *argv])
        out, err = capsys.readouterr()
        if variant != "ok":
            assert (code, out, err) == (2, "", "error: 3 basis functions exceed 2 observations\n")
            assert main(["predict", *argv]) == 2
            assert capsys.readouterr().err == err
            return
        assert code == 0 and err == ""
        rows = {line.split()[0]: line.split(None, 2)[1:] for line in out.splitlines()}
        for name in ("uk_vs_sk_plus_gls_beta", "gpr_basis_vs_uk"):
            assert rows.pop(name) == ["-", "skipped (p > n)"]
        assert {status for _, status in rows.values()} == {"pass"}
        assert len(rows) == 3
        assert main(["predict", *argv]) == 0

    def test_bordered_rows_see_their_own_s(self, tmp_path, capsys, monkeypatch):
        # a 1e-6 shift of S[0, 1] in the engine's assembly moves the engine
        # alone: every route solves an S built apart from it, so all four
        # route rows see it
        assemble = kernels._observation_cov

        def shifted(*args, **kwargs):
            s = assemble(*args, **kwargs)
            s[0, 1] += 1e-6
            s[1, 0] += 1e-6
            return s

        monkeypatch.setattr(kernels, "_observation_cov", shifted)
        monkeypatch.setattr(kriging, "_observation_cov", shifted)
        # noisy, so the shifted engine is not asked to interpolate
        data, config = self.make_dataset(tmp_path, noise=0.1)
        code = main(["verify", "--data", data, "--config", config,
                     "--grid", "0.05:0.95:7"])
        status = {line.split()[0]: line.split()[-1]
                  for line in capsys.readouterr().out.splitlines()}
        assert code == 5
        assert {name for name, s in status.items() if s == "fail"} == set(ROUTE_ROWS)

    def test_factorizations_do_not_grow_with_targets(self, tmp_path, capsys, monkeypatch):
        # the engine Cholesky-factors the n x n Gram once; the routes build
        # their S once, LDL^T-factor it once for every column they read and
        # the (n + p) x (n + p) trend system once, however many targets
        # share the call
        data, config = self.make_dataset(tmp_path)
        n, p = 20, 2
        orders, ldl_orders, grams, solves = [], [], [], []
        monkeypatch.setattr(linalg, "_try_cholesky", counted(linalg._try_cholesky, orders))
        monkeypatch.setattr(oracle, "_ldl_in_place", counted(oracle._ldl_in_place, ldl_orders))
        monkeypatch.setattr(oracle, "build_gram", counted(oracle.build_gram, grams))
        monkeypatch.setattr(cli, "_route_blocks", counted(cli._route_blocks, solves))
        full = {}
        for count in (3, 9):
            for calls in (orders, ldl_orders, grams, solves):
                calls.clear()
            assert main(["verify", "--data", data, "--config", config,
                         "--grid", f"0.05:0.95:{count}"]) == 0
            full[count] = (orders.count(n), ldl_orders, len(grams))
            assert len(solves) == 1
        assert full == {3: (1, [n, n + p], 1), 9: (1, [n, n + p], 1)}

    def test_ill_conditioned_bordered_row_fails(self, tmp_path, capsys):
        # cond(Sigma) ~ 3e16: the engine's Cholesky/Schur answers and the
        # routes' LDL^T of S, bordered or not, disagree, and every route row
        # must say so
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
        assert [status[name] for name in ROUTE_ROWS] == ["fail"] * len(ROUTE_ROWS)

    def test_negative_route_variance_fails_its_row(self, tmp_path, capsys):
        # 40 points in the unit square under a lengthscale-1 SE kernel: a route
        # variance negative beyond round-off fails its row, not the run, so
        # every row prints, and each fails
        rng = np.random.default_rng(2)
        x = rng.random((40, 2))
        y = np.sin(6.0 * (x[:, 0] + x[:, 1])) + 0.1 * rng.standard_normal(40)
        data, config = tmp_path / "d.csv", tmp_path / "c.json"
        write_csv(data, x, y)
        write_config(config, SE_CONFIG)
        code = main(["verify", "--data", str(data), "--config", str(config),
                     "--grid", "0:1:7", "--grid", "0:1:7"])
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert code == 5
        assert [row[0] for row in rows] == [*ROUTE_ROWS, "interpolation"]
        assert [row[-1] for row in rows] == ["fail"] * 5

    # verify runs the configured model before any row, on the data predict reads
    MATERN = {**SE_CONFIG, "kernel": {"family": "matern52", "variance": 1.0,
                                      "lengthscales": [0.5]}}
    FOUR = ([0.0, 0.5, 1.0, 1.5], [1.0, 2.0, 0.0, 1.0])
    CONFIGURED = {
        "variant-unknown": (FOUR, {**MATERN, "variant": "bogus"}),
        "variant-missing": (FOUR, {k: v for k, v in MATERN.items() if k != "variant"}),
        "sk-constant-unknown": (FOUR, {**MATERN, "variant": "sk"}),
        "gpr-constant-unknown": (FOUR, {**MATERN, "variant": "gpr"}),
        "gpr-basis-indefinite-prior": (FOUR, {**MATERN, "variant": "gpr-basis", "mean": {
            **POLY_MEAN, "prior_cov": [[1.0, 0.0], [0.0, -1.0]]}}),
        "jitter": (([0.0, 0.0, 1.0], [1.0, 2.0, 0.0]), {**MATERN, "max_jitter": 1e-3}),
        "collinear-ok": (([[0.0, 0.0], [0.0, 0.5], [0.0, 1.0], [0.0, 1.5]], FOUR[1]), MATERN),
        **{name: (([0.0, 1.0], [1.0, 2.0]), doc) for name, doc in MALFORMED_CONFIGS.items()},
    }

    @staticmethod
    def both_commands(tmp_path, capsys, points, doc):
        data, config = tmp_path / "d.csv", tmp_path / "c.json"
        write_csv(data, *points)
        write_config(config, doc)
        argv = ["--data", str(data), "--config", str(config),
                *["--grid", "0:1:3"] * np.ndim(points[0])]
        return [(main([command, *argv]), *capsys.readouterr())
                for command in ("predict", "verify")]

    @pytest.mark.parametrize("points, doc", CONFIGURED.values(), ids=CONFIGURED.keys())
    def test_rejects_and_warns_as_predict(self, tmp_path, capsys, points, doc):
        predicted, verified = self.both_commands(tmp_path, capsys, points, doc)
        if predicted[0]:
            assert verified == (predicted[0], "", predicted[2])
        else:
            warnings = [ln for ln in verified[2].splitlines() if ln.startswith("warning: ")]
            assert warnings == predicted[2].splitlines()

    def test_trend_of_rank_below_p_skipped(self, tmp_path, capsys):
        # x1 is 0 at every point, so the degree-1 trend verify assumes for an
        # ok config has rank 2 < p = 3 at the data: both its rows are skipped
        predicted, verified = self.both_commands(tmp_path, capsys,
                                                 *self.CONFIGURED["collinear-ok"])
        code, out, err = verified
        assert predicted[0] == 0 and code == 0 and err == ""
        rows = {line.split()[0]: line.split(None, 2)[1:] for line in out.splitlines()}
        for name in ("uk_vs_sk_plus_gls_beta", "gpr_basis_vs_uk"):
            assert rows.pop(name) == ["-", "skipped (rank < p)"]
        assert {status for _, status in rows.values()} == {"pass"}

    @pytest.mark.parametrize("variant, mean, fits", [
        ("uk", POLY_MEAN, 3),
        ("ok", {"type": "constant_unknown"}, 3),
        ("sk", {"type": "known", "constant": 5.0}, 3),
        ("gpr-basis", {**POLY_MEAN, "prior_cov": [[1.0, 0.0], [0.0, 1.0]]}, 4),
    ])
    def test_each_mean_assumption_fitted_once(self, tmp_path, capsys, monkeypatch,
                                              variant, mean, fits):
        # ok, the degree-1 trend (shared by uk and gpr-basis) and the known
        # mean, plus the configured assumption where it is none of these
        data, config = self.make_dataset(tmp_path)
        with open(config) as fh:
            doc = json.load(fh)
        write_config(config, {**doc, "variant": variant, "mean": mean})
        calls = []
        monkeypatch.setattr(kriging, "_fit", counted(kriging._fit, calls))
        assert main(["verify", "--data", data, "--config", config,
                     "--grid", "0.05:0.95:7"]) == 0
        assert len(calls) == fits


@pytest.mark.parametrize("data, code", [(None, 2), (([0.0, 0.0, 1.0], [1.0, 2.0, 0.0]), 5)],
                         ids=["missing-data", "failing-verify"])
def test_entrypoint_exits_with_the_status_of_main(tmp_path, data, code):
    # python -m gpkrige.cli runs the console script's entry point in a fresh
    # interpreter; two jittered duplicates fail verify's rows
    path, config = tmp_path / "d.csv", tmp_path / "c.json"
    if data is not None:
        write_csv(path, *data)
    write_config(config, {**TestVerify.MATERN, "max_jitter": 1e-3})
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "gpkrige.cli", "verify", "--data", str(path),
                           "--config", str(config), "--grid", "0:1:3"],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == code
    assert proc.stderr.startswith("warning: diagonal jitter" if data else "error: ")


@pytest.mark.parametrize("command", ["predict", "variogram", "study"])
def test_stdout_is_the_out_file(demo, capsys, command):
    tmp, data, config = demo
    study = tmp / "study.json"
    write_config(study, TestStudy.STUDY)
    argv = {
        "predict": ["predict", "--data", data, "--config", config, "--grid", "0:2:7"],
        "variogram": ["variogram", "--data", data, "--bins", "3", "--max-lag", "2",
                      "--config", config],
        "study": ["study", "--config", str(study)],
    }[command]
    out = tmp / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.parametrize("field, value", [("degree", 1.5), ("n_train", 10.9), ("n_test", 5.5),
                                          ("replicates", 1.5), ("seed", 77.5),
                                          ("seed", True)])
def test_non_integral_field_exits_2(tmp_path, capsys, field, value):
    config = tmp_path / "c.json"
    if field in TestStudy.STUDY:
        write_config(config, {**TestStudy.STUDY, field: value})
        argv = ["study", "--config", str(config)]
    else:
        write_config(config, {**SE_CONFIG, "variant": "uk", "mean": {**POLY_MEAN, field: value}})
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


@pytest.mark.parametrize("spec", ["0:1_0:3", "1_0:20:3", "0:1:1_0"])
def test_digit_group_grid_spec_exits_2(tmp_path, capsys, spec):
    data, config = TestVerify.make_dataset(tmp_path)
    assert main(["predict", "--data", data, "--config", config, f"--grid={spec}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad grid spec {spec!r}")


@pytest.mark.parametrize("option, argv", [
    ("--bins", ["variogram", "--data", "d.csv", "--bins", "1_2", "--max-lag", "2"]),
    ("--max-lag", ["variogram", "--data", "d.csv", "--bins", "12", "--max-lag", "2_0"]),
    ("--seed", ["study", "--config", "s.json", "--seed", "1_1"]),
    ("--seed", ["study", "--config", "s.json", "--seed", "abc"]),
], ids=["bins", "max-lag", "seed", "seed-letters"])
def test_digit_group_option_exits_2(capsys, option, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {option}: invalid" in capsys.readouterr().err


DATA_1D = "x1,y\n0.0,1.0\n1.0,2.0\n"


@pytest.mark.parametrize("data, argv, message", [
    ("", ["--grid", "0:1:2"], "data.csv: empty file"),
    ("x2,y\n0.0,1.0\n", ["--grid", "0:1:2"], "coordinate columns must be x1, got x2"),
    ("x1,y\n\n", ["--grid", "0:1:2"], "data.csv: no data rows"),
    (DATA_1D, ["--grid", "0:1:2", "--grid", "0:1:2"],
     "need 1 --grid specs (one per dimension), got 2"),
    (DATA_1D, ["--grid", "0:1"], "bad grid spec '0:1'; expected lo:hi:count"),
    (DATA_1D, ["--grid", "0:1:0"], "bad grid spec '0:1:0': count must be positive"),
    (DATA_1D, ["--grid", "0:1:2", "--points", "PTS"], "give either --grid or --points, not both"),
    (DATA_1D, ["--points", "PTS"], "target points have dimension 2, data has 1"),
    (None, ["--grid", "0:1:2"], "No such file or directory"),
], ids=["empty-file", "coordinate-header", "no-data-rows", "grid-count", "grid-parts",
        "grid-size", "grid-and-points", "points-dimension", "missing-data-file"])
def test_input_error_exits_2_with_its_message(tmp_path, capsys, data, argv, message):
    if data is not None:
        (tmp_path / "data.csv").write_text(data)
    (tmp_path / "pts.csv").write_text("x1,x2\n0.1,0.2\n")
    write_config(tmp_path / "c.json", SE_CONFIG)
    argv = [str(tmp_path / "pts.csv") if arg == "PTS" else arg for arg in argv]
    assert main(["predict", "--data", str(tmp_path / "data.csv"),
                 "--config", str(tmp_path / "c.json"), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("data, grid", [
    (DATA_1D, ["0:1:100000000000000000000"]),
    ("x1,x2,x3,y\n0.0,0.0,0.0,1.0\n1.0,0.5,0.2,2.0\n", ["0:1:2097152"] * 3),
], ids=["1d", "3d"])
def test_grid_numpy_cannot_hold_exits_2(tmp_path, capsys, data, grid):
    (tmp_path / "data.csv").write_text(data)
    write_config(tmp_path / "c.json", SE_CONFIG)
    argv = ["predict", "--data", str(tmp_path / "data.csv"), "--config", str(tmp_path / "c.json")]
    assert main([*argv, *(f"--grid={spec}" for spec in grid)]) == 2
    assert capsys.readouterr().err == (
        f"error: grid point count x dimension must be below {(2 ** 63 - 1) // 8}\n")


@pytest.mark.parametrize("command", ["predict", "verify"])
def test_memory_error_exits_2(tmp_path, capsys, monkeypatch, command):
    def load_problem(args):
        raise MemoryError("Unable to allocate 72.8 TiB")

    monkeypatch.setattr(cli, "_load_problem", load_problem)
    data, config = TestVerify.make_dataset(tmp_path)
    assert main([command, "--data", data, "--config", config, "--grid", "0:1:2"]) == 2
    assert capsys.readouterr().err == "error: cannot allocate: Unable to allocate 72.8 TiB\n"


@pytest.mark.parametrize("field", ["n_train", "n_test"])
def test_study_size_numpy_cannot_hold_exits_2(tmp_path, capsys, field):
    config = tmp_path / "s.json"
    write_config(config, {**TestStudy.STUDY, field: 10 ** 20})
    assert main(["study", "--config", str(config)]) == 2
    assert f"error: {field} x dimension must be below" in capsys.readouterr().err


def test_repeated_study_predictor_exits_2(tmp_path, capsys):
    config, out = tmp_path / "s.json", tmp_path / "r.json"
    write_config(config, {**TestStudy.STUDY, "replicates": 3, "predictors": ["ok", "ok", "gpr"]})
    assert main(["study", "--config", str(config), "--out", str(out)]) == 2
    assert "nonempty list of distinct names" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("family, code, out", [
    ("matern52", 2, ""),
    ("squared_exponential", 0,
     "x1,mean,error_variance\n0.0,3.0,0.0\n1.0,2.1353352832366133,1.2308993852497687\n"),
])
def test_overflowing_gram_reports_only_the_finite_check(tmp_path, capsys, family, code, out):
    # +-1e308 over a lengthscale of 0.5 overflows the scaled coordinates: the
    # finite check alone speaks (matern52's inf * 0 is NaN), or nothing does
    # (the squared exponential decays to 0); a numpy warning would be an error
    data, config = tmp_path / "d.csv", tmp_path / "c.json"
    write_csv(data, [-1e308, 1e308, 0.0], [1.0, 2.0, 3.0])
    write_config(config, {**SE_CONFIG, "kernel": {"family": family, "variance": 1.0,
                                                  "lengthscales": [0.5]}})
    assert main(["predict", "--data", str(data), "--config", str(config),
                 "--grid", "0:1:2"]) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == ("error: matrix must be finite\n" if code else "")


FAR_CONFIG = {"kernel": {"family": "exponential", "variance": 1.0, "lengthscales": [1e160]},
              "mean": POLY_MEAN, "noise_variance": 0.1}


@pytest.mark.parametrize("command, variant", [
    ("predict", "uk"), ("predict", "gpr-basis"), ("verify", "ok"),
])
def test_overflowing_basis_gram_reports_only_the_finite_check(tmp_path, capsys, command,
                                                              variant):
    # a degree-1 basis at x = 0, 1e160, 2e160 squares past the float max in
    # the basis Gram (verify's through its trend row): the finite check alone
    # speaks; a numpy warning would be an error
    data, config = tmp_path / "d.csv", tmp_path / "c.json"
    write_csv(data, [0.0, 1e160, 2e160], [1.0, 2.0, 3.0])
    write_config(config, {**FAR_CONFIG, "variant": variant})
    assert main([command, "--data", str(data), "--config", str(config),
                 "--grid", "0:1e160:2"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: matrix must be finite\n")


def test_overflowing_basis_gram_is_a_study_failure(tmp_path, capsys):
    # uk's degree-1 basis over [0, 1e300] overflows its Gram: the replicate
    # records uk as failed, silently, while ls fits its constant
    config, out = tmp_path / "s.json", tmp_path / "r.json"
    write_config(config, {**TestStudy.STUDY, "domain": [[0.0, 1e300]], "replicates": 1,
                          "predictors": ["ls", "uk"]})
    assert main(["study", "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    assert report["predictors"]["uk"]["failures"] == 1
    assert report["predictors"]["ls"]["failures"] == 0


def test_reused_parser_matches_fresh_ones(tmp_path, capsys):
    # main builds its parser once; back-to-back calls, an argparse exit and
    # --grid appends between them, give what a freshly built parser gives
    data, config = TestVerify.make_dataset(tmp_path)
    study = tmp_path / "study.json"
    write_config(study, TestStudy.STUDY)
    out = tmp_path / "out.csv"
    calls = [
        ["predict", "--data", data, "--config", config, "--grid", "0:1:3", "--out", str(out)],
        ["variogram", "--data", data, "--bins", "4", "--max-lag", "1"],
        ["variogram", "--data", data, "--max-lag", "1"],  # argparse: --bins is required
        ["predict", "--data", data, "--config", config, "--grid", "0.2:0.8:4"],
        ["predict", "--data", data, "--config", config, "--grid", "0:1:2", "--grid", "0:1:2"],
        ["study", "--config", str(study), "--seed", "3"],
        ["verify", "--data", data, "--config", config, "--grid", "0.1:0.9:3"],
    ]

    def run(argv, fresh):
        if fresh:
            cli._build_parser.cache_clear()
        out.unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out.read_bytes() if out.exists() else None

    cli._build_parser.cache_clear()
    reused = [run(argv, fresh=False) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    assert [r[0] for r in reused] == [0, 0, 2, 0, 2, 0, 0]
    assert "need 1 --grid specs (one per dimension), got 2" in reused[4][2]
    assert [run(argv, fresh=True) for argv in calls] == reused


READER_FILES = {
    "data": b"x1,y\n0.0,1.0\n1.0,2.0\n",
    "points": b"x1\n0.25\n0.5\n",
    "config": json.dumps(SE_CONFIG).encode(),
    "study": json.dumps(TestStudy.STUDY).encode(),
}
READER_ARGV = {
    "predict": ["predict", "--data", "DATA", "--config", "CONFIG", "--points", "POINTS"],
    "verify": ["verify", "--data", "DATA", "--config", "CONFIG", "--points", "POINTS"],
    "variogram": ["variogram", "--data", "DATA", "--bins", "2", "--max-lag", "1",
                  "--config", "CONFIG"],
    "study": ["study", "--config", "STUDY"],
}


def reader_argv(tmp_path, command, contents):
    """``command``'s argv, reading files written with ``contents`` (name -> bytes)."""
    paths = {}
    for name, text in {**READER_FILES, **contents}.items():
        paths[name.upper()] = str(tmp_path / name)
        (tmp_path / name).write_bytes(text)
    return [paths.get(arg, arg) for arg in READER_ARGV[command]]


@pytest.mark.parametrize("command, name", [
    ("predict", "data"), ("predict", "points"), ("predict", "config"),
    ("verify", "config"), ("variogram", "config"), ("study", "study"),
])
def test_undecodable_file_exits_2_naming_it(tmp_path, capsys, command, name):
    bad = {"data": b"x1,y\n0.0,1.0\n\xff,2.0\n", "points": b"x1\n\xff\n",
           "config": b'{"kernel": "\xff"}', "study": b'{"kernel": "\xff"}'}[name]
    assert main(reader_argv(tmp_path, command, {name: bad})) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / name}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["data", "points", "config"])
def test_byte_order_mark_is_skipped(tmp_path, capsys, name):
    outputs = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        argv = reader_argv(tmp_path, "predict", {name: prefix + READER_FILES[name]})
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        outputs.append((tmp_path / "out").read_bytes())
    assert outputs[0] == outputs[1]
