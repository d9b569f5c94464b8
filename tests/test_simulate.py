"""Field sampling and the replicated predictor-comparison study."""

import math

import numpy as np
import pytest

from gpkrige import (
    InputError,
    KernelSpec,
    MeanSpec,
    StudyConfig,
    StudyError,
    run_study,
    sample_field,
    study_config_from_json,
    study_config_to_json,
)

SE_SHORT = KernelSpec("squared_exponential", 1.0, (0.2,))
CONST5 = MeanSpec.known_constant(5.0)


def make_config(**overrides):
    base = dict(
        kernel=SE_SHORT,
        true_mean=CONST5,
        noise_variance=0.01,
        n_train=12,
        n_test=6,
        domain=((0.0, 1.0),),
        replicates=3,
        seed=123,
        predictors=("ok",),
    )
    base.update(overrides)
    return StudyConfig(**base)


class TestSampleField:
    def test_degenerate_field_is_the_mean(self):
        kernel = KernelSpec("squared_exponential", 0.0, (1.0,))
        z = sample_field(kernel, MeanSpec.known_constant(3.0),
                        [[0.0], [1.0], [2.0]], 0.0, 7)
        np.testing.assert_array_equal(z, [3.0, 3.0, 3.0])

    def test_deterministic_given_seed(self):
        x = np.linspace(0, 1, 5)[:, None]
        a = sample_field(SE_SHORT, CONST5, x, 0.1, 99)
        b = sample_field(SE_SHORT, CONST5, x, 0.1, 99)
        np.testing.assert_array_equal(a, b)

    def test_one_2d_point_given_as_a_list(self):
        kernel = KernelSpec("squared_exponential", 1.0, (0.3,), dim=2)
        mean = MeanSpec.polynomial(2, 1, coefficients=[1.0, 2.0, 3.0])
        z = sample_field(kernel, mean, [0.5, 0.5], 0.0, 5)
        assert z.shape == (1,)
        np.testing.assert_array_equal(z, sample_field(kernel, mean, [[0.5, 0.5]], 0.0, 5))

    def test_different_seeds_differ(self):
        x = np.linspace(0, 1, 5)[:, None]
        a = sample_field(SE_SHORT, CONST5, x, 0.0, 1)
        b = sample_field(SE_SHORT, CONST5, x, 0.0, 2)
        assert not np.array_equal(a, b)

    def test_two_point_covariance_moment(self):
        # sample covariance at lag 1 must sit near exp(-1/2) (SE, ell = 1)
        kernel = KernelSpec("squared_exponential", 1.0, (1.0,))
        mean = MeanSpec.known_constant(0.0)
        rng = np.random.default_rng(500)
        draws = np.array([
            sample_field(kernel, mean, [[0.0], [1.0]], 0.0, rng)
            for _ in range(5000)
        ])
        sample_cov = np.cov(draws.T)[0, 1]
        target = math.exp(-0.5)
        standard_error = math.sqrt((1.0 + target ** 2) / 5000)
        assert abs(sample_cov - target) <= 3.0 * standard_error

    def test_noise_adds_to_marginal_variance(self):
        kernel = KernelSpec("squared_exponential", 1.0, (1.0,))
        mean = MeanSpec.known_constant(0.0)
        rng = np.random.default_rng(501)
        draws = np.array([
            sample_field(kernel, mean, [[0.0]], 1.0, rng) for _ in range(4000)
        ])
        assert abs(draws.var() - 2.0) <= 0.2

    def test_unidentified_mean_rejected(self):
        with pytest.raises(InputError):
            sample_field(SE_SHORT, MeanSpec.constant_unknown(), [[0.0]], 0.0, 1)


class TestStudyConfig:
    def test_uk_needs_enough_training_points(self):
        with pytest.raises(InputError):
            make_config(predictors=("uk",), n_train=1)

    def test_unknown_predictor_rejected(self):
        with pytest.raises(InputError):
            make_config(predictors=("krig",))

    def test_empty_predictors_rejected(self):
        with pytest.raises(InputError):
            make_config(predictors=())

    def test_unidentified_true_mean_rejected(self):
        with pytest.raises(InputError):
            make_config(true_mean=MeanSpec.constant_unknown())

    def test_domain_dimension_checked(self):
        with pytest.raises(InputError):
            make_config(domain=((0.0, 1.0), (0.0, 1.0)))

    def test_json_roundtrip(self):
        cfg = make_config(predictors=("ls", "ok", "gpr"))
        doc = study_config_to_json(cfg)
        back = study_config_from_json(doc)
        assert back == cfg
        assert study_config_to_json(back) == doc
        assert back.kernel == cfg.kernel
        assert back.predictors == cfg.predictors
        assert back.seed == cfg.seed

    def test_bad_json_rejected(self):
        with pytest.raises(InputError):
            study_config_from_json({"kernel": {}})
        with pytest.raises(InputError):
            study_config_from_json(dict(study_config_to_json(make_config()), true_mean=5.0))


class TestRunStudy:
    def test_minimal_report_well_formed(self):
        report = run_study(make_config(replicates=1))
        doc = report.to_dict()
        assert doc["replicates"] == 1
        assert doc["seed"] == 123
        ok = doc["predictors"]["ok"]
        assert ok["mse_mean"] >= 0.0
        assert len(ok["mse_replicates"]) == 1
        assert ok["failures"] == 0

    def test_reproducible(self):
        a = run_study(make_config(replicates=4)).to_dict()
        b = run_study(make_config(replicates=4)).to_dict()
        assert a == b

    def test_no_spatial_structure_mse_matches_sample_mean_theory(self):
        # flat field + pure noise: OK collapses to the sample mean, whose
        # squared error against the constant truth is noise / n_train
        cfg = make_config(
            kernel=KernelSpec("squared_exponential", 0.0, (1.0,)),
            noise_variance=1.0,
            n_train=20,
            n_test=10,
            replicates=60,
        )
        report = run_study(cfg)
        ok = report.predictors["ok"]
        theory = 1.0 / 20.0
        assert abs(ok.mse_mean - theory) <= 5.0 * max(ok.mse_stderr, 1e-3)

    def test_matched_model_sk_mse_matches_error_variance(self):
        cfg = make_config(
            kernel=KernelSpec("squared_exponential", 1.0, (0.5,)),
            noise_variance=0.05,
            n_train=15,
            n_test=20,
            replicates=100,
            predictors=("sk",),
        )
        report = run_study(cfg)
        sk = report.predictors["sk"]
        assert sk.mean_error_variance is not None
        assert abs(sk.mse_mean - sk.mean_error_variance) <= 0.15 * sk.mean_error_variance

    def test_predictor_dominance_under_the_model(self):
        # constant truth known: SK <= OK <= UK in expectation; compare the
        # paired per-replicate MSEs so Monte-Carlo noise cancels
        cfg = make_config(
            noise_variance=0.02,
            n_train=15,
            n_test=10,
            replicates=60,
            predictors=("sk", "ok", "uk"),
        )
        report = run_study(cfg)

        def paired_slack(a, b):
            diff = np.array(b.mse_replicates) - np.array(a.mse_replicates)
            return diff.mean(), 3.0 * diff.std(ddof=1) / math.sqrt(diff.size)

        gap, slack = paired_slack(report.predictors["sk"], report.predictors["ok"])
        assert gap >= -slack
        gap, slack = paired_slack(report.predictors["ok"], report.predictors["uk"])
        assert gap >= -slack

    def test_gpr_reports_coverage(self):
        report = run_study(make_config(predictors=("gpr",), replicates=10))
        gpr = report.predictors["gpr"]
        assert gpr.coverage_95 is not None
        assert 0.0 <= gpr.coverage_95 <= 1.0

    def test_per_replicate_failures_recorded(self):
        # a zero-variance noise-free field makes every SK solve singular,
        # while LS keeps succeeding
        cfg = make_config(
            kernel=KernelSpec("squared_exponential", 0.0, (1.0,)),
            noise_variance=0.0,
            replicates=3,
            predictors=("sk", "ls"),
        )
        report = run_study(cfg)
        assert report.predictors["sk"].failures == 3
        assert math.isnan(report.predictors["sk"].mse_mean)
        assert report.predictors["ls"].failures == 0

    def test_programming_errors_propagate(self, monkeypatch):
        # only library errors count as replicate failures; a bug must surface
        def broken(fit, xs):
            raise TypeError("broken predictor")

        monkeypatch.setattr("gpkrige.simulate._predict", broken)
        with pytest.raises(TypeError, match="broken predictor"):
            run_study(make_config(predictors=("ls", "ok")))

    def test_total_failure_raises(self):
        cfg = make_config(
            kernel=KernelSpec("squared_exponential", 0.0, (1.0,)),
            noise_variance=0.0,
            replicates=2,
            predictors=("sk",),
        )
        with pytest.raises(StudyError):
            run_study(cfg)
