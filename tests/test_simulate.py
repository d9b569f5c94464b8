"""Field sampling and the replicated predictor-comparison study."""

import math

import numpy as np
import pytest

from gpkrige import (
    Dataset,
    InputError,
    KernelSpec,
    MeanSpec,
    SingularityError,
    StudyConfig,
    StudyError,
    run_study,
    sample_field,
    study_config_from_json,
)
from gpkrige import kriging, simulate
from gpkrige.oracle import joint_prior
from gpkrige.simulate import PREDICTORS

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

    def test_indefinite_covariance_draws_nothing(self):
        # the PSD check runs before any normal is drawn
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(SingularityError, match="not positive semidefinite"):
            simulate._sample_zero_mean(np.array([[1.0, 2.0], [2.0, 1.0]]), rng)
        assert rng.bit_generator.state == state


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

    def test_repeated_predictor_rejected(self):
        with pytest.raises(InputError, match="nonempty list of distinct names"):
            make_config(predictors=("ok", "ok", "gpr"))

    @pytest.mark.parametrize("field", ["n_train", "n_test"])
    def test_size_numpy_cannot_hold_rejected(self, field):
        with pytest.raises(InputError, match=f"{field} x dimension must be below"):
            make_config(**{field: 10 ** 20})

    def test_unidentified_true_mean_rejected(self):
        with pytest.raises(InputError):
            make_config(true_mean=MeanSpec.constant_unknown())

    def test_domain_dimension_checked(self):
        with pytest.raises(InputError):
            make_config(domain=((0.0, 1.0), (0.0, 1.0)))

    # make_config(predictors=("ls", "ok", "gpr")) as a study document
    STUDY_DOC = {
        "kernel": {"family": "squared_exponential", "variance": 1.0, "lengthscales": [0.2]},
        "true_mean": {"type": "known", "constant": 5.0},
        "noise_variance": 0.01,
        "n_train": 12,
        "n_test": 6,
        "domain": [[0.0, 1.0]],
        "replicates": 3,
        "seed": 123,
        "predictors": ["ls", "ok", "gpr"],
    }

    @pytest.mark.parametrize("mdoc, true_mean", [
        ({"type": "known", "constant": 5.0}, CONST5),
        ({"type": "basis", "basis": "polynomial", "degree": 1, "coefficients": [5.0, -0.5]},
         MeanSpec.polynomial(1, 1, coefficients=np.array([5.0, -0.5]))),
    ], ids=["known-constant", "polynomial"])
    def test_json_roundtrip(self, mdoc, true_mean):
        cfg = study_config_from_json(dict(self.STUDY_DOC, true_mean=mdoc))
        assert cfg == make_config(predictors=("ls", "ok", "gpr"), true_mean=true_mean)
        assert cfg.kernel == SE_SHORT
        assert cfg.predictors == ("ls", "ok", "gpr")
        assert cfg.seed == 123

    @pytest.mark.parametrize("name", ["coefficients", "prior_mean", "prior_cov"])
    def test_null_true_mean_field_rejected(self, name):
        # refused by name, not read as an absent field
        mdoc = {"type": "basis", "basis": "polynomial", "degree": 1,
                "coefficients": [5.0, -0.5], name: None}
        with pytest.raises(InputError, match=f"mean field '{name}' is null"):
            study_config_from_json(dict(self.STUDY_DOC, true_mean=mdoc))

    @pytest.mark.parametrize("doc, what, key", [
        ({**STUDY_DOC, "predictor": ["ok"]}, "study config", "predictor"),
        ({**STUDY_DOC, "true_mean": {"type": "known", "constant": 5.0, "degree": 1}},
         "mean document", "degree"),
        ({**STUDY_DOC, "kernel": {**STUDY_DOC["kernel"], "lengthscale": [0.3]}},
         "kernel document", "lengthscale"),
    ], ids=["study", "true-mean", "kernel"])
    def test_unknown_key_rejected(self, doc, what, key):
        with pytest.raises(InputError, match=f"^{what} does not define '{key}'$"):
            study_config_from_json(doc)

    def test_bad_json_rejected(self):
        with pytest.raises(InputError):
            study_config_from_json({"kernel": {}})
        with pytest.raises(InputError):
            study_config_from_json(dict(self.STUDY_DOC, true_mean=5.0))
        for domain in ([[0.0, math.inf]], [[math.nan, 1.0]]):
            with pytest.raises(InputError, match="finite lo < hi"):
                study_config_from_json(dict(self.STUDY_DOC, domain=domain))


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

    def test_one_target_stage_per_replicate(self, monkeypatch):
        # sk, ok, uk and gpr share the replicate's K* and its solve
        calls, block = [], kriging.kernel_matrix

        def counted(*args):
            calls.append(args)
            return block(*args)

        monkeypatch.setattr(kriging, "kernel_matrix", counted)
        run_study(make_config(predictors=("sk", "ok", "uk", "gpr"), replicates=3))
        assert len(calls) == 3

    def test_sk_and_gpr_share_one_mean_stage(self, monkeypatch):
        # both condition on the true mean, so each replicate fits it once
        calls, fit = [], kriging._fit

        def counted(*args):
            calls.append(args[1])
            return fit(*args)

        monkeypatch.setattr(kriging, "_fit", counted)
        cfg = make_config(predictors=("sk", "gpr"), replicates=3)
        run_study(cfg)
        assert calls == [cfg.true_mean] * 3

    def test_programming_errors_propagate(self, monkeypatch):
        # only library errors count as replicate failures; a bug must surface
        def broken(self, variant, mean=None):
            raise TypeError("broken predictor")

        monkeypatch.setattr("gpkrige.kriging._Engine.predict", broken)
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


class _UnitNormals:
    """Stands in for a Generator: its normals are e_k (or zeros), handed out in order."""

    def __init__(self, size, k=None):
        self.values = np.zeros(size)
        if k is not None:
            self.values[k] = 1.0
        self.used = 0

    def standard_normal(self, count):
        out = self.values[self.used:self.used + count]
        self.used += count
        return out


class TestReplicateSampler:
    KERNEL = KernelSpec("matern52", 1.3, (0.4,), dim=2)
    TREND = MeanSpec.polynomial(2, 1, coefficients=[1.0, -2.0, 0.5])

    def config(self, noise, **overrides):
        return make_config(kernel=self.KERNEL, true_mean=self.TREND, noise_variance=noise,
                           domain=((0.0, 1.0), (0.0, 1.0)), **overrides)

    @pytest.mark.parametrize("noise", [0.05, 0.0], ids=["noisy", "noise-free"])
    def test_draw_has_the_joint_law(self, monkeypatch, noise):
        # the draw is affine in its normals: recover its map R column by column,
        # then R R^T must be the joint prior covariance of (Y, Z(X*))
        def no_fallback(*args):
            raise AssertionError("the replicate fell back to the joint draw")

        monkeypatch.setattr(simulate, "sample_field", no_fallback)
        cfg = self.config(noise)
        rng = np.random.default_rng(8)
        x_train = rng.uniform(0.0, 1.0, (cfg.n_train, 2))
        x_test = rng.uniform(0.0, 1.0, (cfg.n_test, 2))
        size = cfg.n_train + cfg.n_test

        def draw(k=None):
            normals = _UnitNormals(size, k)
            engine, z_test = simulate._sample_replicate(cfg, x_train, x_test, normals)
            assert normals.used == size
            return np.concatenate([engine.data.y, z_test])

        base = draw()
        r = np.column_stack([draw(k) - base for k in range(size)])
        mean, cov = joint_prior(Dataset(x_train, np.zeros(cfg.n_train), noise),
                                cfg.kernel, cfg.true_mean, x_test)
        np.testing.assert_array_equal(base, mean)
        assert np.abs(r @ r.T - cov).max() <= 1e-10 * np.abs(cov).max()

    @pytest.mark.parametrize("noise", [0.05, 0.0], ids=["noisy", "noise-free"])
    def test_conditional_covariance_is_the_engine_posterior_cov(self, monkeypatch, noise):
        # the sampler draws z* | y from the engine's own K** - V^T V, bit for bit
        sample, drawn = simulate._sample_zero_mean, []

        def recorded(cov, rng):
            drawn.append(cov.copy())
            return sample(cov, rng)

        monkeypatch.setattr(simulate, "_sample_zero_mean", recorded)
        cfg = self.config(noise)
        rng = np.random.default_rng(11)
        x_train = rng.uniform(0.0, 1.0, (cfg.n_train, 2))
        x_test = rng.uniform(0.0, 1.0, (cfg.n_test, 2))
        simulate._sample_replicate(cfg, x_train, x_test, rng)
        engine = kriging._Engine(Dataset(x_train, np.zeros(cfg.n_train), noise), cfg.kernel,
                                 x_test)
        assert len(drawn) == 1
        np.testing.assert_array_equal(drawn[0], engine.posterior_cov())

    def test_fallback_replays_the_joint_draw(self):
        # noise-free data at coincident points: S does not factor, and the
        # replicate draws what sample_field draws from the same stream
        cfg = self.config(0.0)
        rng = np.random.default_rng(9)
        x_train = np.repeat(rng.uniform(0.0, 1.0, (cfg.n_train // 2, 2)), 2, axis=0)
        x_test = rng.uniform(0.0, 1.0, (cfg.n_test, 2))
        ours, theirs = np.random.default_rng(10), np.random.default_rng(10)
        engine, z_test = simulate._sample_replicate(cfg, x_train, x_test, ours)
        z_all = sample_field(cfg.kernel, cfg.true_mean, np.vstack([x_train, x_test]), 0.0,
                             theirs)
        np.testing.assert_array_equal(engine.data.y, z_all[:cfg.n_train])
        np.testing.assert_array_equal(z_test, z_all[cfg.n_train:])
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_noisy_fallback_adds_the_noise_after_the_joint_draw(self, monkeypatch):
        # a noisy S that does not factor: the replicate draws the latent field
        # jointly, then the observation noise from the same stream
        cfg = self.config(0.05)
        factor = kriging._factor_in_place

        def singular_gram(a, *args, **kwargs):
            if len(a) == cfg.n_train:
                raise SingularityError("forced", pivot=0)
            return factor(a, *args, **kwargs)

        monkeypatch.setattr(kriging, "_factor_in_place", singular_gram)
        rng = np.random.default_rng(9)
        x_train = rng.uniform(0.0, 1.0, (cfg.n_train, 2))
        x_test = rng.uniform(0.0, 1.0, (cfg.n_test, 2))
        ours, theirs = np.random.default_rng(10), np.random.default_rng(10)
        engine, z_test = simulate._sample_replicate(cfg, x_train, x_test, ours)
        z_all = sample_field(cfg.kernel, cfg.true_mean, np.vstack([x_train, x_test]), 0.0,
                             theirs)
        noise = np.sqrt(cfg.noise_variance) * theirs.standard_normal(cfg.n_train)
        np.testing.assert_array_equal(engine.data.y, z_all[:cfg.n_train] + noise)
        np.testing.assert_array_equal(z_test, z_all[cfg.n_train:])
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_coincident_training_points_fail_kriging_but_score_ls(self, monkeypatch):
        draw = simulate._draw_locations

        def pairs(rng, domain, count):
            return np.repeat(draw(rng, domain, (count + 1) // 2), 2, axis=0)[:count]

        monkeypatch.setattr(simulate, "_draw_locations", pairs)
        report = run_study(self.config(0.0, predictors=PREDICTORS))
        for name in ("sk", "ok", "uk", "gpr"):
            assert report.predictors[name].failures == 3
        assert report.predictors["ls"].failures == 0
        assert len(report.predictors["ls"].mse_replicates) == 3

    def test_failed_factor_is_not_retried(self, monkeypatch):
        # the sampler's failed factor of S serves every predictor of its replicate
        draw, factor, failed = simulate._draw_locations, kriging._factor_in_place, []

        def pairs(rng, domain, count):
            return np.repeat(draw(rng, domain, (count + 1) // 2), 2, axis=0)[:count]

        def counted(a, *args, **kwargs):
            try:
                return factor(a, *args, **kwargs)
            except SingularityError:
                failed.append(len(a))
                raise

        monkeypatch.setattr(simulate, "_draw_locations", pairs)
        monkeypatch.setattr(kriging, "_factor_in_place", counted)
        report = run_study(self.config(0.0, n_train=40, predictors=PREDICTORS))
        assert failed == [40] * 3
        for name in ("sk", "ok", "uk", "gpr"):
            assert report.predictors[name].failures == 3
        assert report.predictors["ls"].failures == 0

    def test_no_joint_eigendecomposition(self, monkeypatch):
        # a well-conditioned replicate decomposes only the m x m conditional
        # covariance, never the (n + m) x (n + m) joint one
        orders, eigh = [], np.linalg.eigh

        def counted(a, *args, **kwargs):
            orders.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        cfg = make_config(kernel=KernelSpec("matern52", 1.0, (0.3,)), n_train=40, n_test=8,
                          predictors=PREDICTORS)
        run_study(cfg)
        assert orders == [cfg.n_test] * cfg.replicates
