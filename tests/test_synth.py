"""Synthetic mixture, MLP training, gradient checks, panel evaluation."""

import numpy as np
import pytest

from focal_calib import (
    DivergenceError,
    DomainError,
    MlpModel,
    SyntheticDistribution,
    TrainConfig,
    default_distribution,
    evaluate_panel,
    grad_check,
    train_mlp,
)


class TestDistribution:
    def test_invalid_priors(self):
        with pytest.raises(DomainError):
            SyntheticDistribution((0.5, 0.6), (0.0, 1.0), (1.0, 1.0))

    def test_invalid_sigma(self):
        with pytest.raises(DomainError):
            SyntheticDistribution((0.5, 0.5), (0.0, 1.0), (1.0, 0.0))

    def test_posterior_rows_are_simplexes(self):
        dist = default_distribution()
        post = dist.posterior(np.linspace(-8, 8, 101))
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)
        assert post.min() >= 0.0

    def test_symmetric_midpoint(self):
        dist = SyntheticDistribution((0.5, 0.5), (-1.0, 1.0), (1.0, 1.0))
        np.testing.assert_allclose(dist.posterior(0.0), [0.5, 0.5], atol=1e-12)

    def test_far_tail_saturates(self):
        dist = default_distribution()
        post = dist.posterior(dist.means[-1] + 10 * dist.sigmas[-1])
        assert post[-1] > 1.0 - 1e-6

    def test_sampling_deterministic(self):
        dist = default_distribution()
        a = dist.sample(1000, 7)
        b = dist.sample(1000, 7)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_sampling_statistics(self):
        dist = default_distribution()
        x, y = dist.sample(100_000, 0)
        for cls in range(1, dist.k + 1):
            freq = float((y == cls).mean())
            assert abs(freq - dist.priors[cls - 1]) < 0.01
            assert abs(x[y == cls].mean() - dist.means[cls - 1]) < 0.05


class TestTraining:
    @staticmethod
    def _small_config(gamma, epochs=5, seed=3):
        return TrainConfig(gamma=gamma, epochs=epochs, batch_size=32, hidden=16, seed=seed)

    def test_gamma_zero_focal_equals_cross_entropy_bitwise(self):
        dist = default_distribution()
        x, y = dist.sample(500, 1)
        m_ce, _ = train_mlp(x, y, self._small_config(0.0))
        m_fl, _ = train_mlp(x, y, self._small_config(0.0))
        for a, b in zip(m_ce.parameters(), m_fl.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_deterministic_per_seed(self):
        dist = default_distribution()
        x, y = dist.sample(400, 2)
        config = self._small_config(2.0)
        m1, h1 = train_mlp(x, y, config)
        m2, h2 = train_mlp(x, y, config)
        assert h1 == h2
        for a, b in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_separable_data_reaches_zero_training_error(self):
        dist = SyntheticDistribution((0.5, 0.5), (-6.0, 6.0), (0.5, 0.5))
        x, y = dist.sample(600, 4)
        model, _ = train_mlp(x, y, self._small_config(1.0, epochs=50))
        pred = model.predict_proba(x).argmax(axis=1) + 1
        assert (pred != y).mean() == 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_epoch(self):
        dist = default_distribution()
        x, y = dist.sample(300, 5)
        config = TrainConfig(
            gamma=2.0,
            epochs=10,
            batch_size=32,
            learning_rate=1e9,
            hidden=16,
            seed=0,
        )
        with pytest.raises(DivergenceError) as info:
            train_mlp(x, y, config)
        assert info.value.epoch >= 0

    def test_forward_rows_are_probabilities(self):
        model = MlpModel(k=3, hidden=8, seed=0)
        probs = model.predict_proba(np.linspace(-5, 5, 30))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert probs.min() >= 0.0


class TestGradCheck:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 3.0, 5.0])
    def test_focal_gradients(self, gamma):
        rng = np.random.default_rng(int(gamma * 10))
        model = MlpModel(k=3, hidden=8, seed=1)
        worst = 0.0
        for _ in range(5):
            x = float(rng.normal(0, 2))
            y = int(rng.integers(1, 4))
            worst = max(worst, grad_check(model, gamma, x, y))
        assert worst < 1e-4

    def test_cross_entropy_gradient(self):
        model = MlpModel(k=3, hidden=8, seed=2)
        assert grad_check(model, 0.0, 0.7, 2) < 1e-5

    def test_gamma_zero_matches_textbook_softmax_gradient(self):
        # at gamma 0 the logit gradient must equal (u - e_y) / n exactly
        from focal_calib.synth import _logit_gradient

        rng = np.random.default_rng(21)
        probs = rng.dirichlet(np.ones(4), size=6)
        labels0 = rng.integers(0, 4, size=6)
        onehot = np.eye(4)[labels0]
        expected = (probs - onehot) / 6
        np.testing.assert_allclose(_logit_gradient(probs, labels0, 0.0), expected, atol=1e-12)


class TestEvaluatePanel:
    def test_oracle_model_scores_perfectly(self):
        dist = default_distribution()
        grid = np.linspace(-6, 6, 201)
        panel = evaluate_panel(dist.posterior, dist, grid, test_n=50_000, seed=9)
        assert panel.mean_kld == pytest.approx(0.0, abs=1e-12)
        assert panel.ece < 0.01

    def test_recovery_reduces_kld_for_focal_model(self):
        dist = default_distribution()
        x, y = dist.sample(4000, 10)
        config = TrainConfig(gamma=5.0, epochs=15, batch_size=64, hidden=32, seed=11)
        model, _ = train_mlp(x, y, config)
        grid = np.linspace(-6, 6, 201)
        raw = evaluate_panel(model.predict_proba, dist, grid, test_n=20_000, seed=12)
        rec = evaluate_panel(
            model.predict_proba, dist, grid, test_n=20_000, seed=12, gamma_for_recovery=5.0
        )
        assert rec.mean_kld < raw.mean_kld
        assert rec.err == raw.err
