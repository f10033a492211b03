"""Synthetic mixture, MLP training, gradient checks, panel evaluation."""

import dataclasses
import multiprocessing
import os
import pickle
import tracemalloc
from unittest import mock

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
    run_experiment,
    train_mlp,
)
from focal_calib.synth import _FORWARD_ROWS as B

NAN, INF = float("nan"), float("inf")


class TestDistribution:
    def test_invalid_priors(self):
        with pytest.raises(DomainError):
            SyntheticDistribution((0.5, 0.6), (0.0, 1.0), (1.0, 1.0))

    def test_invalid_sigma(self):
        with pytest.raises(DomainError):
            SyntheticDistribution((0.5, 0.5), (0.0, 1.0), (1.0, 0.0))

    @pytest.mark.parametrize(
        "priors, means, sigmas, key",
        [
            ((0.5, 0.5, NAN), (0.0, 1.0, 2.0), (1.0, 1.0, 1.0), "priors"),
            ((NAN, 0.5, 0.5), (0.0, 1.0, 2.0), (1.0, 1.0, 1.0), "priors"),
            ((0.5, INF), (0.0, 1.0), (1.0, 1.0), "priors"),
            ((0.5, 0.5), (0.0, INF), (1.0, 1.0), "means"),
            ((0.5, 0.5), (NAN, 1.0), (1.0, 1.0), "means"),
            ((0.5, 0.5), (0.0, 1.0), (1.0, NAN), "sigmas"),
            ((0.5, 0.5), (0.0, 1.0), (INF, 1.0), "sigmas"),
        ],
    )
    def test_non_finite_values_rejected(self, priors, means, sigmas, key):
        with pytest.raises(DomainError, match=key):
            SyntheticDistribution(priors, means, sigmas)

    @pytest.mark.parametrize("n", [2.5, NAN, True, 0])
    def test_sample_size_is_a_count(self, n):
        with pytest.raises(DomainError, match="^n must"):
            default_distribution().sample(n, 0)

    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, True])
    def test_sample_seed_is_a_whole_number_from_zero(self, seed):
        with pytest.raises(DomainError, match="seed"):
            default_distribution().sample(10, seed)

    def test_integral_float_sample_size(self):
        dist = default_distribution()
        for a, b in zip(dist.sample(5.0, 1), dist.sample(5, 1)):
            np.testing.assert_array_equal(a, b)

    def test_posterior_rows_are_simplexes(self):
        dist = default_distribution()
        post = dist.posterior(np.linspace(-8, 8, 101))
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)
        assert post.min() >= 0.0

    def test_symmetric_midpoint(self):
        dist = SyntheticDistribution((0.5, 0.5), (-1.0, 1.0), (1.0, 1.0))
        np.testing.assert_allclose(dist.posterior(0.0), [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize(
        "sigmas", [(0.05, 0.05, 0.05), (1e-320, 1.0, 1.0), (1e-200, 1e-200, 1e-200)]
    )
    def test_narrow_components_give_simplex_rows(self, sigmas):
        # every joint density of most of these rows underflows to 0, and in
        # the last mixture every z * z overflows
        dist = SyntheticDistribution((0.35, 0.35, 0.30), (-2.0, 0.0, 2.0), sigmas)
        grid = np.linspace(-6, 6, 601)
        post = dist.posterior(grid)  # a RuntimeWarning fails the test
        assert np.isfinite(post).all() and post.min() >= 0.0
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)
        # the textbook quotient wherever it is defined; elsewhere the mass
        # is at the nearest mean, off the midpoints between two means
        with np.errstate(over="ignore"):  # a density of 1e319 at x = -2
            joint = dist.joint_density(grid)
        total = joint.sum(axis=1, keepdims=True)
        defined = (total[:, 0] > 0.0) & np.isfinite(total[:, 0])
        np.testing.assert_allclose(
            post[defined], joint[defined] / total[defined], rtol=1e-12, atol=1e-300
        )
        rest = ~defined & ~np.isclose(np.abs(grid), 1.0)
        nearest = np.abs(grid[:, None] - np.asarray(dist.means)).argmin(axis=1)
        assert rest.any()
        np.testing.assert_array_equal(post[rest].argmax(axis=1), nearest[rest])

    def test_narrow_components_at_a_scalar(self):
        dist = SyntheticDistribution((0.35, 0.35, 0.30), (-2.0, 0.0, 2.0), (0.05, 0.05, 0.05))
        np.testing.assert_array_equal(dist.posterior(50.0), [0.0, 0.0, 1.0])
        np.testing.assert_allclose(dist.posterior(-1.0), [0.5, 0.5, 0.0], atol=1e-15)

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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("epochs", 2.5), ("epochs", NAN), ("hidden", 1.5), ("batch_size", True),
            ("learning_rate", NAN), ("learning_rate", INF),
            ("weight_decay", NAN), ("weight_decay", INF),
        ],
    )
    def test_bad_config_value_rejected(self, key, value):
        with pytest.raises(DomainError, match=key):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("seed", [-1, 2.0, False])
    def test_seed_is_a_whole_number_from_zero(self, seed):
        with pytest.raises(DomainError, match="seed"):
            TrainConfig(seed=seed)
        with pytest.raises(DomainError, match="seed"):
            MlpModel(3, 8, seed)

    def test_large_seed_is_kept(self):
        assert TrainConfig(seed=2**70).seed == 2**70
        assert MlpModel(3, 8, np.int64(5)).seed == 5

    def test_integral_float_counts_are_kept_as_ints(self):
        config = TrainConfig(epochs=2.0, batch_size=8.0, hidden=4.0)
        assert config == TrainConfig(epochs=2, batch_size=8, hidden=4)
        assert {type(v) for v in (config.epochs, config.batch_size, config.hidden)} == {int}

    @pytest.mark.parametrize("k, hidden", [(1, 8), (2.5, 8), (3, 1.5), (3, True), (3, 0)])
    def test_model_sizes_are_counts(self, k, hidden):
        with pytest.raises(DomainError):
            MlpModel(k, hidden, 0)

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
        # a synth worker process returns it to the caller
        copy = pickle.loads(pickle.dumps(info.value))
        assert (type(copy), str(copy), copy.epoch) == (
            DivergenceError, str(info.value), info.value.epoch
        )

    def test_lockstep_stack_matches_separate_runs_bitwise(self):
        # 500 rows in batches of 32 leave a short last batch of 20
        dist = default_distribution()
        x, y = dist.sample(500, 6)
        configs = [self._small_config(g, epochs=4) for g in (0.0, 0.5, 2.0, 5.0)]
        stacked = train_mlp(x, y, configs)
        assert len(stacked) == len(configs)
        for config, (model, history) in zip(configs, stacked):
            alone, alone_history = train_mlp(x, y, config)
            assert history == alone_history
            for a, b in zip(model.parameters(), alone.parameters()):
                np.testing.assert_array_equal(a, b)

    def test_stack_of_one_is_the_single_call(self):
        dist = default_distribution()
        x, y = dist.sample(300, 7)
        config = self._small_config(1.0, epochs=2)
        [(model, history)] = train_mlp(x, y, [config])
        alone, alone_history = train_mlp(x, y, config)
        assert history == alone_history
        for a, b in zip(model.parameters(), alone.parameters()):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "change",
        [
            {"epochs": 4},
            {"batch_size": 16},
            {"learning_rate": 0.02},
            {"momentum": 0.5},
            {"weight_decay": 0.0},
            {"hidden": 8},
            {"seed": 4},
        ],
    )
    def test_stack_rejects_configs_differing_beyond_gamma(self, change):
        dist = default_distribution()
        x, y = dist.sample(100, 8)
        first = self._small_config(0.0)
        other = dataclasses.replace(first, gamma=2.0, **change)
        with pytest.raises(DomainError, match="only in gamma"):
            train_mlp(x, y, [first, other])

    def test_empty_stack_is_rejected(self):
        dist = default_distribution()
        x, y = dist.sample(100, 8)
        with pytest.raises(DomainError):
            train_mlp(x, y, [])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_stack_member_raises_with_epoch(self):
        dist = default_distribution()
        x, y = dist.sample(300, 5)
        configs = [
            TrainConfig(gamma=g, epochs=10, batch_size=32, learning_rate=1e9, hidden=16, seed=0)
            for g in (0.0, 2.0)
        ]
        epochs = {}
        for config in configs:
            with pytest.raises(DivergenceError) as info:
                train_mlp(x, y, config)
            epochs[config.gamma] = info.value.epoch
        with pytest.raises(DivergenceError, match="gamma=") as info:
            train_mlp(x, y, configs)
        assert info.value.epoch == min(epochs.values())
        first = min(epochs, key=epochs.get)
        assert f"gamma={first:g}" in str(info.value)

    def test_forward_rows_are_probabilities(self):
        model = MlpModel(k=3, hidden=8, seed=0)
        probs = model.predict_proba(np.linspace(-5, 5, 30))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert probs.min() >= 0.0

    def test_in_place_forward_matches_textbook_forward(self):
        model = MlpModel(k=3, hidden=64, seed=3)
        xs = np.random.default_rng(13).normal(0, 3, size=20_000)
        h1 = np.maximum(xs[:, None] @ model.w1 + model.b1, 0.0)
        h2 = np.maximum(h1 @ model.w2 + model.b2, 0.0)
        expected = h2 @ model.w3 + model.b3
        del h1, h2
        activation = xs.size * model.hidden * 8
        tracemalloc.start()
        try:
            logits = model.predict_logits(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(logits, expected)
        # two hidden activations at most; the textbook forward holds three
        assert peak < 2.5 * activation

    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 17, 100_000])
    def test_blocked_forward_matches_textbook_forward(self, n):
        # equal-sized blocks, the last one overlapping its neighbour, round
        # as one whole-batch product does
        model = MlpModel(k=3, hidden=64, seed=3)
        xs = np.random.default_rng(13).normal(0, 3, size=n)
        h1 = np.maximum(xs[:, None] @ model.w1 + model.b1, 0.0)
        h2 = np.maximum(h1 @ model.w2 + model.b2, 0.0)
        np.testing.assert_array_equal(model.predict_logits(xs), h2 @ model.w3 + model.b3)

    def test_forward_memory_beyond_its_output_does_not_grow_with_n(self):
        model = MlpModel(k=3, hidden=64, seed=3)
        extra = []
        for n in (4 * B, 16 * B):
            xs = np.random.default_rng(13).normal(0, 3, size=n)
            tracemalloc.start()
            try:
                logits = model.predict_logits(xs)
                extra.append(tracemalloc.get_traced_memory()[1] - logits.nbytes)
            finally:
                tracemalloc.stop()
        # the same up to a few hundred bytes that the first calls allocate
        # once; two (n, hidden) activations would add 100 MB from 4B to 16B
        assert abs(extra[1] - extra[0]) < 1024
        # two (B, hidden) activations, not two (n, hidden)
        assert extra[1] < 2.5 * B * model.hidden * 8


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
        # at gamma 0 the logit gradient must equal (u - e_y) / n exactly,
        # also when it shares a stack with a focal model
        from focal_calib.synth import _logit_gradient

        rng = np.random.default_rng(21)
        probs = rng.dirichlet(np.ones(4), size=(2, 6))
        labels0 = rng.integers(0, 4, size=6)
        onehot = np.eye(4)[labels0]
        label_p = probs[:, np.arange(6), labels0]
        expected = (probs[0] - onehot) / 6
        grad = _logit_gradient(probs, label_p, onehot, np.array([[0.0], [2.0]]))
        np.testing.assert_allclose(grad[0], expected, atol=1e-12)
        assert not np.allclose(grad[1], (probs[1] - onehot) / 6, atol=1e-12)


class TestEvaluatePanel:
    def test_oracle_model_scores_perfectly(self):
        dist = default_distribution()
        grid = np.linspace(-6, 6, 201)
        x_test, y_test = dist.sample(50_000, 9)
        eta = dist.posterior(grid)
        panel = evaluate_panel(eta, eta, dist.posterior(x_test), y_test)
        assert panel.mean_kld == pytest.approx(0.0, abs=1e-12)
        assert panel.ece < 0.01

    def test_recovery_reduces_kld_for_focal_model(self):
        dist = default_distribution()
        x, y = dist.sample(4000, 10)
        config = TrainConfig(gamma=5.0, epochs=15, batch_size=64, hidden=32, seed=11)
        model, _ = train_mlp(x, y, config)
        grid = np.linspace(-6, 6, 201)
        eta = dist.posterior(grid)
        x_test, y_test = dist.sample(20_000, 12)
        q_grid, q_test = model.predict_proba(grid), model.predict_proba(x_test)
        raw = evaluate_panel(q_grid, eta, q_test, y_test)
        rec = evaluate_panel(q_grid, eta, q_test, y_test, gamma_for_recovery=5.0)
        assert rec.mean_kld < raw.mean_kld
        assert rec.err == raw.err
        np.testing.assert_array_equal(raw.grid_scores, q_grid)


class TestRunExperiment:
    @pytest.fixture
    def get_context(self, monkeypatch):
        # 3 CPUs, with the fork-pool starts counted
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        real = multiprocessing.get_context
        with mock.patch.object(multiprocessing, "get_context", wraps=real) as spy:
            yield spy

    @staticmethod
    def _run(gammas, n_bins=10):
        dist = default_distribution()
        sets = [dist.sample(200, seed) for seed in (1, 2, 3)]
        config = TrainConfig(epochs=1, hidden=8, seed=4)
        return run_experiment(dist, config, gammas, *sets, np.linspace(-6, 6, 21), n_bins)

    def test_runs_and_panels_in_order(self, get_context):
        runs = self._run([1.0, 2.5])
        get_context.assert_called_once_with("fork")
        assert [name for name, _, _, _ in runs] == ["ce", "fl1", "fl2.5"]
        assert [[variant for variant, _ in panels] for _, _, _, panels in runs] == [
            ["ce_raw"],
            ["fl1_raw", "fl1_ts", "fl1_psi"],
            ["fl2.5_raw", "fl2.5_ts", "fl2.5_psi"],
        ]
        for _, model, history, _ in runs:
            assert isinstance(model, MlpModel) and len(history) == 1

    @pytest.mark.parametrize(
        "gammas, n_bins, message",
        [([1.0, -1.0], 10, "gamma"), ([1.0], 0, "n_bins")],
        ids=["negative_gamma", "zero_bins"],
    )
    def test_bad_input_raises_before_any_pool(self, get_context, gammas, n_bins, message):
        with pytest.raises(DomainError, match=message):
            self._run(gammas, n_bins)
        get_context.assert_not_called()
