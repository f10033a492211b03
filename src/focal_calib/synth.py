"""Synthetic 1-D Gaussian-mixture experiment.

A small, fully deterministic pipeline for studying confidence recovery
where the true posterior is known analytically: sample a K-class 1-D
Gaussian mixture, train a two-hidden-layer softmax MLP with the focal or
cross-entropy loss by minibatch SGD (momentum + weight decay), and report
error rate, mean KL divergence to the analytic posterior over a grid, and
expected calibration error, optionally after the recovery transform.

Everything is seeded; identical seed, data and hyperparameters give
bitwise-identical trained weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibrate import softmax
from .core import CLAMP_EPS, _focal_terms, recover_posterior_rows, require_gamma
from .errors import DimensionError, DivergenceError, DomainError, EmptyDataError
from .metrics import PredictionSet, ScoreKind, error_rate, ece, kld_rows


@dataclass(frozen=True)
class SyntheticDistribution:
    """1-D K-class Gaussian mixture with an analytic posterior."""

    priors: tuple[float, ...]
    means: tuple[float, ...]
    sigmas: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.priors) == len(self.means) == len(self.sigmas)):
            raise DimensionError("priors, means and sigmas must have equal length")
        if len(self.priors) < 2:
            raise DimensionError("need at least 2 mixture components")
        if abs(sum(self.priors) - 1.0) > 1e-9 or min(self.priors) <= 0.0:
            raise DomainError("priors must be positive and sum to 1")
        if min(self.sigmas) <= 0.0:
            raise DomainError("all sigmas must be > 0")

    @property
    def k(self) -> int:
        return len(self.priors)

    def joint_density(self, x) -> np.ndarray:
        """Per-class joint density p(x, y) as an (n, k) matrix."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        pri = np.asarray(self.priors)
        mu = np.asarray(self.means)
        sd = np.asarray(self.sigmas)
        z = (xs[:, None] - mu) / sd
        return pri * np.exp(-0.5 * z * z) / (sd * np.sqrt(2.0 * np.pi))

    def posterior(self, x) -> np.ndarray:
        """Analytic class posterior; rows are valid probability vectors."""
        joint = self.joint_density(x)
        post = joint / joint.sum(axis=1, keepdims=True)
        return post[0] if np.ndim(x) == 0 else post

    def sample(self, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` pairs ``(x, y)`` with 1-based labels, deterministically."""
        if n < 1:
            raise DomainError(f"n must be >= 1, got {n}")
        rng = np.random.default_rng(seed)
        y = rng.choice(self.k, size=n, p=self.priors)
        x = rng.normal(np.asarray(self.means)[y], np.asarray(self.sigmas)[y])
        return x, y + 1


def default_distribution() -> SyntheticDistribution:
    """Three overlapping classes on the line; the package-wide default."""
    return SyntheticDistribution(
        priors=(0.35, 0.35, 0.30), means=(-2.0, 0.0, 2.0), sigmas=(1.0, 1.0, 1.0)
    )


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; ``gamma == 0`` trains with cross-entropy."""

    gamma: float = 0.0
    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-3
    hidden: int = 64
    seed: int = 0

    def __post_init__(self):
        require_gamma(self.gamma)
        if min(self.epochs, self.batch_size, self.hidden) < 1:
            raise DomainError("epochs, batch_size and hidden must be >= 1")
        if self.learning_rate <= 0.0 or self.weight_decay < 0.0:
            raise DomainError("learning_rate must be > 0 and weight_decay >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise DomainError("momentum must lie in [0, 1)")


class MlpModel:
    """1 -> hidden -> hidden -> k softmax network with ReLU activations.

    Weights initialize uniformly scaled by fan-in from the given seed.
    """

    PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")

    def __init__(self, k: int, hidden: int, seed: int):
        if k < 2:
            raise DimensionError(f"need k >= 2 output classes, got {k}")
        self.k = k
        self.hidden = hidden
        self.seed = seed
        rng = np.random.default_rng(seed)

        def init(fan_in: int, fan_out: int) -> tuple[np.ndarray, np.ndarray]:
            bound = 1.0 / np.sqrt(fan_in)
            return (
                rng.uniform(-bound, bound, size=(fan_in, fan_out)),
                rng.uniform(-bound, bound, size=fan_out),
            )

        self.w1, self.b1 = init(1, hidden)
        self.w2, self.b2 = init(hidden, hidden)
        self.w3, self.b3 = init(hidden, k)

    def parameters(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.PARAM_NAMES]

    def _forward(self, x: np.ndarray):
        h1 = np.maximum(x @ self.w1 + self.b1, 0.0)
        h2 = np.maximum(h1 @ self.w2 + self.b2, 0.0)
        logits = h2 @ self.w3 + self.b3
        return logits, h1, h2

    def predict_logits(self, x) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        logits, _, _ = self._forward(xs[:, None])
        return logits

    def predict_proba(self, x) -> np.ndarray:
        """Softmax scores for a batch of scalar inputs; rows sum to one."""
        return softmax(self.predict_logits(x))

    def state(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name).copy() for name in self.PARAM_NAMES}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for name in self.PARAM_NAMES:
            getattr(self, name)[...] = state[name]


def _loss_rows(label_p: np.ndarray, gamma: float) -> np.ndarray:
    return -_focal_terms(label_p.clip(CLAMP_EPS, 1.0), gamma)


def _logit_gradient(probs: np.ndarray, labels0: np.ndarray, gamma: float) -> np.ndarray:
    """Gradient of the per-sample loss wrt logits, averaged over the batch.

    Written in the bounded product form
    ``[g (1-u)^(g-1) u log u - (1-u)^g] * (e_y - u)`` so nothing blows up
    as the label probability approaches 0 or 1.
    """
    n, k = probs.shape
    label_p = probs[np.arange(n), labels0]
    om = 1.0 - label_p
    if gamma == 0.0:
        coef = -np.ones(n)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            lead = gamma * om ** (gamma - 1.0) * label_p * np.log(np.clip(label_p, 1e-300, 1.0))
        coef = np.where(om > 0.0, lead - om**gamma, 0.0)
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), labels0] = 1.0
    return coef[:, None] * (onehot - probs) / n


def _batch_gradients(model: MlpModel, xb: np.ndarray, yb0: np.ndarray, gamma: float):
    logits, h1, h2 = model._forward(xb)
    probs = softmax(logits)
    dz = _logit_gradient(probs, yb0, gamma)
    dw3 = h2.T @ dz
    db3 = dz.sum(axis=0)
    dh2 = dz @ model.w3.T
    dh2[h2 <= 0.0] = 0.0
    dw2 = h1.T @ dh2
    db2 = dh2.sum(axis=0)
    dh1 = dh2 @ model.w2.T
    dh1[h1 <= 0.0] = 0.0
    dw1 = xb.T @ dh1
    db1 = dh1.sum(axis=0)
    label_p = probs[np.arange(len(yb0)), yb0]
    loss = float(_loss_rows(label_p, gamma).mean())
    return loss, [dw1, db1, dw2, db2, dw3, db3]


def train_mlp(x, y, config: TrainConfig, k: int | None = None) -> tuple[MlpModel, list[float]]:
    """Train by minibatch SGD with momentum and weight decay.

    Returns the model and the mean training loss per epoch.  Raises
    ``DivergenceError`` (with the epoch index) if the loss goes
    non-finite.
    """
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=int)
    if xs.size == 0:
        raise EmptyDataError("no training data")
    if xs.shape != ys.shape:
        raise DimensionError(f"x shape {xs.shape} does not match y shape {ys.shape}")
    n_classes = k if k is not None else int(ys.max())
    if ys.min() < 1 or ys.max() > n_classes:
        raise DomainError(f"labels must lie in [1..{n_classes}]")
    gamma = require_gamma(config.gamma)

    model = MlpModel(n_classes, config.hidden, config.seed)
    velocity = [np.zeros_like(p) for p in model.parameters()]
    order_rng = np.random.default_rng(config.seed + 1)
    inputs = xs[:, None]
    labels0 = ys - 1

    history: list[float] = []
    for epoch in range(config.epochs):
        order = order_rng.permutation(xs.size)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, xs.size, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = _batch_gradients(model, inputs[batch], labels0[batch], gamma)
            if not np.isfinite(loss):
                raise DivergenceError("training loss became non-finite", epoch)
            epoch_loss += loss
            batches += 1
            for p, v, grad in zip(model.parameters(), velocity, grads):
                v *= config.momentum
                v += grad + config.weight_decay * p
                p -= config.learning_rate * v
        history.append(epoch_loss / batches)
    return model, history


def grad_check(model: MlpModel, gamma: float, x: float, y: int, step: float = 1e-5) -> float:
    """Max relative error of the analytic gradient vs central differences.

    Perturbs every parameter of the model in place (restoring it), using
    the single sample ``(x, y)`` and the focal loss at ``gamma``.
    """
    gamma = require_gamma(gamma)
    xb = np.array([[float(x)]])
    yb0 = np.array([int(y) - 1])
    if not 0 <= yb0[0] < model.k:
        raise DomainError(f"label {y} outside [1..{model.k}]")

    def loss_at() -> float:
        logits, _, _ = model._forward(xb)
        probs = softmax(logits)
        return float(_loss_rows(probs[0, yb0], gamma).mean())

    _, grads = _batch_gradients(model, xb, yb0, gamma)
    worst = 0.0
    for param, grad in zip(model.parameters(), grads):
        flat_p = param.reshape(-1)
        flat_g = grad.reshape(-1)
        for idx in range(flat_p.size):
            original = flat_p[idx]
            flat_p[idx] = original + step
            plus = loss_at()
            flat_p[idx] = original - step
            minus = loss_at()
            flat_p[idx] = original
            numeric = (plus - minus) / (2.0 * step)
            scale = max(abs(numeric), abs(flat_g[idx]), 1e-8)
            worst = max(worst, abs(numeric - flat_g[idx]) / scale)
    return worst


@dataclass(frozen=True)
class PanelReport:
    """Error rate, mean grid KLD and test ECE for one model/transform.

    ``grid_scores`` holds the scored (and, with a recovery gamma,
    transformed) rows on the evaluation grid that the KLD averages over.
    """

    err: float
    mean_kld: float
    ece: float
    grid_scores: np.ndarray
    gamma_for_recovery: float | None = None


def evaluate_panel(
    predict,
    dist: SyntheticDistribution,
    grid,
    test_n: int = 10_000,
    seed: int = 0,
    gamma_for_recovery: float | None = None,
    n_bins: int = 10,
) -> PanelReport:
    """Score a predictor against the analytic posterior.

    ``predict`` maps an array of scalar inputs to ``(n, k)`` probability
    rows, e.g. ``model.predict_proba`` or ``dist.posterior``.  KLD is
    averaged over ``grid`` against ``dist.posterior``; error rate and ECE
    come from a fresh test sample.  When ``gamma_for_recovery`` is given
    the scores are passed through the recovery transform first (which
    cannot change the error rate).
    """
    xs = np.asarray(grid, dtype=float)
    x_test, y_test = dist.sample(test_n, seed)
    q_grid = predict(xs)
    q_test = predict(x_test)
    if gamma_for_recovery is not None:
        g = require_gamma(gamma_for_recovery)
        q_grid = recover_posterior_rows(q_grid / q_grid.sum(axis=1, keepdims=True), g)
        q_test = recover_posterior_rows(q_test / q_test.sum(axis=1, keepdims=True), g)
    preds = PredictionSet(q_test, y_test, ScoreKind.PROBABILITIES)
    return PanelReport(
        err=error_rate(preds),
        mean_kld=float(kld_rows(dist.posterior(xs), q_grid).mean()),
        ece=ece(preds, n_bins),
        grid_scores=q_grid,
        gamma_for_recovery=gamma_for_recovery,
    )
