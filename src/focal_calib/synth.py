"""Synthetic 1-D Gaussian-mixture experiment.

A small, fully deterministic pipeline for studying confidence recovery
where the true posterior is known analytically: sample a K-class 1-D
Gaussian mixture, train two-hidden-layer softmax MLPs with the focal or
cross-entropy loss by minibatch SGD (momentum + weight decay), several
gammas at once in one lockstep loop over stacked weights, and report
error rate, mean KL divergence to the analytic posterior over a grid, and
expected calibration error: raw, temperature-scaled and recovered.

Everything is seeded; a model's trained weights depend only on its seed,
data and hyperparameters, not on the stack it trains in.  So
``run_experiment``, the library entry of the ``synth`` command, trains its
runs in contiguous groups, one per CPU, each a lockstep stack in its own
forked process, bit-identical to one process training every run.  The
command writes its dataset and posterior and density panels before that.

``MlpModel.predict_logits`` runs over fixed-size row blocks, and a panel's
test rows are built only when it runs, so memory grows with ``n_test * k``,
not ``n_test * hidden``: on 2 vCPUs ``synth`` peaks at about 52 MB RSS at the
default config and 155 MB at ``n_test = 1000000`` (``wait4``, by a launcher).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .calibrate import apply_temperature, fit_temperature, softmax
from .core import (
    CLAMP_EPS,
    _focal_terms,
    recover_posterior_rows,
    require_count,
    require_gamma,
    require_seed,
)
from .errors import DimensionError, DivergenceError, DomainError, EmptyDataError
from .io import _cpu_count, _results
from .metrics import PredictionSet, ScoreKind, error_rate, ece, kld_rows

_GRAD_STEP = 1e-5          # central-difference step of grad_check
_FORWARD_ROWS = 8192       # rows per block of MlpModel.predict_logits


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
        # each check is written so that a NaN fails it
        if not (abs(sum(self.priors) - 1.0) <= 1e-9 and min(self.priors) > 0.0):
            raise DomainError("priors must be positive and sum to 1")
        if not all(math.isfinite(m) for m in self.means):
            raise DomainError("all means must be finite")
        if not all(0.0 < s < math.inf for s in self.sigmas):
            raise DomainError("all sigmas must be finite and > 0")

    @property
    def k(self) -> int:
        return len(self.priors)

    def joint_density(self, x) -> np.ndarray:
        """Per-class joint density p(x, y) as an (n, k) matrix."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        pri = np.asarray(self.priors)
        mu = np.asarray(self.means)
        sd = np.asarray(self.sigmas)
        # a z or z * z that overflows is a density of 0, its limit
        with np.errstate(over="ignore"):
            z = (xs[:, None] - mu) / sd
            tail = np.exp(-0.5 * z * z)
        return pri * tail / (sd * np.sqrt(2.0 * np.pi))

    def posterior(self, x) -> np.ndarray:
        """Analytic class posterior; rows are valid probability vectors.

        Computed in the log domain, ``log prior - log sigma - z**2 / 2``
        shifted by each row's maximum, so a row whose joint densities all
        underflow (a narrow component, or ``x`` far from every mean) still
        normalizes.  Where even every ``z**2`` overflows, the component
        nearest in units of its sigma takes all the mass, as it does in the
        limit.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        mu = np.asarray(self.means)
        sd = np.asarray(self.sigmas)
        with np.errstate(over="ignore"):  # as in joint_density
            z = (xs[:, None] - mu) / sd
            log_joint = np.log(self.priors) - np.log(sd) - 0.5 * z * z
        top = log_joint.max(axis=1, keepdims=True)
        far = np.isneginf(top[:, 0])
        if far.any():
            log_z = np.log(np.abs(xs[far, None] - mu)) - np.log(sd)
            log_joint[far] = np.where(log_z == log_z.min(axis=1, keepdims=True), 0.0, -np.inf)
            top[far] = 0.0
        post = np.exp(log_joint - top)
        post /= post.sum(axis=1, keepdims=True)
        return post[0] if np.ndim(x) == 0 else post

    def sample(self, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` pairs ``(x, y)`` with 1-based labels, deterministically."""
        n = require_count(n, "n", 1)
        rng = np.random.default_rng(require_seed(seed))
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
        object.__setattr__(self, "seed", require_seed(self.seed))
        for name in ("epochs", "batch_size", "hidden"):
            # an integral float is kept as its int
            object.__setattr__(self, name, require_count(getattr(self, name), name, 1))
        # written so that a NaN fails them
        if not 0.0 < self.learning_rate < math.inf:
            raise DomainError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise DomainError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0.0 <= self.momentum < 1.0:
            raise DomainError("momentum must lie in [0, 1)")


class MlpModel:
    """1 -> hidden -> hidden -> k softmax network with ReLU activations.

    Weights initialize uniformly scaled by fan-in from the given seed.
    The first layer has a single input, so its product is a broadcast
    multiply, which rounds exactly as a one-term matmul does.
    """

    PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")

    def __init__(self, k: int, hidden: int, seed: int):
        k = require_count(k, "k", 2, "output classes")
        hidden = require_count(hidden, "hidden", 1)
        self.k = k
        self.hidden = hidden
        self.seed = require_seed(seed)
        rng = np.random.default_rng(self.seed)

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

    def predict_logits(self, x) -> np.ndarray:
        """Output-layer logits for a batch of scalar inputs.

        The three layers run over blocks of ``_FORWARD_ROWS`` rows (all
        ``n`` rows when there are fewer), each block writing its logits
        into the one ``(n, k)`` result.  Biases and ReLUs are applied in
        place, so at most two ``(_FORWARD_ROWS, hidden)`` activations are
        alive at once, whatever ``n``.  Every block has the same row count,
        because BLAS may round a product of another shape differently: the
        last block starts at ``n - _FORWARD_ROWS`` and recomputes rows that
        the block before it wrote.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        n = xs.shape[0]
        rows = min(n, _FORWARD_ROWS)
        logits = np.empty((n, self.k))
        h1 = np.empty((rows, self.hidden))
        h2 = np.empty_like(h1)
        for start in range(0, n, _FORWARD_ROWS):
            start = min(start, n - rows)
            block = slice(start, start + rows)
            np.multiply(xs[block, None], self.w1, out=h1)
            h1 += self.b1
            np.maximum(h1, 0.0, out=h1)
            np.matmul(h1, self.w2, out=h2)
            h2 += self.b2
            np.maximum(h2, 0.0, out=h2)
            np.matmul(h2, self.w3, out=logits[block])
        logits += self.b3
        return logits

    def predict_proba(self, x) -> np.ndarray:
        """Softmax scores for a batch of scalar inputs; rows sum to one."""
        return softmax(self.predict_logits(x))

    def state(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name).copy() for name in self.PARAM_NAMES}


def _loss_rows(label_p: np.ndarray, gamma) -> np.ndarray:
    return -_focal_terms(label_p.clip(CLAMP_EPS, 1.0), gamma)


def _logit_gradient(
    probs: np.ndarray, label_p: np.ndarray, onehot: np.ndarray, gammas: np.ndarray
) -> np.ndarray:
    """Gradient of the per-sample loss wrt logits, averaged over the batch.

    ``probs`` is an ``(m, b, k)`` stack of softmax rows, ``label_p`` its
    ``(m, b)`` label entries, ``onehot`` the ``(b, k)`` labels and
    ``gammas`` each model's gamma, broadcast against ``label_p``.
    Written in the bounded product form
    ``[g (1-u)^(g-1) u log u - (1-u)^g] * (e_y - u)`` so nothing blows up
    as the label probability approaches 0 or 1; the coefficient is -1
    where ``g == 0``.
    """
    om = 1.0 - label_p
    with np.errstate(divide="ignore", invalid="ignore"):
        lead = gammas * om ** (gammas - 1.0) * label_p * np.log(np.clip(label_p, 1e-300, 1.0))
    coef = np.where(gammas == 0.0, -1.0, np.where(om > 0.0, lead - om**gammas, 0.0))
    return coef[..., None] * (onehot - probs) / probs.shape[1]


def _stack_gradients(params, x, onehot, labels0, gammas, grads) -> np.ndarray:
    """Mean batch loss of each of ``m`` stacked models; writes their gradients.

    ``params`` and ``grads`` are the ``(m, ...)`` parameter stacks in
    ``MlpModel.PARAM_NAMES`` order, ``x`` is the ``(b, 1)`` batch,
    ``onehot`` and ``labels0`` its labels, and ``gammas`` an ``(m, b)``
    array holding each model's gamma in its row.  Each slice of a stacked
    ``matmul`` runs the same product as a single model's, and a full
    ``gammas`` array (no stride-0 exponent) keeps numpy's power from
    switching to its scalar-exponent shortcuts (square, sqrt, reciprocal),
    which round differently from ``pow``.  So a model's numbers do not
    depend on the stack it trains in.
    """
    w1, b1, w2, b2, w3, b3 = params
    dw1, db1, dw2, db2, dw3, db3 = grads
    h1 = x * w1
    h1 += b1[:, None]
    np.maximum(h1, 0.0, out=h1)
    h2 = h1 @ w2
    h2 += b2[:, None]
    np.maximum(h2, 0.0, out=h2)
    logits = h2 @ w3
    logits += b3[:, None]
    probs = softmax(logits)
    # indexing leaves the (m, b) result in column order; the loss mean
    # must sum each row pairwise in C order, as a single model's does
    label_p = np.ascontiguousarray(probs[:, np.arange(labels0.size), labels0])
    dz = _logit_gradient(probs, label_p, onehot, gammas)
    np.matmul(h2.transpose(0, 2, 1), dz, out=dw3)
    dz.sum(axis=1, out=db3)
    dh = dz @ w3.transpose(0, 2, 1)
    np.putmask(dh, h2 <= 0.0, 0.0)
    np.matmul(h1.transpose(0, 2, 1), dh, out=dw2)
    dh.sum(axis=1, out=db2)
    dh = dh @ w2.transpose(0, 2, 1)
    np.putmask(dh, h1 <= 0.0, 0.0)
    np.matmul(x.T, dh, out=dw1)
    dh.sum(axis=1, out=db1)
    return _loss_rows(label_p, gammas).mean(axis=1)


def _stack_views(flat: np.ndarray, shapes, m: int) -> list[np.ndarray]:
    # consecutive (m, *shape) views of one flat buffer
    views, start = [], 0
    for shape in shapes:
        stop = start + m * math.prod(shape)
        views.append(flat[start:stop].reshape(m, *shape))
        start = stop
    return views


def train_mlp(
    x, y, config: TrainConfig | Sequence[TrainConfig], k: int | None = None
) -> tuple[MlpModel, list[float]] | list[tuple[MlpModel, list[float]]]:
    """Train by minibatch SGD with momentum and weight decay.

    With one ``TrainConfig`` returns the model and the mean training loss
    per epoch.  With a sequence of configs that differ only in ``gamma``
    returns a list of such pairs: the models share the seed, so also the
    initial weights and the batch order, and train in one lockstep loop
    over stacked weights, each exactly as it would train alone.  Raises
    ``DivergenceError`` (with the epoch index and gamma) if a loss goes
    non-finite.
    """
    configs = [config] if isinstance(config, TrainConfig) else list(config)
    if not configs:
        raise DomainError("need at least one TrainConfig")
    first = configs[0]
    if any(replace(c, gamma=first.gamma) != first for c in configs):
        raise DomainError("stacked TrainConfigs may differ only in gamma")
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=int)
    if xs.size == 0:
        raise EmptyDataError("no training data")
    if xs.shape != ys.shape:
        raise DimensionError(f"x shape {xs.shape} does not match y shape {ys.shape}")
    n_classes = k if k is not None else int(ys.max())
    if ys.min() < 1 or ys.max() > n_classes:
        raise DomainError(f"labels must lie in [1..{n_classes}]")

    m = len(configs)
    # each model's gamma repeated along its row (see _stack_gradients)
    gammas = np.repeat([[c.gamma] for c in configs], min(first.batch_size, xs.size), axis=1)
    init = MlpModel(n_classes, first.hidden, first.seed)
    shapes = [p.shape for p in init.parameters()]
    # one flat buffer each for weights, velocities and gradients, so the
    # update is a few whole-buffer operations
    weights = np.concatenate([np.tile(p.ravel(), m) for p in init.parameters()])
    velocity = np.zeros_like(weights)
    grads = np.empty_like(weights)
    step = np.empty_like(weights)
    params = _stack_views(weights, shapes, m)
    grad_views = _stack_views(grads, shapes, m)
    order_rng = np.random.default_rng(first.seed + 1)
    inputs = xs[:, None]
    labels0 = ys - 1
    onehot = np.eye(n_classes)[labels0]

    history = []
    for epoch in range(first.epochs):
        order = order_rng.permutation(xs.size)
        ep_inputs, ep_onehot, ep_labels = inputs[order], onehot[order], labels0[order]
        epoch_loss = np.zeros(m)
        batches = 0
        for start in range(0, xs.size, first.batch_size):
            batch = slice(start, start + first.batch_size)
            labels = ep_labels[batch]
            g_batch = gammas[:, : labels.size]
            epoch_loss += _stack_gradients(
                params, ep_inputs[batch], ep_onehot[batch], labels, g_batch, grad_views
            )
            batches += 1
            velocity *= first.momentum
            np.multiply(weights, first.weight_decay, out=step)
            step += grads
            velocity += step
            np.multiply(velocity, first.learning_rate, out=step)
            weights -= step
        # a finite batch loss is at most -log(CLAMP_EPS), so the sum is
        # non-finite exactly when some batch loss was
        bad = ~np.isfinite(epoch_loss)
        if bad.any():
            gamma = float(gammas[bad.argmax(), 0])
            raise DivergenceError(f"training loss became non-finite at gamma={gamma:g}", epoch)
        history.append(epoch_loss / batches)

    losses = np.array(history)
    results = []
    for i in range(m):
        model = MlpModel(n_classes, first.hidden, first.seed)
        for param, view in zip(model.parameters(), params):
            param[...] = view[i]
        results.append((model, losses[:, i].tolist()))
    return results[0] if isinstance(config, TrainConfig) else results


def grad_check(model: MlpModel, gamma: float, x: float, y: int) -> float:
    """Max relative error of the analytic gradient vs central differences.

    Perturbs every parameter of the model in place (restoring it), using
    the single sample ``(x, y)`` and the focal loss at ``gamma``.  The
    analytic gradient is the training kernel's, run on a stack of one.
    """
    gamma = require_gamma(gamma)
    xb = np.array([[float(x)]])
    yb0 = np.array([int(y) - 1])
    if not 0 <= yb0[0] < model.k:
        raise DomainError(f"label {y} outside [1..{model.k}]")

    def loss_at() -> float:
        probs = model.predict_proba(xb[0])
        return float(_loss_rows(probs[0, yb0], gamma).mean())

    params = [p[None] for p in model.parameters()]
    grads = [np.empty_like(p) for p in params]
    _stack_gradients(params, xb, np.eye(model.k)[yb0], yb0, np.array([[gamma]]), grads)
    worst = 0.0
    for param, grad in zip(model.parameters(), grads):
        flat_p = param.reshape(-1)
        flat_g = grad.reshape(-1)
        for idx in range(flat_p.size):
            original = flat_p[idx]
            flat_p[idx] = original + _GRAD_STEP
            plus = loss_at()
            flat_p[idx] = original - _GRAD_STEP
            minus = loss_at()
            flat_p[idx] = original
            numeric = (plus - minus) / (2.0 * _GRAD_STEP)
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


def evaluate_panel(
    q_grid: np.ndarray,
    eta_grid: np.ndarray,
    q_test: np.ndarray,
    y_test: np.ndarray,
    gamma_for_recovery: float | None = None,
    n_bins: int = 10,
) -> PanelReport:
    """Score probability rows against the analytic posterior.

    ``q_grid`` holds a model's rows on the evaluation grid, where
    ``eta_grid`` is the analytic posterior; KLD is averaged over the
    grid.  Error rate and ECE come from the test rows ``q_test`` and
    their 1-based labels ``y_test``.  When ``gamma_for_recovery`` is given
    the rows are passed through the recovery transform first (which
    cannot change the error rate).
    """
    if gamma_for_recovery is not None:
        g = require_gamma(gamma_for_recovery)
        q_grid = recover_posterior_rows(q_grid / q_grid.sum(axis=1, keepdims=True), g)
        q_test = recover_posterior_rows(q_test / q_test.sum(axis=1, keepdims=True), g)
    preds = PredictionSet(q_test, y_test, ScoreKind.PROBABILITIES)
    return PanelReport(
        err=error_rate(preds),
        mean_kld=float(kld_rows(eta_grid, q_grid).mean()),
        ece=ece(preds, n_bins),
        grid_scores=q_grid,
    )


def run_experiment(
    dist: SyntheticDistribution, base_config: TrainConfig, gammas, train, val, test, grid, n_bins
) -> list[tuple[str, MlpModel, list[float], list[tuple[str, PanelReport]]]]:
    """Train the cross-entropy and focal runs and score their panels.

    The runs are ``ce`` (gamma 0), then ``fl<g>`` for each of ``gammas``,
    trained on the ``(x, y)`` pairs ``train`` with ``base_config`` at their
    own gamma.  Each gets a ``_raw`` panel, and a focal run a ``_ts`` panel
    (temperature fitted on ``val``) and a ``_psi`` panel (recovered at its
    gamma), scored by ``evaluate_panel`` on ``grid`` and ``test`` with
    ``n_bins`` bins.  The runs train in contiguous groups, one per CPU, each
    a lockstep stack in its own forked process, and a divergence raises the
    ``DivergenceError`` of one stack of all runs (the earliest epoch, then
    the first run).  Returns ``(name, model, loss history, [(variant,
    PanelReport), ...])`` per run, in run order.
    """
    n_bins = require_count(n_bins, "n_bins", 1)
    # (run name, config, whether to add the _ts and _psi variants), all
    # checked here, before any process is forked
    runs = [("ce", replace(base_config, gamma=0.0), False)] + [
        (f"fl{g:g}", replace(base_config, gamma=g), True) for g in gammas
    ]
    (x_train, y_train), (x_val, y_val), (x_test, y_test) = train, val, test
    eta_grid = dist.posterior(grid)

    def train_and_score(group):
        # one lockstep stack of the runs, then every panel of each model.  A
        # DivergenceError is returned, not raised, so that the caller can
        # pick the one a stack of all runs raises.  Overflow and NaN need no
        # warning: a non-finite loss raises that error, and a non-finite
        # score (after a last update that overflows) fails its panel's check
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                stack = train_mlp(x_train, y_train, [c for _, c, _ in group], k=dist.k)
            except DivergenceError as exc:
                return exc
            return [
                (name, model, history, score(model, name, config.gamma, focal))
                for (name, config, focal), (model, history) in zip(group, stack)
            ]

    def score(model, name, gamma, focal):
        # one forward per input set; every variant is derived from its
        # logits, and each variant's test rows exist only while needed
        grid_logits = model.predict_logits(grid)
        test_logits = model.predict_logits(x_test)
        q_grid, q_test = softmax(grid_logits), softmax(test_logits)
        if focal:
            val_set = PredictionSet(model.predict_logits(x_val), y_val, ScoreKind.LOGITS)
            t = fit_temperature(val_set).temperature
        else:
            del test_logits

        def panel(variant, on_grid, on_test, recovery_gamma=None):
            report = evaluate_panel(on_grid, eta_grid, on_test, y_test, recovery_gamma, n_bins)
            return name + variant, report

        panels = [panel("_raw", q_grid, q_test)]
        if focal:
            ts_test = apply_temperature(test_logits, t)
            del test_logits
            panels.append(panel("_ts", apply_temperature(grid_logits, t), ts_test))
            del ts_test
            panels.append(panel("_psi", q_grid, q_test, gamma))
        return panels

    # contiguous groups of runs, one per CPU, each one job on the fork pool;
    # a model's bits do not depend on the stack it trains in
    n = min(_cpu_count(), len(runs))
    groups = [(runs[len(runs) * i // n : len(runs) * (i + 1) // n],) for i in range(n)]
    with _results(train_and_score, groups, n) as results:
        outcomes = list(results)

    diverged = [outcome for outcome in outcomes if isinstance(outcome, DivergenceError)]
    if diverged:
        # the error of one stack of all runs: the earliest epoch, then the
        # first run
        raise min(diverged, key=lambda exc: exc.epoch)
    return [run for outcome in outcomes for run in outcome]
