"""Post-hoc calibration operators over prediction sets.

Three independent operators that may be chained in any order:

* temperature scaling (divide logits by a fitted scalar before softmax),
* the closed-form posterior recovery transform applied row-wise,
* label smoothing as a target transform.

Temperature fitting is a 1-D golden-section search of the validation
objective (negative log-likelihood or focal loss) over ``t`` in
``[0.01, 100]``; the reported optimum is never worse than ``t == 1``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import CLAMP_EPS, _focal_terms, one_hot, recover_posterior_rows, require_gamma
from .errors import DomainError, EmptyDataError
from .metrics import PredictionSet, ScoreKind

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
T_MIN, T_MAX = 0.01, 100.0
_T_TOL = 1e-6


class Objective(enum.Enum):
    NLL = "nll"
    FOCAL = "focal"


@dataclass(frozen=True)
class TemperatureFit:
    """Fitted temperature and the objective value it achieved.

    ``achieved <= baseline`` always holds, where ``baseline`` is the
    objective at ``t == 1`` on the fitting set.
    """

    temperature: float
    objective: Objective
    gamma: float
    achieved: float
    baseline: float


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; accepts a vector or an (n, k) matrix."""
    arr = np.asarray(z, dtype=float)
    shifted = arr - arr.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def apply_temperature(logits, t: float) -> np.ndarray:
    """``softmax(logits / t)``; ``t == 1`` is plain softmax.

    Monotone in each row, so the argmax never changes.  Accepts a single
    score vector or an ``(n, k)`` matrix.
    """
    if not np.isfinite(t) or t <= 0.0:
        raise DomainError(f"temperature must be > 0, got {t!r}")
    return softmax(np.asarray(logits, dtype=float) / t)


def _as_logits(preds: PredictionSet) -> np.ndarray:
    """Logit rows; probability rows are sent through a clamped log.

    Logits are defined up to an additive per-row constant, which the
    softmax absorbs.
    """
    if preds.kind is ScoreKind.LOGITS:
        return preds.scores
    return np.log(np.clip(preds.scores, CLAMP_EPS, 1.0))


def _objective_value(
    logits: np.ndarray, labels: np.ndarray, t: float, objective: Objective, gamma: float
) -> float:
    probs = apply_temperature(logits, t)
    label_p = np.clip(probs[np.arange(len(labels)), labels - 1], CLAMP_EPS, 1.0)
    g = 0.0 if objective is Objective.NLL else gamma
    return float(-_focal_terms(label_p, g).sum())


def fit_temperature(
    preds: PredictionSet,
    objective: Objective = Objective.NLL,
    gamma: float = 0.0,
) -> TemperatureFit:
    """Golden-section search for the temperature minimizing the objective.

    Searches ``[T_MIN, T_MAX]`` to within ``1e-6`` in ``t`` and falls back
    to ``t == 1`` if the line search cannot beat it, so ``achieved`` never
    exceeds the baseline.
    """
    g = require_gamma(gamma)
    if preds.n == 0:
        raise EmptyDataError("cannot fit a temperature on an empty dataset")
    logits = _as_logits(preds)

    def f(t: float) -> float:
        return _objective_value(logits, preds.labels, t, objective, g)

    a, b = T_MIN, T_MAX
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _T_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    t_star = 0.5 * (a + b)
    achieved = f(t_star)
    baseline = f(1.0)
    if baseline < achieved:
        t_star, achieved = 1.0, baseline
    return TemperatureFit(t_star, objective, g, achieved, baseline)


def scale_dataset(preds: PredictionSet, t: float) -> PredictionSet:
    """Temperature-scale a logit (or probability) set into probabilities."""
    probs = apply_temperature(_as_logits(preds), t)
    return preds.replace_scores(probs, ScoreKind.PROBABILITIES)


def smooth_labels(y: int, k: int, eps: float) -> np.ndarray:
    """Soft target ``(1 - eps) * e_y + eps / k`` for 1-based label ``y``."""
    if not 0.0 <= eps < 1.0:
        raise DomainError(f"smoothing parameter must lie in [0, 1), got {eps!r}")
    return (1.0 - eps) * one_hot(y, k) + eps / k


def apply_psi_dataset(preds: PredictionSet, gamma: float) -> PredictionSet:
    """Apply the posterior recovery transform to every probability row.

    Labels are untouched and the per-row argmax is preserved, so the
    error rate cannot change.  Rows are clipped into [0, 1] and exactly
    normalized first: a prediction set tolerates entries and sums off by
    ``ROW_SUM_TOL`` while the transform itself demands ``SIMPLEX_TOL``.
    """
    g = require_gamma(gamma)
    if preds.kind is not ScoreKind.PROBABILITIES:
        raise DomainError("the recovery transform applies to probability rows, not logits")
    if g == 0.0:
        return preds.replace_scores(preds.scores.copy(), ScoreKind.PROBABILITIES)
    rows = preds.scores.clip(0.0, 1.0)
    rows /= rows.sum(axis=1, keepdims=True)
    return preds.replace_scores(recover_posterior_rows(rows, g), ScoreKind.PROBABILITIES)
