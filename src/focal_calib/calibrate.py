"""Post-hoc calibration operators over prediction sets.

Two independent operators that may be chained in any order:

* temperature scaling (divide logits by a fitted scalar before softmax),
* the closed-form posterior recovery transform applied row-wise.

Temperature fitting minimizes the focal loss at ``gamma`` on a validation
set, which at ``gamma == 0`` is the negative log-likelihood, over ``t`` in
``[0.01, 100]`` by a bracketed Newton solve in ``beta = 1 / t``.  One pass
over the logits gives the objective and its first two derivatives in
``beta``.  An optimum at an end of the range is returned exactly, and the
reported optimum is ``t == 1`` unless the fit strictly beats it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _BLOCK, CLAMP_EPS, _recover_rows, require_gamma
from .errors import DomainError, EmptyDataError
from .metrics import PredictionSet, ScoreKind

T_MIN, T_MAX = 0.01, 100.0
_BETA_MIN, _BETA_MAX = 1.0 / T_MAX, 1.0 / T_MIN
_BETA_RTOL = 1e-9       # relative Newton step, or bracket width, that ends the fit
_MAX_PASSES = 64        # above the ~35 passes of bisecting log beta alone
_LOG_EPS = math.log(CLAMP_EPS)


@dataclass(frozen=True)
class TemperatureFit:
    """Fitted temperature and the focal objective value it achieved.

    ``achieved <= baseline`` always holds, where ``baseline`` is the
    objective at ``t == 1`` on the fitting set; ``gamma == 0`` is NLL.
    """

    temperature: float
    gamma: float
    achieved: float
    baseline: float


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; accepts a vector or an (n, k) matrix."""
    arr = np.asarray(z, dtype=float)
    # one new array besides the input: exp and the division run in place
    out = arr - arr.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


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


def _temperature_pass(
    z: np.ndarray, zmax: np.ndarray, label_w: np.ndarray, beta: float, g: float
) -> tuple[float, float, float, bool]:
    """The objective at ``beta = 1 / t``, its first two ``beta``-derivatives,
    and whether any row's label probability sits on the floor.

    One softmax of ``beta * z`` per row gives ``ell = log p_y``,
    ``d = z_y - E_p[z]`` and ``var = Var_p(z)``.  With the focal kernel
    written in ``ell``, ``phi(ell) = -(1 - e^ell)^g * ell``:

        F = sum phi,   F' = sum phi' d,   F'' = sum (phi'' d^2 - phi' var).

    ``ell`` is floored at ``log(CLAMP_EPS)``, and a floored row adds a
    constant.  ``zmax`` is each row's largest logit and ``label_w`` its
    label logit minus ``zmax``.  Rows go in blocks of about ``_BLOCK``
    entries through two reused buffers.
    """
    n, k = z.shape
    step = max(1, _BLOCK // k)
    w_buf = np.empty((min(step, n), k))
    e_buf = np.empty_like(w_buf)
    f = f1 = f2 = 0.0
    floored = False
    for start in range(0, n, step):
        stop = min(start + step, n)
        w, e = w_buf[: stop - start], e_buf[: stop - start]
        # moments of w = z - zmax stay accurate when p sits on the top logit
        np.subtract(z[start:stop], zmax[start:stop, None], out=w)
        np.multiply(w, beta, out=e)
        np.exp(e, out=e)
        s = e.sum(axis=1)
        mean = np.einsum("ij,ij->i", e, w) / s
        e *= w
        var = np.einsum("ij,ij->i", e, w) / s - mean * mean
        lw = label_w[start:stop]
        ell = beta * lw - np.log(s)
        active = ell > _LOG_EPS
        floored = floored or not active.all()
        ell = np.maximum(ell, _LOG_EPS)
        d = (lw - mean) * active
        var *= active
        if g == 0.0:
            f -= ell.sum()
            f1 -= d.sum()
            f2 += var.sum()
            continue
        u = -np.expm1(ell)
        p = np.exp(ell)
        ug = u**g
        # ell / u -> -1 and d / u stays within the spread of z as u -> 0
        positive = u > 0.0
        rho = np.divide(ell, u, out=np.full_like(u, -1.0), where=positive)
        d_u = np.divide(d, u, out=np.zeros_like(u), where=positive)
        slope = ug * (g * p * rho - 1.0)
        f -= (ug * ell).sum()
        f1 += (slope * d).sum()
        f2 += (g * p * ug * d_u * d * (ell - (g - 1.0) * p * rho + 2.0) - slope * var).sum()
    return f, f1, f2, floored


def _solve_beta(evaluate, beta: float, state: tuple, hi: float, hi_seen: bool):
    """Safeguarded Newton solve of ``dF/dbeta = 0`` from an evaluated point.

    Steps are capped at a factor of 2 and kept inside ``[lo, hi]``, a
    bracket across which the slope turns from negative to positive; an end
    not yet evaluated only bounds it.  Where the curvature is not positive,
    or a step would leave the bracket, the untested end on the downhill
    side is tested, or else ``log beta`` is bisected.  Returns the last
    point and its ``evaluate`` result.
    """
    lo, lo_seen = _BETA_MIN, False
    last_newton = 0.0
    for _ in range(_MAX_PASSES):
        _, f1, f2, _ = state
        if f1 < 0.0:
            lo, lo_seen = beta, True
        elif f1 > 0.0:
            hi, hi_seen = beta, True
        else:
            break
        if hi <= lo * (1.0 + _BETA_RTOL):
            break
        nxt = None
        if f2 > 0.0:
            newton = -f1 / f2
            if abs(newton) <= _BETA_RTOL * beta:
                break
            # Newton steps that do not shrink are not converging, as on an
            # exponential tail of F toward an end of the range: double instead
            step = newton
            if newton * last_newton > 0.0 and abs(newton) >= 0.9 * abs(last_newton):
                step = math.copysign(math.inf, newton)
            last_newton = newton
            nxt = min(max(beta + step, 0.5 * beta), 2.0 * beta)
        if nxt is None or not lo < nxt < hi:
            if f1 < 0.0 and not hi_seen:
                nxt = hi
            elif f1 > 0.0 and not lo_seen:
                nxt = lo
            else:
                nxt = math.sqrt(lo * hi)
        beta = nxt
        state = evaluate(beta)
    return beta, state


def fit_temperature(preds: PredictionSet, gamma: float = 0.0) -> TemperatureFit:
    """Fit the temperature minimizing the focal loss at ``gamma`` (NLL at 0).

    Over ``[T_MIN, T_MAX]``, a safeguarded Newton solve of ``dF/dbeta = 0``
    in ``beta = 1 / t`` from ``t == 1`` (see ``_solve_beta``) lands on a
    local minimum, to a relative ``1e-9`` in ``beta``, or returns ``T_MIN``
    or ``T_MAX`` exactly when the slope there points out of the range.  If some label
    probabilities sit on the ``CLAMP_EPS`` floor there, a second solve
    starts from ``T_MAX`` and the lower of the two is kept.  The fit falls
    back to ``t == 1`` unless it strictly beats it, so ``achieved`` never
    exceeds the baseline.
    """
    g = require_gamma(gamma)
    if preds.n == 0:
        raise EmptyDataError("cannot fit a temperature on an empty dataset")
    z = _as_logits(preds)
    zmax = z.max(axis=1)
    label_w = z[np.arange(preds.n), preds.labels - 1] - zmax

    def evaluate(beta: float) -> tuple:
        return _temperature_pass(z, zmax, label_w, beta, g)

    state = evaluate(1.0)
    baseline = state[0]
    beta, (f, _, _, floored) = _solve_beta(evaluate, 1.0, state, _BETA_MAX, False)
    if floored and beta > _BETA_MIN:
        # a floored row is flat in beta, and its log p_y, concave in beta
        # and -log k at 0, only rises again at smaller beta: a lower
        # minimum may lie there, out of sight of the slope
        low_beta, low = _solve_beta(evaluate, _BETA_MIN, evaluate(_BETA_MIN), beta, True)
        if low[0] < f:
            beta, f = low_beta, low[0]
    t, achieved = 1.0 / beta, f
    if not achieved < baseline:
        t, achieved = 1.0, baseline
    return TemperatureFit(t, g, achieved, baseline)


def scale_dataset(preds: PredictionSet, t: float) -> PredictionSet:
    """Temperature-scale a logit (or probability) set into probabilities."""
    probs = apply_temperature(_as_logits(preds), t)
    return preds.replace_scores(probs, ScoreKind.PROBABILITIES)


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
    # rows is a fresh copy that already meets SIMPLEX_TOL, so the in-place
    # kernel takes it as it is
    return preds.replace_scores(_recover_rows(rows, g), ScoreKind.PROBABILITIES)
