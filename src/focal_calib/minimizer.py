"""Pointwise focal risk and its minimizer on the probability simplex.

Given a true posterior ``eta``, the pointwise conditional focal risk of a
score vector ``q`` is

    W(q; eta) = -sum_y eta_y * (1 - q_y)^gamma * log(q_y),

a convex function of ``q`` on the simplex (:func:`focal_calib.core.focal_loss`
of ``q`` against the target ``eta``).  Its minimizer satisfies the
stationarity condition ``s_g(q_i) = c * eta_i`` for a scalar ``c`` making
the entries sum to one, where ``s_g`` is the strictly increasing
:func:`focal_calib.core.recovery_score` map.  Two independent solvers are
provided:

* :func:`minimize_risk_inverse` solves the stationarity condition by
  Newton's method on the one log-domain score map, ``core._log_score``,
  for a whole ``(n, k)`` stack of posteriors at once.
* :func:`minimize_risk_pg` runs projected gradient descent with Euclidean
  projection onto the simplex and a backtracking line search, touching
  none of the score-map machinery.

Agreement between the two is the main numerical cross-check of the
recovery transform: applying ``recover_posterior`` to either solution
reproduces ``eta``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    SIMPLEX_TOL,
    argmax_lowest,
    as_simplex,
    focal_loss,
    require_gamma,
    validate_simplex_rows,
)
from .errors import ConvergenceError, DimensionError, DomainError

_NEWTON_ITERS = 100        # cap on Newton steps per inverse solve
_SUM_TOL = 1e-12
_CAP_SUM_TOL = 1e-9        # sum defect still accepted at the step cap
_STEP_TOL = 1e-14          # largest q_i move of the Newton step left undone
_Q_MIN = np.nextafter(0.0, 1.0)
_Q_MAX = np.nextafter(1.0, 0.0)
_GRAD_EPS = 1e-12
_KKT_SUPPORT_FLOOR = 1e-9


@dataclass(frozen=True)
class RiskMinimizerResult:
    """Solution of one pointwise risk minimization, or of a stack of them.

    For a single posterior ``q_star`` is a vector and ``risk`` a float;
    for an ``(n, k)`` stack they are an ``(n, k)`` array and an ``(n,)``
    array.  ``iterations`` (an ``int``) and ``residual`` (a ``float``) are
    the solver's own measures, the largest over the rows: Newton steps and
    the simplex-sum defect for the inverse solver, iterations and the
    scaled KKT residual for projected gradient.
    """

    q_star: np.ndarray
    risk: float | np.ndarray
    iterations: int
    residual: float


def _newton_rows(eta: np.ndarray, g: float, tol: float) -> tuple[np.ndarray, int, float]:
    """Solve ``log s_g(q_i) = log c + log eta_i``, ``sum(q) = 1`` per row.

    Rows need ``g > 0`` and at least two positive entries; entries with
    ``eta_i == 0`` get ``q_i == 0`` exactly.  The unknowns are the logits
    ``x_i = log(q_i / (1 - q_i))``, in which ``log s_g`` runs from slope 1
    (``q -> 0``) to slope ``g`` (``q -> 1``), and ``t = log c``.  Each step
    is Newton's method on the pair with the sum constraint bordered in:

        dx_i = (dt - r_i) / d_i,   dt = (sum_i w_i r_i - (sum q - 1)) / sum_i w_i,

    with residuals ``r_i = log s_g(q_i) - t - log eta_i``, slopes
    ``d_i = d log s_g / dx_i`` and weights ``w_i = q_i (1 - q_i) / d_i``.
    The solution keeps the posterior order and sums to 1, so its largest
    entry is at least ``1/m`` and its smallest at most ``1/m`` on a
    support of ``m`` classes.  That brackets ``t`` between
    ``log s_g(1/m) - log max(eta)`` and ``log s_g(1/m) - log min(eta)``; a
    step that would leave the bracket goes halfway to its edge instead.
    Without that guard the steps can cycle on peaked posteriors at large
    ``g``.  A row stops once ``|sum(q) - 1| <= tol`` and the next Newton
    step would move no ``q_i`` by more than ``_STEP_TOL``, well above the
    rounding noise of that step (about ``eps``) and well below what the
    round trip through the transform can see.
    """
    support = eta > 0.0
    log_eta = np.log(np.where(support, eta, 1.0))
    m = support.sum(axis=1)
    anchor = core._log_score(1.0 / m, g)
    t_lo = anchor - np.log(np.where(support, eta, 0.0).max(axis=1))
    t_hi = anchor - np.log(np.where(support, eta, np.inf).min(axis=1))
    # start from eta flattened to the power 1 / (1 + g), the two-class
    # solution's scaling as its smaller posterior goes to 0
    power = np.where(support, log_eta / (1.0 + g), -np.inf)
    power -= power.max(axis=1, keepdims=True)
    log_q0 = power - np.log(np.exp(power).sum(axis=1, keepdims=True))
    x = np.where(support, log_q0 - np.log1p(-np.exp(log_q0).clip(max=_Q_MAX)), 0.0)
    # the first step does not depend on t; starting inside the bracket
    # keeps every later t inside it
    t = t_lo.copy()

    q_star = np.zeros_like(eta)
    rows = np.arange(eta.shape[0])
    steps, residual = 0, 0.0
    while True:
        sup, xs, ts = support[rows], x[rows], t[rows]
        # q = 1 / (1 + exp(-x)), with no overflow at either end
        q = np.where(sup, np.exp(-np.logaddexp(0.0, -xs)).clip(_Q_MIN, _Q_MAX), 0.5)
        om = 1.0 - q
        log_q = np.log(q)
        slope = om + g * q - g * q * (q - 1.0 - log_q) / (om + g * q * -log_q)
        r = np.where(sup, core._log_score(q, g) - ts[:, None] - log_eta[rows], 0.0)
        w = np.where(sup, q * om / slope, 0.0)
        defect = np.where(sup, q, 0.0).sum(axis=1) - 1.0
        stationary = (w * np.abs(r)).max(axis=1) <= _STEP_TOL
        if steps == _NEWTON_ITERS:
            # a tol below the rounding of the sum cannot be met; such a row
            # is kept once its defect is within _CAP_SUM_TOL
            tol = max(tol, _CAP_SUM_TOL)
        done = (np.abs(defect) <= tol) & stationary
        if done.any():
            q_star[rows[done]] = np.where(sup[done], q[done], 0.0)
            residual = max(residual, float(np.abs(defect[done]).max()))
        if done.all():
            return q_star, steps, residual
        if steps == _NEWTON_ITERS:
            raise ConvergenceError(
                "Newton iteration did not reach tolerance", float(np.abs(defect[~done]).max())
            )
        steps += 1
        keep = ~done
        rows, sup, xs, ts = rows[keep], sup[keep], xs[keep], ts[keep]
        r, w, slope, defect = r[keep], w[keep], slope[keep], defect[keep]
        t_new = ts + ((w * r).sum(axis=1) - defect) / w.sum(axis=1)
        lo, hi = t_lo[rows], t_hi[rows]
        t_new = np.where(t_new < lo, 0.5 * (ts + lo), np.where(t_new > hi, 0.5 * (ts + hi), t_new))
        x[rows] = np.where(sup, xs + ((t_new - ts)[:, None] - r) / slope, 0.0)
        t[rows] = t_new


def _row_risks(q: np.ndarray, eta: np.ndarray, g: float) -> np.ndarray:
    # focal_loss(q_row, eta_row) for each row; q is positive wherever eta is
    active = eta > 0.0
    terms = core._focal_terms(np.where(active, q, 1.0), g)
    return -np.where(active, eta * terms, 0.0).sum(axis=1)


def minimize_risk_inverse(eta, gamma: float, tol: float = _SUM_TOL) -> RiskMinimizerResult:
    """Minimize the pointwise risk by solving the stationarity condition.

    ``eta`` is one posterior or an ``(n, k)`` stack of them, each solved
    independently (a vector is the one-row case).  Classes with
    ``eta_i == 0`` receive ``q_i == 0`` exactly, a one-class support gets
    its one-hot vector and ``gamma == 0`` returns ``eta``.  Otherwise a
    safeguarded Newton iteration on the log-domain score map drives
    ``|sum(q) - 1|`` below ``tol`` for every row, and the returned
    ``residual`` is the largest such defect.  A row still short of a
    ``tol`` below float resolution after a fixed number of steps is kept
    if its defect is at most 1e-9; otherwise ``ConvergenceError`` is
    raised.
    """
    g = require_gamma(gamma)
    if tol <= 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")
    arr = np.asarray(eta, dtype=float)
    single = arr.ndim == 1
    ee = as_simplex(arr)[None, :] if single else validate_simplex_rows(arr, SIMPLEX_TOL).clip(0.0, 1.0)
    q = ee.copy()
    iterations, residual = 0, 0.0
    if g > 0.0:
        support = ee > 0.0
        one_class = support.sum(axis=1) == 1
        q[one_class] = support[one_class]
        general = ~one_class
        if general.any():
            q[general], iterations, residual = _newton_rows(ee[general], g, tol)
    risk = _row_risks(q, ee, g)
    if single:
        return RiskMinimizerResult(q[0], float(risk[0]), iterations, residual)
    return RiskMinimizerResult(q, risk, iterations, residual)


def project_to_simplex(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionError(f"expected a 1-D vector, got shape {arr.shape}")
    u = np.sort(arr)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, arr.size + 1)
    rho = ind[u - css / ind > 0][-1]
    theta = css[rho - 1] / rho
    return np.maximum(arr - theta, 0.0)


def _risk_value(q: np.ndarray, eta: np.ndarray, g: float) -> float:
    qc = q.clip(_GRAD_EPS, 1.0)
    return float(-(eta * core._focal_terms(qc, g)).sum())


def _risk_gradient(q: np.ndarray, eta: np.ndarray, g: float) -> np.ndarray:
    qc = q.clip(_GRAD_EPS, 1.0 - _GRAD_EPS)
    om = 1.0 - qc
    return eta * (g * om ** (g - 1.0) * np.log(qc) - om**g / qc)


def _kkt_residual(q: np.ndarray, eta: np.ndarray, g: float) -> float:
    """Scaled stationarity defect: gradient spread on the support plus any
    off-support component that undercuts the common multiplier."""
    grad = _risk_gradient(q, eta, g)
    supp = q > _KKT_SUPPORT_FLOOR
    gs = grad[supp]
    r = float(gs.max() - gs.min())
    if np.any(~supp):
        r = max(r, max(0.0, float(gs.mean() - grad[~supp].min())))
    return r / max(1.0, float(np.abs(gs).max()))


def minimize_risk_pg(
    eta,
    gamma: float,
    tol: float = 1e-9,
    max_iters: int = 100_000,
) -> RiskMinimizerResult:
    """Minimize the pointwise risk by projected gradient descent.

    First-order oracle independent of the score-map inversion: Euclidean
    projection onto the simplex, monotone backtracking line search
    (halving until sufficient decrease, re-doubling between iterations).
    Stops when the scaled KKT residual falls below ``tol`` or when the
    iterate can no longer move in float64 (the line search stalls at
    machine precision, which on this convex objective is numerical
    optimality; the achieved residual is reported in the result).  Raises
    ``ConvergenceError`` carrying the residual only when the iteration cap
    is exhausted first.
    """
    g = require_gamma(gamma)
    if tol <= 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")
    ee = as_simplex(eta)
    k = ee.size
    q = np.full(k, 1.0 / k)
    f = _risk_value(q, ee, g)
    step = 1.0
    for t in range(1, max_iters + 1):
        grad = _risk_gradient(q, ee, g)
        step = min(step * 2.0, 1e6)
        cand, fc = q, f
        for _ in range(80):
            cand = project_to_simplex(q - step * grad)
            fc = _risk_value(cand, ee, g)
            d = cand - q
            if fc <= f + 1e-4 * float(grad @ d) or np.abs(d).max() < 1e-17:
                break
            step *= 0.5
        moved = float(np.abs(cand - q).max())
        q, f = cand, fc
        if t % 20 == 0 or moved < 1e-15:
            residual = _kkt_residual(q, ee, g)
            if residual <= tol or moved < 1e-15:
                return RiskMinimizerResult(q, focal_loss(q, ee, g), t, residual)
    residual = _kkt_residual(q, ee, g)
    if residual > tol:
        raise ConvergenceError("projected gradient hit the iteration cap", residual)
    return RiskMinimizerResult(q, focal_loss(q, ee, g), max_iters, residual)


def confidence_curve(k: int, gamma: float, grid_size: int = 100) -> list[tuple[float, float]]:
    """Top true posterior vs. top minimizer score, on a uniform-tail family.

    For each grid value ``m`` strictly inside ``(1/k, 1)`` the posterior is
    ``[m, (1-m)/(k-1), ...]`` (remaining mass spread uniformly) and the
    returned pair is ``(m, max(q*))``; the whole grid is one call of
    :func:`minimize_risk_inverse`.  With ``k == 2`` the curve lies below
    the diagonal; for large ``k`` and small ``gamma`` it crosses above
    near ``1/k``.
    """
    if k < 2:
        raise DomainError(f"need k >= 2 classes, got {k}")
    if grid_size < 1:
        raise DomainError(f"grid_size must be >= 1, got {grid_size}")
    g = require_gamma(gamma)
    tops = 1.0 / k + (np.arange(1, grid_size + 1) / (grid_size + 1.0)) * (1.0 - 1.0 / k)
    etas = np.repeat(((1.0 - tops) / (k - 1))[:, None], k, axis=1)
    etas[:, 0] = tops
    q_top = minimize_risk_inverse(etas, g).q_star.max(axis=1)
    return list(zip(tops.tolist(), q_top.tolist()))


def preserves_order(q, eta) -> bool:
    """Check ``q_i < q_j  =>  eta_i < eta_j`` for every index pair."""
    qq = np.asarray(q, dtype=float)
    ee = np.asarray(eta, dtype=float)
    if qq.shape != ee.shape:
        raise DimensionError(f"shapes differ: {qq.shape} vs {ee.shape}")
    less = qq[:, None] < qq[None, :]
    return bool(np.all(~less | (ee[:, None] < ee[None, :])))


def argmax_matches(q, eta) -> bool:
    """True when both vectors share the same lowest-index argmax."""
    return argmax_lowest(q) == argmax_lowest(eta)
