"""Pointwise focal risk and its minimizer on the probability simplex.

Given a true posterior ``eta``, the pointwise conditional focal risk of a
score vector ``q`` is

    W(q; eta) = -sum_y eta_y * (1 - q_y)^gamma * log(q_y),

a convex function of ``q`` on the simplex.  Its minimizer satisfies the
stationarity condition ``s_g(q_i) = c * eta_i`` for a scalar ``c`` making
the entries sum to one, where ``s_g`` is the strictly increasing
:func:`focal_calib.core.recovery_score` map.  Two independent solvers are
provided:

* :func:`minimize_risk_inverse` inverts the stationarity condition
  directly (per-coordinate bisection on ``s_g``, outer bisection on ``c``).
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
from .core import argmax_lowest, as_simplex, focal_loss, one_hot, require_gamma
from .errors import ConvergenceError, DimensionError, DomainError

_INNER_ITERS = 54          # bisection halvings per score-map inversion
_OUTER_ITERS = 120
_OUTER_SUM_TOL = 1e-12
_GRAD_EPS = 1e-12
_KKT_SUPPORT_FLOOR = 1e-9


@dataclass(frozen=True)
class RiskMinimizerResult:
    """Solution of one pointwise risk minimization.

    ``residual`` is the solver's own convergence measure: the simplex-sum
    defect for the inverse solver, the scaled KKT residual for projected
    gradient.
    """

    q_star: np.ndarray
    risk: float
    iterations: int
    residual: float


def pointwise_risk(q, eta, gamma: float) -> float:
    """Expected focal loss of scores ``q`` under true posterior ``eta``.

    The focal loss of ``q`` against the target ``eta``, with its ``+inf``
    sentinel where ``q`` puts zero mass on a class of positive ``eta``.
    """
    return focal_loss(q, eta, gamma)


def _invert_score_map(targets: np.ndarray, g: float) -> np.ndarray:
    """Solve s_g(q) = target per coordinate by bisection on [0, 1).

    The score map is looked up on ``core`` at each call, so the solver
    always inverts the map that the recovery transform applies.
    """
    lo = np.zeros_like(targets)
    hi = np.full_like(targets, 1.0 - 1e-12)
    for _ in range(_INNER_ITERS):
        mid = 0.5 * (lo + hi)
        too_low = mid / core._weight_interior(mid, g) < targets
        lo = np.where(too_low, mid, lo)
        hi = np.where(too_low, hi, mid)
    return 0.5 * (lo + hi)


def minimize_risk_inverse(eta, gamma: float, tol: float = _OUTER_SUM_TOL) -> RiskMinimizerResult:
    """Minimize the pointwise risk by inverting the stationarity condition.

    Classes with ``eta_i == 0`` receive ``q_i == 0`` exactly; the solver
    runs on the support.  The outer bisection drives ``|sum(q) - 1|``
    below ``tol`` (brackets found by doubling/halving); the returned
    ``residual`` is that defect.
    """
    g = require_gamma(gamma)
    if tol <= 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")
    ee = as_simplex(eta)
    if g == 0.0:
        q = ee.copy()
        return RiskMinimizerResult(q, pointwise_risk(q, ee, g), 0, 0.0)
    support = ee > 0.0
    es = ee[support]
    if es.size == 1:
        q = one_hot(int(np.flatnonzero(support)[0]) + 1, ee.size)
        return RiskMinimizerResult(q, 0.0, 0, 0.0)

    def total(c: float) -> tuple[np.ndarray, float]:
        qs = _invert_score_map(c * es, g)
        return qs, float(qs.sum())

    iterations = 0
    c_lo = c_hi = 1.0
    qs, s = total(c_hi)
    while s < 1.0:
        c_hi *= 4.0
        qs, s = total(c_hi)
        iterations += 1
        if c_hi > 1e300:
            raise ConvergenceError("failed to bracket the normalizing constant", s - 1.0)
    qs, s = total(c_lo)
    while s > 1.0:
        c_lo /= 4.0
        qs, s = total(c_lo)
        iterations += 1
        if c_lo < 1e-300:
            raise ConvergenceError("failed to bracket the normalizing constant", s - 1.0)

    residual = abs(s - 1.0)
    for _ in range(_OUTER_ITERS):
        if residual <= tol or (c_hi - c_lo) <= 1e-15 * c_hi:
            break
        c = 0.5 * (c_lo + c_hi)
        qs, s = total(c)
        iterations += 1
        residual = abs(s - 1.0)
        if s < 1.0:
            c_lo = c
        else:
            c_hi = c
    if residual > max(tol, 1e-9):
        raise ConvergenceError("outer bisection did not reach tolerance", residual)

    q = np.zeros_like(ee)
    q[support] = qs
    return RiskMinimizerResult(q, pointwise_risk(q, ee, g), iterations, residual)


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
                return RiskMinimizerResult(q, pointwise_risk(q, ee, g), t, residual)
    residual = _kkt_residual(q, ee, g)
    if residual > tol:
        raise ConvergenceError("projected gradient hit the iteration cap", residual)
    return RiskMinimizerResult(q, pointwise_risk(q, ee, g), max_iters, residual)


def confidence_curve(
    k: int,
    gamma: float,
    grid_size: int = 100,
    tail: str = "uniform",
) -> list[tuple[float, float]]:
    """Top true posterior vs. top minimizer score, on a uniform-tail family.

    For each grid value ``m`` strictly inside ``(1/k, 1)`` the posterior is
    ``[m, (1-m)/(k-1), ...]`` (remaining mass spread uniformly; the only
    ``tail`` scheme implemented) and the returned pair is ``(m, max(q*))``.
    With ``k == 2`` the curve lies below the diagonal; for large ``k`` and
    small ``gamma`` it crosses above near ``1/k``.
    """
    if tail != "uniform":
        raise DomainError(f"unknown tail scheme {tail!r}; only 'uniform' is implemented")
    if k < 2:
        raise DomainError(f"need k >= 2 classes, got {k}")
    if grid_size < 1:
        raise DomainError(f"grid_size must be >= 1, got {grid_size}")
    g = require_gamma(gamma)
    tops = [
        1.0 / k + (j / (grid_size + 1.0)) * (1.0 - 1.0 / k) for j in range(1, grid_size + 1)
    ]

    def solve(m: float) -> tuple[float, float]:
        eta = np.full(k, (1.0 - m) / (k - 1))
        eta[0] = m
        return m, float(minimize_risk_inverse(eta, g).q_star.max())

    return [solve(m) for m in tops]


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
