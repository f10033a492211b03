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
* :func:`minimize_risk_pg` is the first-order oracle: entropic mirror
  descent (exponentiated gradient, ``q <- q * exp(-s * grad W)``
  normalized) with a per-row step search, batched over the same stacks.
  It evaluates only the risk's gradient, never the risk, and touches
  none of the score-map machinery: a step is kept when the candidate's
  centred gradient points against the move, which by convexity means
  the risk did not rise.  The normalization is the KL projection onto
  the simplex, so the method is projected gradient in the entropy's
  geometry; no Euclidean projection is used.

Both take ``gamma`` as a float or a 1-D array of one per row.  Rows are
solved independently, in blocks of about ``core._BLOCK`` entries, each
with its own gamma, so a row's ``q_star`` is bit-equal to the call at that
gamma; ``iterations`` and ``residual`` are the largest, as over those calls.

Agreement between the two is the main numerical cross-check of the
recovery transform: applying ``recover_posterior`` to either solution
reproduces ``eta``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import SIMPLEX_TOL, require_count, require_gamma, validate_simplex_rows
from .errors import ConvergenceError, DomainError

_NEWTON_ITERS = 100        # cap on Newton steps per inverse solve
_SUM_TOL = 1e-12           # |sum(q) - 1| a Newton row must reach
_CAP_SUM_TOL = 1e-9        # sum defect still accepted at the step cap
_STEP_TOL = 1e-14          # largest q_i move of the Newton step left undone
_Q_MIN = np.nextafter(0.0, 1.0)
_Q_MAX = np.nextafter(1.0, 0.0)
_GRAD_EPS = 1e-12          # floor on 1 - q_i in the oracle's gradient
_MOVE_TOL = 1e-15          # largest q_i move of a row that has stopped moving
_PG_TOL = 1e-9             # relative gradient spread that stops an oracle row
_PG_ITERS = 100_000        # cap on oracle iterations


@dataclass(frozen=True)
class RiskMinimizerResult:
    """Solution of one pointwise risk minimization, or of a stack of them.

    For a single posterior ``q_star`` is a vector and ``risk``, its
    :func:`focal_calib.core.focal_loss` against the posterior, a float; for
    an ``(n, k)`` stack they are an ``(n, k)`` array and an ``(n,)`` array.
    With a gamma per row, a row's ``risk`` may differ from the call at its
    own gamma by an ulp: numpy's ``power`` takes shortcuts for some scalar
    exponents that an array of them does not.
    ``iterations`` (an ``int``) and ``residual`` (a ``float``) are the
    solver's own measures, the largest over the rows: Newton steps and
    the simplex-sum defect for the inverse solver, iterations and the
    relative spread of the risk gradient on the support for the oracle.
    """

    q_star: np.ndarray
    risk: float | np.ndarray
    iterations: int
    residual: float


def _newton_rows(eta: np.ndarray, g, counts=1.0) -> tuple[np.ndarray, int, float]:
    """Solve ``log s_g(q_i) = log c + log eta_i``, ``sum(counts * q) = 1`` per row.

    ``g`` is a float or a column of one g per row (``core._gamma_rows``).
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
    ``g``.  A row stops once ``|sum(q) - 1| <= _SUM_TOL`` and the next Newton
    step would move no ``q_i`` by more than ``_STEP_TOL``, well above the
    rounding noise of that step (about ``eps``) and well below what the
    round trip through the transform can see.

    ``counts`` (broadcast against ``eta``, 1 by default) is a per-column
    multiplicity: column ``j`` stands for ``counts_j`` classes sharing the
    posterior ``eta_j``.  Since ``s_g`` is strictly increasing, equal
    posteriors get equal scores, so such classes share one unknown; the
    sum, the support size ``m``, the starting point and both sums of the
    ``t`` step weight each entry by its count.  With the default every
    weight is a multiply by exactly 1.
    """
    support = eta > 0.0
    log_eta = np.log(np.where(support, eta, 1.0))
    m = np.where(support, counts, 0.0).sum(axis=1)
    anchor = core._log_score(1.0 / m[:, None], g)[:, 0]
    t_lo = anchor - np.log(np.where(support, eta, 0.0).max(axis=1))
    t_hi = anchor - np.log(np.where(support, eta, np.inf).min(axis=1))
    # start from eta flattened to the power 1 / (1 + g), the two-class
    # solution's scaling as its smaller posterior goes to 0
    power = np.where(support, log_eta / (1.0 + g), -np.inf)
    power -= power.max(axis=1, keepdims=True)
    log_q0 = power - np.log((counts * np.exp(power)).sum(axis=1, keepdims=True))
    x = np.where(support, log_q0 - np.log1p(-np.exp(log_q0).clip(max=_Q_MAX)), 0.0)
    # the first step does not depend on t; starting inside the bracket
    # keeps every later t inside it
    t = t_lo.copy()

    q_star = np.zeros_like(eta)
    rows = np.arange(eta.shape[0])
    steps, residual, tol = 0, 0.0, _SUM_TOL
    while True:
        sup, xs, ts, gs = support[rows], x[rows], t[rows], core._gamma_of(g, rows)
        # q = 1 / (1 + exp(-x)), with no overflow at either end
        q = np.where(sup, np.exp(-np.logaddexp(0.0, -xs)).clip(_Q_MIN, _Q_MAX), 0.5)
        om = 1.0 - q
        log_q = np.log(q)
        slope = om + gs * q - gs * q * (q - 1.0 - log_q) / (om + gs * q * -log_q)
        r = np.where(sup, core._log_score(q, gs) - ts[:, None] - log_eta[rows], 0.0)
        w = np.where(sup, q * om / slope, 0.0)
        defect = np.where(sup, counts * q, 0.0).sum(axis=1) - 1.0
        stationary = (w * np.abs(r)).max(axis=1) <= _STEP_TOL
        if steps == _NEWTON_ITERS:
            # a defect below the rounding of the sum cannot be reached; such
            # a row is kept once its defect is within _CAP_SUM_TOL
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
        cw = counts * w
        t_new = ts + ((cw * r).sum(axis=1) - defect) / cw.sum(axis=1)
        lo, hi = t_lo[rows], t_hi[rows]
        t_new = np.where(t_new < lo, 0.5 * (ts + lo), np.where(t_new > hi, 0.5 * (ts + hi), t_new))
        x[rows] = np.where(sup, xs + ((t_new - ts)[:, None] - r) / slope, 0.0)
        t[rows] = t_new


def _minimize(solve, eta, gamma, at_zero: bool) -> RiskMinimizerResult:
    # eta checked and clipped into [0, 1].  A one-class row gets its one-hot
    # vector, a row at g == 0 keeps eta unless at_zero, and solve(rows, g)
    # takes the other rows in blocks of about core._BLOCK entries, which
    # keeps the temporaries small; rows are independent, so no bit changes
    arr = np.asarray(eta, dtype=float)
    ee = validate_simplex_rows(np.atleast_2d(arr), SIMPLEX_TOL).clip(0.0, 1.0)
    g = core._gamma_rows(gamma, ee.shape[0])
    support, q = ee > 0.0, ee.copy()
    solved = np.ravel(g > 0.0) | at_zero
    one_class = (support.sum(axis=1) == 1) & solved
    q[one_class] = support[one_class]
    general = np.flatnonzero(solved & ~one_class)
    iterations, residual = 0, 0.0
    step = max(1, core._BLOCK // ee.shape[1])
    for start in range(0, general.size, step):
        rows = general[start : start + step]
        q[rows], its, res = solve(ee[rows], core._gamma_of(g, rows))
        iterations, residual = max(iterations, its), max(residual, res)
    risk = core._row_risks(q, ee, g)
    if arr.ndim == 1:
        return RiskMinimizerResult(q[0], float(risk[0]), iterations, residual)
    return RiskMinimizerResult(q, risk, iterations, residual)


def minimize_risk_inverse(eta, gamma: float | np.ndarray) -> RiskMinimizerResult:
    """Minimize the pointwise risk by solving the stationarity condition.

    ``eta`` is one posterior or an ``(n, k)`` stack of them, each solved
    independently (a vector is the one-row case).  Classes with
    ``eta_i == 0`` receive ``q_i == 0`` exactly, a one-class support gets
    its one-hot vector and ``gamma == 0`` returns ``eta``.  Otherwise a
    safeguarded Newton iteration on the log-domain score map drives
    ``|sum(q) - 1|`` to at most 1e-12 for every row, and the returned
    ``residual`` is the largest such defect.  A row still short of that
    after a fixed number of steps is kept if its defect is at most 1e-9;
    otherwise ``ConvergenceError`` is raised.
    ``gamma`` is a float or one per row (see the module docstring); a gamma
    array of the wrong shape raises ``DimensionError`` and one holding NaN,
    inf or a negative value ``DomainError``, before any solve.
    """
    return _minimize(_newton_rows, eta, gamma, at_zero=False)


def _scaled_gradient(q: np.ndarray, log_q: np.ndarray, log_eta: np.ndarray, g):
    """Risk gradient at an iterate, divided per row by its largest head.

    With ``head_i = eta_i (1 - q_i)^g`` (``1 - q_i`` floored at
    ``_GRAD_EPS``) the gradient of the risk is
    ``head_i (g log q_i / (1 - q_i) - 1 / q_i)``.  Dividing a row by its
    largest head keeps it finite and nonzero at large g, where every head
    underflows; the oracle reads only its direction.
    """
    om = (1.0 - q).clip(_GRAD_EPS, 1.0)
    log_head = log_eta + g * np.log(om)
    log_head -= log_head.max(axis=1, keepdims=True)
    # eta_i / q_i is taken in the log domain, where q_i may be tiny
    return g * np.exp(log_head) * log_q / om - np.exp(log_head - log_q)


def _spread(grad: np.ndarray, support: np.ndarray) -> np.ndarray:
    # relative spread of the gradient on the support; it is negative there
    hi = np.where(support, grad, -np.inf).max(axis=1)
    lo = np.where(support, grad, np.inf).min(axis=1)
    return (hi - lo) / -lo


def _mirror_step(log_q, grad, step, support):
    # log q - step * grad, renormalized on the support in the log domain
    z = np.where(support, log_q - step[:, None] * grad, -np.inf)
    z -= z.max(axis=1, keepdims=True)
    log_c = np.where(support, z - np.log(np.exp(z).sum(axis=1, keepdims=True)), 0.0)
    return np.where(support, np.exp(log_c), 0.0), log_c


def _mirror_rows(eta: np.ndarray, g) -> tuple[np.ndarray, int, float]:
    """Entropic mirror descent for rows with at least two positive entries.

    Each iterate is ``q <- q * exp(-s * grad W)`` normalized, the KL
    projection onto the simplex, kept as its exact log so that no zero
    reaches ``log``; the gradient is scaled per row (see
    ``_scaled_gradient``).  Each row starts at the uniform vector on its
    support with step ``s = 1 / max|grad W|``, doubles its step at every
    iteration and halves it until the candidate ``q'`` passes the sign test

        <grad W(q') - c, q' - q> <= 0,   c = sum_i q'_i grad_i W(q'),

    which by convexity gives ``W(q') <= W(q)``.  Both moves sum to zero, so
    subtracting the mean gradient ``c`` changes nothing in exact arithmetic
    and removes the rounding of ``c * sum(q' - q)``; the test reads no risk
    value and no scale.  A row stops once the relative spread of
    ``grad W`` on its support is at most ``_PG_TOL``, or once its accepted
    step moves no ``q_i`` by more than ``_MOVE_TOL``, the float resolution
    of the iterate.  Stopped rows are frozen.
    """
    support = eta > 0.0
    log_eta = np.full_like(eta, -np.inf)
    log_eta[support] = np.log(eta[support])
    log_q = np.where(support, -np.log(support.sum(axis=1, keepdims=True)), 0.0)
    q = np.where(support, np.exp(log_q), 0.0)
    grad = _scaled_gradient(q, log_q, log_eta, g)
    spread = _spread(grad, support)
    step = 1.0 / np.abs(grad).max(axis=1)
    stalled = np.zeros(eta.shape[0], dtype=bool)

    q_star = np.zeros_like(eta)
    rows = np.arange(eta.shape[0])
    iterations, residual = 0, 0.0
    while True:
        done = (spread <= _PG_TOL) | stalled
        if done.any():
            q_star[rows[done]] = q[done]
            residual = max(residual, float(spread[done].max()))
            keep = ~done
            rows, log_eta, support = rows[keep], log_eta[keep], support[keep]
            g = core._gamma_of(g, keep)
            q, log_q, grad = q[keep], log_q[keep], grad[keep]
            spread, step = spread[keep], step[keep]
        if rows.size == 0:
            return q_star, iterations, residual
        if iterations == _PG_ITERS:
            raise ConvergenceError("mirror descent hit the iteration cap", float(spread.max()))
        iterations += 1
        step *= 2.0
        stalled = np.zeros(rows.size, dtype=bool)
        pending = np.arange(rows.size)
        while pending.size:
            qc, lc = _mirror_step(log_q[pending], grad[pending], step[pending], support[pending])
            d = qc - q[pending]
            # a candidate far past the minimum can have an entry so small
            # that its gradient overflows to -inf; the test then reads NaN
            # and rejects it
            with np.errstate(over="ignore", invalid="ignore"):
                gc = _scaled_gradient(qc, lc, log_eta[pending], core._gamma_of(g, pending))
                centred = gc - (qc * gc).sum(axis=1, keepdims=True)
                ok = (centred * d).sum(axis=1) <= 0.0
            still = np.abs(d).max(axis=1) <= _MOVE_TOL
            ok |= still
            took = pending[ok]
            q[took], log_q[took], grad[took], stalled[took] = qc[ok], lc[ok], gc[ok], still[ok]
            pending = pending[~ok]
            step[pending] *= 0.5
        spread = _spread(grad, support)


def minimize_risk_pg(eta, gamma: float | np.ndarray) -> RiskMinimizerResult:
    """Minimize the pointwise risk by entropic mirror descent.

    The first-order oracle of the module docstring: a row keeps a step
    when ``<grad W(q') - c, q' - q> <= 0`` at the candidate ``q'``, with
    ``c`` its mean gradient ``sum_i q'_i grad_i W(q')``, and halves the
    step until it does.  ``eta`` is one posterior or an ``(n, k)`` stack,
    each row solved independently and bit-identical to solving it alone
    at the same k.  Classes with ``eta_i == 0`` get ``q_i == 0`` exactly
    and a one-class support gets its one-hot vector.  A row stops when the
    relative spread of the gradient on its support is at most 1e-9 or
    when its iterate stops moving in float64; ``residual`` is the largest
    spread reached and ``iterations`` the largest iteration count.
    Raises ``ConvergenceError`` carrying the residual when a row is still
    running after 100,000 iterations.  ``gamma`` is as for
    :func:`minimize_risk_inverse`, and a row at 0 is solved like any other.
    """
    return _minimize(_mirror_rows, eta, gamma, at_zero=True)


def confidence_curve(k: int, gamma: float, grid_size: int = 100) -> list[tuple[float, float]]:
    """Top true posterior vs. top minimizer score, on a uniform-tail family.

    For each grid value ``m`` strictly inside ``(1/k, 1)`` the posterior is
    ``[m, (1-m)/(k-1), ...]`` (remaining mass spread uniformly) and the
    returned pair is ``(m, max(q*))``.  The minimizer gives the ``k - 1``
    equal tail posteriors equal scores, so the whole grid is one Newton
    solve of the ``(grid_size, 2)`` stack of top and tail values with the
    tail counted ``k - 1`` times; time and memory do not grow with ``k``.
    ``gamma == 0`` returns the grid itself.  ``k`` is at most ``10**15``:
    from about ``4e15`` classes on, every entry of the starting point can
    be so small that the solver's stop, an absolute move of ``q``, passes
    rows that are far from stationary.  With ``k == 2`` the curve lies
    below the diagonal; for large ``k`` and small ``gamma`` it crosses
    above near ``1/k``.
    """
    k = require_count(k, "k", 2, "classes")
    if k > 10**15:
        raise DomainError(f"need k <= 10**15 classes, got {k}")
    grid_size = require_count(grid_size, "grid_size", 1)
    g = require_gamma(gamma)
    tops = 1.0 / k + (np.arange(1, grid_size + 1) / (grid_size + 1.0)) * (1.0 - 1.0 / k)
    q_top = tops
    if g > 0.0:
        etas = np.column_stack([tops, (1.0 - tops) / (k - 1)])
        q_top = _newton_rows(etas, g, np.array([1.0, k - 1.0]))[0][:, 0]
    return list(zip(tops.tolist(), q_top.tolist()))
