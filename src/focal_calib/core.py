"""Closed-form machinery of focal-loss confidence calibration.

A classifier trained to minimize the focal loss converges (pointwise) to a
score vector that is a *distorted* version of the true class-posterior
probabilities.  The distortion is governed by a scalar weight curve

    w_g(v) = (1 - v)^g - g * (1 - v)^(g - 1) * v * log(v),      v in [0, 1],

and is undone in closed form: the map ``s_g(v) = v / w_g(v)`` is strictly
increasing, and normalizing ``s_g`` over the entries of a score vector
recovers the posterior.  This module implements the losses, the weight
curve, the score map, the recovery transform, the two-class shortcut, and
membership in the transform's fixed-point set (vectors that are uniform
over their support).

Each formula is written once and shared by the whole package:

* ``_focal_terms`` is the elementwise focal kernel ``(1 - p)^g * log p``.
  ``_row_risks`` sums it into the risk of each row of a stack, which the
  risk solvers report and ``focal_loss`` takes one row of; the training
  loss clamps and sums it itself.  The temperature fit
  (``calibrate._temperature_pass``) has ``log p`` rather than ``p``, and
  writes the kernel in it next to its two derivatives.
* ``_log_weight`` is the one weight kernel, in the log domain:

      log w_g(v) = g log1p(-v) + log1p(g v (-log v) / (1 - v)).

  The last term's argument lies in [0, g], so the kernel stays finite for
  every ``v`` strictly inside (0, 1), at any ``g``, where ``(1 - v)^g``
  itself underflows.  ``confidence_weight`` takes its ``exp``,
  ``thresholds`` solves ``tau_uc`` on its sign, and ``_log_score``, the
  score map ``log s_g(v) = log v - log w_g(v)``, is built on it.
  ``recovery_score`` takes the map's ``exp``, the recovery transform
  normalizes it row by row, and the inverse risk solver
  (``minimizer.minimize_risk_inverse``) runs Newton's method on it.
* ``validate_simplex_rows`` is the simplex check for an ``(n, k)`` stack.
  It names the first bad row, or its file line.  Two tolerances apply:
  ``ROW_SUM_TOL`` where prediction files and ``PredictionSet`` rows come
  in, and ``SIMPLEX_TOL`` inside the math (also the fixed-point test).

All functions are pure and stateless.  Scores are never renormalized
here.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    InvalidSimplexError,
    SingularityError,
)

SIMPLEX_TOL = 1e-9
ROW_SUM_TOL = 1e-6
CLAMP_EPS = 1e-12
_BLOCK = 1 << 16           # entries per block of the row-wise recovery


def require_gamma(gamma: float) -> float:
    """Validate the focusing parameter (must be finite and >= 0)."""
    g = float(gamma)
    if not np.isfinite(g) or g < 0.0:
        raise DomainError(f"gamma must be a finite value >= 0, got {gamma!r}")
    return g


def _gamma_rows(gamma, n: int):
    # gamma as a checked float, or a 1-D array of n of them as an (n, 1) column
    arr = np.asarray(gamma, dtype=float)
    if arr.ndim == 0:
        return require_gamma(gamma)
    if arr.shape != (n,):
        raise DimensionError(f"expected one gamma per row, shape ({n},), got shape {arr.shape}")
    bad = np.flatnonzero(~((arr >= 0.0) & (arr < np.inf)))
    if bad.size:
        i = int(bad[0])
        raise DomainError(f"gamma must be a finite value >= 0, got {float(arr[i])!r} in row {i}")
    return arr[:, None]


def _gamma_of(g, index):
    # the gammas of the rows at index, for a g from _gamma_rows
    return g[index] if isinstance(g, np.ndarray) else g


def require_count(value, name: str, minimum: int, unit: str = "") -> int:
    """Validate a count argument, such as a class or grid size; return an int.

    A count is a whole number, not a bool, from ``minimum`` up to the
    largest size a numpy array can take.  An integral float such as ``3.0``
    is one, as for PredictionSet's labels; a fraction or a non-finite value
    is not.  ``unit`` words the messages.
    """
    # an int is never converted to a float, which it may overflow
    whole = isinstance(value, int) or math.isfinite(value) and value == int(value)
    if isinstance(value, (bool, np.bool_)) or not whole:
        raise DomainError(f"{name} must be a whole number{unit and ' of ' + unit}, got {value!r}")
    largest = int(np.iinfo(np.intp).max)
    if not minimum <= value <= largest:
        op, limit = (">=", minimum) if value < minimum else ("<=", largest)
        bound = f"need {name} {op} {limit} {unit}" if unit else f"{name} must be {op} {limit}"
        raise DomainError(f"{bound}, got {value}")
    return int(value)


def require_seed(seed) -> int:
    """Validate a random seed, a whole number >= 0 of any size as numpy's
    generators take it; return it as an int.  numpy raises a bare
    ``ValueError`` on a negative seed, after a caller may have written output.
    """
    if isinstance(seed, (bool, np.bool_)) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a whole number >= 0, got {seed!r}")
    return int(seed)


def validate_simplex_rows(rows, tol: float, lines=None) -> np.ndarray:
    """Check an ``(n, k)`` stack of probability rows; return it as float64.

    Every row must be finite, lie in [0, 1] and sum to one, all within
    ``tol``.  The first bad row raises ``InvalidSimplexError`` naming the
    condition it fails: with ``lines`` (the file line of each row) the
    error carries that line, otherwise the message names the row index.
    Values are returned unchanged.
    """
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise DimensionError(f"expected an (n, k) matrix with k >= 2, got shape {arr.shape}")
    sums = arr.sum(axis=1)
    lows, highs = arr.min(axis=1), arr.max(axis=1)
    # the negated test also catches NaN and inf sums
    bad = ~(np.abs(sums - 1.0) <= tol) | (lows < -tol) | (highs > 1.0 + tol)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        if not np.isfinite(arr[i]).all():
            reason = "non-finite entry"
        elif lows[i] < -tol:
            reason = f"entry {float(lows[i])!r} below 0"
        elif highs[i] > 1.0 + tol:
            reason = f"entry {float(highs[i])!r} above 1"
        else:
            reason = f"sum {float(sums[i])!r} differs from 1 by more than {tol:g}"
        message = f"not a probability vector ({reason})"
        if lines is None:
            raise InvalidSimplexError(f"row {i} is {message}")
        raise InvalidSimplexError(f"row is {message}", lines[i])
    return arr


def as_simplex(p) -> np.ndarray:
    """Validate ``p`` as a probability vector and return it as float64.

    Entries must lie in [0, 1] and sum to one, both within ``SIMPLEX_TOL``.
    Entries within that of the boundary are clipped into [0, 1] so that
    downstream logs never see a negative operand; values are otherwise
    returned unchanged (no renormalization).
    """
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise DimensionError(
            f"expected a 1-D probability vector with >= 2 entries, got shape {arr.shape}"
        )
    validate_simplex_rows(arr[None, :], SIMPLEX_TOL)
    return arr.clip(0.0, 1.0)


def _focal_terms(p: np.ndarray, g) -> np.ndarray:
    # the focal kernel (1 - p)^g * log p, exactly log p at g == 0; callers
    # clamp p.  g is a float or an array that broadcasts against p.
    return (1.0 - p) ** g * np.log(p)


def _row_risks(q: np.ndarray, eta: np.ndarray, g: float) -> np.ndarray:
    # the focal risk -sum_i eta_i (1 - q_i)^g log q_i of each row of a
    # stack; +inf where some q_i is 0 with eta_i > 0
    active = eta > 0.0
    with np.errstate(divide="ignore"):
        terms = _focal_terms(np.where(active, q, 1.0), g)
    return -np.where(active, eta * terms, 0.0).sum(axis=1)


def focal_loss(u, v, gamma: float) -> float:
    """Focal loss between prediction ``u`` and target ``v``.

        -sum_i v_i * (1 - u_i)^gamma * log(u_i)

    Returns ``+inf`` when some ``u_i`` is exactly 0 where ``v_i > 0``
    (a sentinel, not an error).  This is one row of the risk that
    ``minimize_risk_inverse`` and ``minimize_risk_pg`` report.
    """
    g = require_gamma(gamma)
    uu = as_simplex(u)
    vv = as_simplex(v)
    if uu.size != vv.size:
        raise DimensionError(f"class counts differ: {uu.size} vs {vv.size}")
    return float(_row_risks(uu[None, :], vv[None, :], g)[0])


def _log_weight(v, g: float):
    # log w_g(v) for v strictly inside (0, 1); see the module docstring
    return g * np.log1p(-v) + np.log1p(g * v * -np.log(v) / (1.0 - v))


def _log_score(v: np.ndarray, g: float) -> np.ndarray:
    # log s_g(v) = log v - log w_g(v) for v strictly inside (0, 1)
    return np.log(v) - _log_weight(v, g)


def _unit_scores(v) -> tuple[np.ndarray, bool]:
    # v as a 1-D array checked against [0, 1], and whether it was a scalar
    arr = np.asarray(v, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise DomainError(f"score outside [0, 1]: {v!r}")
    return arr, scalar


def confidence_weight(v, gamma: float):
    """Weight curve ``(1 - v)^g - g (1 - v)^(g-1) v log v`` on [0, 1].

    Endpoint limits: 1 at ``v == 0`` (``v log v -> 0``) and 0 at
    ``v == 1``.  Identically 1 when ``gamma == 0``.  Accepts a scalar or
    an array; returns the same shape.
    """
    g = require_gamma(gamma)
    arr, scalar = _unit_scores(v)
    out = np.ones_like(arr)
    if g > 0.0:
        interior = (arr > 0.0) & (arr < 1.0)
        out[interior] = np.exp(_log_weight(arr[interior], g))
        out[arr == 1.0] = 0.0
    return float(out[0]) if scalar else out


def recovery_score(v, gamma: float):
    """Strictly increasing score map ``v / confidence_weight(v)`` on [0, 1).

    Maps 0 to 0 and diverges as ``v -> 1``; ``v == 1`` raises
    ``SingularityError`` (callers must special-case one-hot vectors), and
    so does a score past the float64 range (e.g. ``v = 0.9999`` at
    ``gamma = 100``), where ``recover_posterior_rows`` still normalizes
    in the log domain.  Identity when ``gamma == 0``.
    """
    g = require_gamma(gamma)
    arr, scalar = _unit_scores(v)
    if np.any(arr == 1.0):
        raise SingularityError("recovery_score is singular at v == 1")
    if g == 0.0:
        out = arr.copy()
    else:
        out = np.zeros_like(arr)
        interior = arr > 0.0
        with np.errstate(over="ignore"):
            out[interior] = np.exp(_log_score(arr[interior], g))
        if np.isinf(out).any():
            raise SingularityError(
                f"recovery_score overflows float64 at gamma={g:g}; "
                "recover_posterior_rows normalizes the scores in the log domain"
            )
    return float(out[0]) if scalar else out


def _fixed_rows(arr: np.ndarray) -> np.ndarray:
    # rows whose entries are all within SIMPLEX_TOL of 0 or of the row maximum
    mx = arr.max(axis=1, keepdims=True)
    return np.all((arr <= SIMPLEX_TOL) | (np.abs(arr - mx) <= SIMPLEX_TOL), axis=1)


def is_uniform_on_support(p) -> bool:
    """True when every entry is within ``SIMPLEX_TOL`` of 0 or of ``max(p)``.

    Such vectors are uniform over their support (one-hot and uniform
    vectors included) and are exactly the fixed points of
    ``recover_posterior``, which detects them at the same tolerance.
    """
    return bool(_fixed_rows(as_simplex(p)[None, :])[0])


def _recover_rows(rows: np.ndarray, g) -> np.ndarray:
    # the recovery transform, in place, on a fresh copy of validated rows
    # clipped into [0, 1], at a float g or a column of one g per row (rows
    # at g == 0 are left as they are).  Blocks of about _BLOCK entries keep
    # the temporaries small.  Each row is shifted by the log score of its
    # top entry, its largest up to rounding, before the exp, so no row
    # under- or overflows.
    per_row = isinstance(g, np.ndarray)
    if not per_row and g == 0.0:
        return rows
    step = max(1, _BLOCK // rows.shape[1])
    for start in range(0, rows.shape[0], step):
        block = rows[start : start + step]
        general = ~_fixed_rows(block)
        if per_row:
            gb = g[start : start + step]
            general &= gb[:, 0] > 0.0
        if not general.any():
            continue
        sub = block[general]
        positive = sub > 0.0
        top = sub.argmax(axis=1)
        logs = np.full_like(sub, -np.inf)
        # a g per row is spread to the positive entries it scores
        gs = np.broadcast_to(gb[general], sub.shape)[positive] if per_row else g
        logs[positive] = _log_score(sub[positive], gs)
        logs -= logs[np.arange(top.size), top][:, None]
        scores = np.exp(logs, out=logs)
        scores /= scores.sum(axis=1, keepdims=True)
        # entries a few ulps apart can swap under rounding; the argmax
        # must not, so a displaced top entry is lifted one ulp above the rest
        moved = np.flatnonzero(scores.argmax(axis=1) != top)
        scores[moved, top[moved]] = np.nextafter(scores[moved].max(axis=1), 2.0)
        block[general] = scores
    return rows


def recover_posterior(p, gamma: float) -> np.ndarray:
    """Recover class-posterior probabilities from a focal score vector.

    Computes ``recovery_score`` entrywise and normalizes:

        out_i = s_g(p_i) / sum_l s_g(p_l),

    in the log domain, so that a score too close to 1 for ``s_g`` itself
    to be finite still gives a finite posterior.  Zero entries stay 0.

    Identity when ``gamma == 0``.  Vectors that are uniform over their
    support (detected at tolerance ``SIMPLEX_TOL``) are returned verbatim:
    they are fixed points, and the convention extends the transform to
    one-hot inputs where the score map itself is singular.  The argmax
    (lowest index on ties) is always preserved.  This is the one-row case
    of :func:`recover_posterior_rows`.
    """
    g = require_gamma(gamma)
    return _recover_rows(as_simplex(p)[None, :], g)[0]


def recover_posterior_rows(rows, gamma: float | np.ndarray) -> np.ndarray:
    """:func:`recover_posterior` applied to each row of an ``(n, k)`` stack.

    Rows are validated at ``SIMPLEX_TOL``; an invalid row raises
    ``InvalidSimplexError`` naming its index.  ``gamma`` is a float or a
    1-D array of one per row, each row bit-equal to the call at its gamma
    (rows at 0 come out as they went in); a gamma array of the wrong shape
    raises ``DimensionError``, one with NaN, inf or a value < 0 ``DomainError``.
    """
    arr = validate_simplex_rows(rows, SIMPLEX_TOL)
    g = _gamma_rows(gamma, arr.shape[0])
    return _recover_rows(np.clip(arr, 0.0, 1.0), g)


def recover_binary(q, gamma: float):
    """Two-class posterior of the top class from its focal score ``q``.

    Closed form (independent of :func:`recover_posterior`):

        a = q^g / (1 - q) - g * q^(g - 1) * log(1 - q)
        b = (1 - q)^g / q - g * (1 - q)^(g - 1) * log(q)
        posterior = a / (a + b)

    evaluated in the log domain as ``1 / (1 + exp(log b - log a))`` with

        log a = (g - 1) log q + log(q / (1 - q) - g log(1 - q)),

    and ``log b`` likewise, so it stays finite where ``q^g`` and
    ``(1 - q)^g`` both underflow.  Reduces to the identity at
    ``gamma == 0`` and exceeds ``q`` whenever ``q in (0.5, 1)`` with
    ``gamma > 0``.  ``q`` is a scalar or an array with every entry
    strictly inside (0, 1); a scalar returns a float.
    """
    g = require_gamma(gamma)
    qq = np.asarray(q, dtype=float)
    if not np.all((qq > 0.0) & (qq < 1.0)):
        raise DomainError(f"binary score must lie strictly inside (0, 1), got {q!r}")
    log_q, log_om = np.log(qq), np.log1p(-qq)
    log_a = (g - 1.0) * log_q + np.log(qq / (1.0 - qq) - g * log_om)
    log_b = (g - 1.0) * log_om + np.log((1.0 - qq) / qq - g * log_q)
    out = np.exp(-np.logaddexp(0.0, log_b - log_a))
    return float(out) if qq.ndim == 0 else out
