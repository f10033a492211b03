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

* ``_focal_terms`` is the elementwise focal kernel ``(1 - p)^g * log p``
  (plain ``log p`` at ``g == 0``).  The losses, the risk solvers and the
  training loss all sum it; each caller clamps its input and returns its
  ``+inf`` sentinel itself.  The temperature fit
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
  in, and ``SIMPLEX_TOL`` inside the math.

All functions are pure and stateless.  Scores are never renormalized
here.
"""

from __future__ import annotations

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


def as_simplex(p, tol: float = SIMPLEX_TOL) -> np.ndarray:
    """Validate ``p`` as a probability vector and return it as float64.

    Entries must lie in [0, 1] and sum to one, both within ``tol``.
    Entries within ``tol`` of the boundary are clipped into [0, 1] so that
    downstream logs never see a negative operand; values are otherwise
    returned unchanged (no renormalization).
    """
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise DimensionError(
            f"expected a 1-D probability vector with >= 2 entries, got shape {arr.shape}"
        )
    validate_simplex_rows(arr[None, :], tol)
    return arr.clip(0.0, 1.0)


def one_hot(y: int, k: int) -> np.ndarray:
    """One-hot vector for 1-based class ``y`` among ``k`` classes."""
    if k < 2:
        raise DimensionError(f"need k >= 2 classes, got {k}")
    if not 1 <= y <= k:
        raise DomainError(f"label {y} outside [1..{k}]")
    e = np.zeros(k)
    e[y - 1] = 1.0
    return e


def _focal_terms(p: np.ndarray, g) -> np.ndarray:
    # the focal kernel (1 - p)^g * log p; callers clamp p and weight the
    # sum.  g is a float or an array that broadcasts against p; the
    # isinstance test keeps the risk solvers' many scalar calls cheap.
    if isinstance(g, float) and g == 0.0:
        return np.log(p)
    return (1.0 - p) ** g * np.log(p)


def focal_loss(u, v, gamma: float, safe: bool = False) -> float:
    """Focal loss between prediction ``u`` and target ``v``.

        -sum_i v_i * (1 - u_i)^gamma * log(u_i)

    Returns ``+inf`` when some ``u_i`` is exactly 0 where ``v_i > 0``
    (a sentinel, not an error).  With ``safe=True`` predictions are
    clamped to ``[CLAMP_EPS, 1]`` before the log instead.
    """
    g = require_gamma(gamma)
    uu = as_simplex(u)
    vv = as_simplex(v)
    if uu.size != vv.size:
        raise DimensionError(f"class counts differ: {uu.size} vs {vv.size}")
    if safe:
        uu = np.clip(uu, CLAMP_EPS, 1.0)
    active = vv > 0.0
    if np.any(uu[active] == 0.0):
        return float("inf")
    return float(-(vv[active] * _focal_terms(uu[active], g)).sum())


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


def _fixed_rows(arr: np.ndarray, tol: float) -> np.ndarray:
    # rows whose entries are all within tol of 0 or of the row maximum
    mx = arr.max(axis=1, keepdims=True)
    return np.all((arr <= tol) | (np.abs(arr - mx) <= tol), axis=1)


def is_uniform_on_support(p, tol: float) -> bool:
    """True when every entry is within ``tol`` of 0 or of ``max(p)``.

    Such vectors are uniform over their support (one-hot and uniform
    vectors included) and are exactly the fixed points of
    ``recover_posterior``.
    """
    if tol < 0.0:
        raise DomainError(f"tol must be >= 0, got {tol}")
    return bool(_fixed_rows(as_simplex(p)[None, :], tol)[0])


def _recover_rows(rows: np.ndarray, g: float) -> np.ndarray:
    # the recovery transform, in place, on a fresh copy of validated rows
    # clipped into [0, 1].  Blocks of about _BLOCK entries keep the
    # temporaries small.  Each row is shifted by the log score of its top
    # entry, its largest up to rounding, before the exp, so no row under-
    # or overflows.
    if g == 0.0:
        return rows
    step = max(1, _BLOCK // rows.shape[1])
    for start in range(0, rows.shape[0], step):
        block = rows[start : start + step]
        general = ~_fixed_rows(block, SIMPLEX_TOL)
        if not general.any():
            continue
        sub = block[general]
        positive = sub > 0.0
        top = sub.argmax(axis=1)
        logs = np.full_like(sub, -np.inf)
        logs[positive] = _log_score(sub[positive], g)
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


def recover_posterior_rows(rows, gamma: float) -> np.ndarray:
    """:func:`recover_posterior` applied to each row of an ``(n, k)`` stack.

    Rows are validated at ``SIMPLEX_TOL``; an invalid row raises
    ``InvalidSimplexError`` naming its index.
    """
    g = require_gamma(gamma)
    arr = validate_simplex_rows(rows, SIMPLEX_TOL)
    return _recover_rows(np.clip(arr, 0.0, 1.0), g)


def recover_binary(q, gamma: float) -> float:
    """Two-class posterior of the top class from its focal score ``q``.

    Closed form (independent of :func:`recover_posterior`):

        a = q^g / (1 - q) - g * q^(g - 1) * log(1 - q)
        b = (1 - q)^g / q - g * (1 - q)^(g - 1) * log(q)
        posterior = a / (a + b)

    Reduces to the identity at ``gamma == 0`` and exceeds ``q`` whenever
    ``q in (0.5, 1)`` with ``gamma > 0``.  ``q`` must lie strictly inside
    (0, 1).
    """
    g = require_gamma(gamma)
    qq = float(q)
    if not 0.0 < qq < 1.0:
        raise DomainError(f"binary score must lie strictly inside (0, 1), got {q!r}")
    a = qq**g / (1.0 - qq) - g * qq ** (g - 1.0) * np.log1p(-qq)
    b = (1.0 - qq) ** g / qq - g * (1.0 - qq) ** (g - 1.0) * np.log(qq)
    return float(a / (a + b))


def argmax_lowest(p) -> int:
    """Index of the largest entry, lowest index winning ties (0-based)."""
    return int(np.argmax(np.asarray(p)))
