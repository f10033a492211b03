"""Confidence thresholds carved out by the weight curve.

For ``gamma > 0`` the weight curve rises from 1 at ``v == 0`` to a unique
maximum and then falls through 1 to 0 at ``v == 1``.  Two scalars follow:

* ``tau_oc``: the unique maximizer of the curve.  A top score at or below
  it is guaranteed to *overestimate* the true top posterior.
* ``tau_uc``: the unique root of ``weight == 1`` on the descending branch.
  A top score at or above it is guaranteed to *underestimate* it.

Both live in (0, 0.5) and satisfy ``tau_oc < tau_uc``.  Between them the
direction is ambiguous from the top score alone; ``confidence_direction``
resolves it pointwise from the full vector.

No closed forms exist in general, so ``thresholds`` finds both by one
bisection on a sign.  ``tau_oc`` is where the closed-form slope

    w'(v) = g (1 - v)^(g - 2) [(g - 1) v log v - (1 - v)(2 + log v)]

turns negative on (0, 0.5); only its bracket is evaluated, so the sign
survives where ``(1 - v)^g`` underflows.  ``tau_uc`` is where the log
weight kernel ``core._log_weight`` turns negative on [tau_oc, 0.5].
Each is bisected to adjacent floats, and results are memoized per ``gamma``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import core
from .core import as_simplex, confidence_weight, recover_posterior, require_count, require_gamma
from .errors import DegenerateError, DomainError

_DIRECTION_EPS = 1e-12


class Region(enum.Enum):
    OVERCONFIDENT = "overconfident"
    AMBIGUOUS = "ambiguous"
    UNDERCONFIDENT = "underconfident"


class Direction(enum.Enum):
    UNDER = "under"
    OVER = "over"
    EXACT = "exact"


@dataclass(frozen=True)
class ThresholdPair:
    """Solved thresholds for one ``gamma``."""

    gamma: float
    tau_oc: float
    tau_uc: float


def _bisect(positive, lo: float, hi: float) -> float:
    # the point in [lo, hi] where positive(v) turns False, given that it
    # holds just above lo and fails at hi, bisected until no float lies
    # strictly between the ends: a fixed width would be wider than the
    # thresholds themselves at large gamma
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if positive(mid):
            lo = mid
        else:
            hi = mid


@lru_cache(maxsize=256)
def thresholds(gamma: float) -> ThresholdPair:
    """Both thresholds for ``gamma``, memoized.

    Each is bisected to adjacent floats.  ``tau_oc`` needs a
    sign change of the slope of the weight curve on (0, 0.5); ``tau_uc``
    one of ``weight - 1`` on [tau_oc, 0.5], where the weight exceeds 1 at
    the maximizer and is below 1 at 0.5.
    """
    g = require_gamma(gamma)
    if g == 0.0:
        raise DegenerateError(
            "thresholds do not exist at gamma == 0 (the weight curve is constant)"
        )

    def slope_positive(v: float) -> bool:
        log_v = math.log(v)
        return (g - 1.0) * v * log_v - (1.0 - v) * (2.0 + log_v) > 0.0

    tau_oc = _bisect(slope_positive, 0.0, 0.5)
    tau_uc = _bisect(lambda v: core._log_weight(v, g) > 0.0, tau_oc, 0.5)
    return ThresholdPair(gamma=g, tau_oc=tau_oc, tau_uc=tau_uc)


def confidence_region(max_score: float, gamma: float) -> Region:
    """Classify a top score against the thresholds.

    Boundary convention: exactly ``tau_oc`` is OVERCONFIDENT and exactly
    ``tau_uc`` is UNDERCONFIDENT (the guaranteed intervals are closed at
    the thresholds).
    """
    q = float(max_score)
    if not 0.0 < q < 1.0:
        raise DomainError(f"top score must lie strictly inside (0, 1), got {max_score!r}")
    pair = thresholds(gamma)
    if q <= pair.tau_oc:
        return Region.OVERCONFIDENT
    if q >= pair.tau_uc:
        return Region.UNDERCONFIDENT
    return Region.AMBIGUOUS


def confidence_direction(p, gamma: float) -> Direction:
    """Pointwise miscalibration direction of a full score vector.

    Compares ``max(p)`` against the recovered top posterior: UNDER when
    the score underestimates it, OVER when it overestimates it, EXACT
    within ``1e-12`` (fixed points report EXACT).  Unlike
    :func:`confidence_region` this resolves the ambiguous band too.
    """
    gap = float(as_simplex(p).max() - recover_posterior(p, gamma).max())
    if gap < -_DIRECTION_EPS:
        return Direction.UNDER
    if gap > _DIRECTION_EPS:
        return Direction.OVER
    return Direction.EXACT


def weight_curve(gamma: float, grid_size: int = 1001):
    """Sample ``(v, weight)`` pairs on [0, 1] for plotting/export."""
    g = require_gamma(gamma)
    v = np.linspace(0.0, 1.0, require_count(grid_size, "grid_size", 1))
    return v, np.asarray(confidence_weight(v, g))
