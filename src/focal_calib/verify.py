"""Executable verification suite for the package's mathematical claims.

Each check samples randomized instances (seeded, reproducible), measures a
worst-case residual, and passes or fails against a fixed tolerance.  The
suite is the machine-checkable form of the guarantees the library rests
on: the recovery round trip, agreement of the two independent risk
minimizers, threshold ordering, the guaranteed over/underconfidence
regions, fixed points, argmax preservation, the shape of the weight
curve, monotonicity of the score map, and a finite, normalized recovery
at large ``gamma``.  Five checks share one draw, one stack with a gamma
per row that each solver and the transform take in one call, and the
weight-curve and score-map checks one grid and one kernel pass per gamma.
A check's worst residual is one numpy max, so a NaN residual fails it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import recover_binary, recover_posterior, recover_posterior_rows
from .errors import DomainError
from .minimizer import minimize_risk_inverse, minimize_risk_pg
from .thresholds import _DIRECTION_EPS, thresholds

DEFAULT_GAMMAS = (0.5, 1.0, 2.0, 3.0, 5.0)
DEFAULT_KS = tuple(range(2, 11))


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    samples: int
    worst_residual: float
    tolerance: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[VerifyCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format_table(self) -> str:
        width = max(len(c.name) for c in self.checks)
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{status}  {c.name:<{width}}  samples={c.samples:<6d} "
                f"worst={c.worst_residual:.3e}  tol={c.tolerance:.1e}"
                + (f"  [{c.detail}]" if c.detail else "")
            )
        return "\n".join(lines)


def _check(name, samples, residuals, tol, detail="", ok=True) -> VerifyCheck:
    # the worst residual is one numpy max over all of them, so a NaN fails
    worst = float(np.max([np.max(r) for r in residuals]))
    return VerifyCheck(name, samples, worst, tol, bool(ok and worst < tol), detail)


def _by_gamma(rng, gammas, n: int) -> list[tuple[float, np.ndarray]]:
    """Draw a gamma for each of ``n`` samples; return ``(gamma, sample positions)``."""
    picks = rng.choice(np.asarray(gammas), n)
    groups = [(gamma, np.flatnonzero(picks == gamma)) for gamma in dict.fromkeys(gammas)]
    return [(gamma, index) for gamma, index in groups if index.size]


def _simplex_with_max(rng: np.random.Generator, k: int, top: float) -> np.ndarray:
    """Random simplex whose largest entry is exactly ``top`` (first index).

    Needs ``k > 1/top`` (pigeonhole); rejection-samples the tail until it
    stays below ``top``, doubling ``k`` after every 1000 rejected draws
    (a top score just above ``1/k`` is rarely the maximum at ``k``).
    """
    k = max(k, int(np.floor(1.0 / top)) + 1)
    while True:
        for _ in range(1000):
            rest = rng.dirichlet(np.ones(k - 1)) * (1.0 - top)
            if rest.max() < top:
                p = np.concatenate([[top], rest])
                if not core._fixed_rows(p[None])[0]:
                    return p
        k *= 2


def _top_gaps(rng, ks, tops: np.ndarray, gamma: float) -> np.ndarray:
    # top score minus recovered top posterior of _simplex_with_max rows, zero-padded
    rows = [_simplex_with_max(rng, int(k), top) for k, top in zip(rng.choice(ks, tops.size), tops)]
    stack = np.zeros((len(rows), max(row.size for row in rows)))
    for dst, row in zip(stack, rows):
        dst[: row.size] = row
    return tops - recover_posterior_rows(stack, gamma).max(axis=1)


def _draw_checks(rng, gammas, ks, n: int, n_oracle: int) -> tuple[VerifyCheck, ...]:
    """Round trip, solver agreement, argmax, order and gamma = 0 checks on one draw.

    The ``n`` posteriors are Dirichlet(1, ..., 1) over a k drawn from
    ``ks``, each with a gamma drawn from ``gammas``.  They form one stack,
    zero-padded to the largest k (classes with ``eta_i == 0``, which every
    solver keeps at exactly 0), with a gamma per row.  The inverse solver
    solves it once and the oracle solves its first ``n_oracle`` rows.
    """
    picks = rng.choice(np.asarray(gammas), n)
    k = rng.choice(ks, n)
    etas = rng.standard_exponential((n, k.max()))
    etas[np.arange(k.max()) >= k[:, None]] = 0.0
    etas /= etas.sum(axis=1, keepdims=True)
    # residuals are reduced to their max at once: no whole-draw array outlives its step
    inverse = minimize_risk_inverse(etas, picks)
    q = inverse.q_star
    trip = np.abs(recover_posterior_rows(q, picks) - etas).max()
    oracle = minimize_risk_pg(etas[:n_oracle], picks[:n_oracle])
    agree = np.abs(q[:n_oracle] - oracle.q_star).max()
    top = etas.argmax(axis=1)
    flipped = np.count_nonzero(recover_posterior_rows(etas, picks).argmax(axis=1) != top)
    # at gamma = 0 the inverse solver returns eta as it is, with no Newton step
    identity = [np.abs(recover_posterior_rows(etas, 0.0) - etas).max()]
    identity.append(np.abs(minimize_risk_inverse(etas, 0.0).q_star - etas).max())
    # q_i < q_j must imply eta_i < eta_j: sorted by eta, a row of q never
    # falls and is constant across ties in eta (padded zeros tie in both)
    by_eta = etas.argsort(axis=1)
    dq = np.diff(np.take_along_axis(q, by_eta, axis=1), axis=1)
    de = np.diff(np.take_along_axis(etas, by_eta, axis=1), axis=1)
    ordered = np.all((dq >= 0.0) & ((de > 0.0) | (dq == 0.0)), axis=1)
    disordered = np.count_nonzero(~ordered | (q.argmax(axis=1) != top))
    return (
        _check(
            "recovery_round_trip", n, [trip], 1e-7,
            f"newton iterations={inverse.iterations} residual={inverse.residual:.1e}",
        ),
        _check(
            "solver_agreement", n_oracle, [agree], 1e-5,
            f"oracle iterations={oracle.iterations} residual={oracle.residual:.1e}",
        ),
        _check("argmax_preserved", n, [flipped], 1.0),
        _check(
            "order_preserving", n, [disordered], 1.0,
            "minimizer keeps the posterior ordering and argmax",
        ),
        _check(
            "gamma_zero_identity", n, identity, 1e-12,
            "no transform needed for the cross-entropy minimizer",
        ),
    )


def _check_threshold_ordering(gammas) -> VerifyCheck:
    residuals, ordered = [], True
    for gamma in gammas:
        pair = thresholds(gamma)
        ordered &= 0.0 < pair.tau_oc < pair.tau_uc < 0.5
        # the curve's maximum rises above 1 (by 0.017 at gamma = 0.1); a flat
        # curve would still leave 0 < tau_oc < tau_uc < 0.5 from the solvers
        ordered &= core.confidence_weight(pair.tau_oc, gamma) > 1.0
        residuals.append(abs(core.confidence_weight(pair.tau_uc, gamma) - 1.0))
    detail = "0 < tau_oc < tau_uc < 0.5, w(tau_oc) > 1"
    return _check("threshold_ordering", len(gammas), residuals, 1e-9, detail, ordered)


def _check_region_consistency(rng, gammas, ks, n) -> VerifyCheck:
    """Rows drawn in a guaranteed region show its pointwise direction."""
    failures = 0
    for gamma, index in _by_gamma(rng, gammas, n):
        pair = thresholds(gamma)
        # underconfident side: top score in [tau_uc, 1)
        tops = rng.uniform(pair.tau_uc, 0.97, index.size)
        under = _top_gaps(rng, ks, tops, gamma) < -_DIRECTION_EPS
        failures += np.count_nonzero(~under)
        # overconfident side: top score in (1/k, tau_oc], a Dirichlet(50) tail.
        # A row has about 1.25 / tau_oc classes (1.5 million at gamma = 1e6),
        # so rows go in blocks of about core._BLOCK entries.  Each block keeps
        # the full width and the generator fills C order, so the draws do not
        # depend on the blocks
        tops = rng.uniform(0.6 * pair.tau_oc, pair.tau_oc, index.size)
        k = np.ceil((1.0 - tops) / tops * 1.25).astype(int) + 1
        width = k.max() - 1
        step = max(1, core._BLOCK // width)
        for lo in range(0, tops.size, step):
            top, kb = tops[lo : lo + step], k[lo : lo + step]
            tail = rng.standard_gamma(50.0, (top.size, width))
            tail[np.arange(width) >= (kb - 1)[:, None]] = 0.0
            rows = np.column_stack([top, tail * ((1.0 - top) / tail.sum(axis=1))[:, None]])
            gap = top - recover_posterior_rows(rows, gamma).max(axis=1)
            # a row whose tail outgrew its top score has another top and is skipped
            over = (rows.max(axis=1) != top) | (gap > _DIRECTION_EPS)
            failures += np.count_nonzero(~over)
    detail = "guaranteed regions match pointwise direction"
    return _check("region_consistency", 2 * n, [failures], 1.0, detail)


def _check_high_confidence_underestimates(rng, gammas, ks, n) -> VerifyCheck:
    margins = [
        _top_gaps(rng, ks, rng.uniform(0.5 + 1e-6, 1.0 - 1e-6, index.size), gamma)
        for gamma, index in _by_gamma(rng, gammas, n)
    ]
    return _check(
        "high_confidence_underestimates", n, margins, 0.0,
        "max recovered > max score whenever max score in (0.5, 1)",
    )


def _check_binary_closed_form(rng, gammas, n) -> VerifyCheck:
    diffs, monotone_ok = [], True
    for gamma, index in _by_gamma(rng, gammas, n):
        q = rng.uniform(1e-6, 1.0 - 1e-6, index.size)
        direct = recover_binary(q, gamma)
        via_transform = recover_posterior_rows(np.column_stack([q, 1.0 - q]), gamma)[:, 0]
        diffs.append(np.abs(direct - via_transform))
        monotone_ok &= bool(np.all(direct[q > 0.5] > q[q > 0.5]))
    detail = "two-class formula matches transform; underestimates above 0.5"
    return _check("binary_closed_form", n, diffs, 1e-10, detail, monotone_ok)


def _check_large_gamma_recovery() -> VerifyCheck:
    """Rows ``[top, tail...]`` with a uniform tail, where ``(1 - v)^g`` underflows,
    recover to sums within 1e-12 of 1, keep the argmax, and at k = 2 match
    the two-class closed form within 1e-10."""
    tops = np.array([0.9, 0.9999, 1.0 - 1e-8])
    argmax_ok, sums, binary = True, [], []
    for gamma in (50.0, 100.0, 300.0, 1000.0):
        for k in (2, 10, 1000):
            rows = np.repeat(((1.0 - tops) / (k - 1))[:, None], k, axis=1)
            rows[:, 0] = tops
            out = recover_posterior_rows(rows, gamma)
            argmax_ok &= bool((out.argmax(axis=1) == 0).all())
            # an inf or NaN entry makes its row's sum defect inf or NaN
            sums.append(np.abs(out.sum(axis=1) - 1.0))
            if k == 2:
                binary.append(np.abs(recover_binary(tops, gamma) - out[:, 0]))
    return _check(
        "large_gamma_recovery", 36, sums + binary, 1e-10,
        "gamma 50..1000, top up to 1-1e-8, k up to 1000; k=2 closed form",
        argmax_ok and np.max(sums) <= 1e-12,
    )


def _check_fixed_points(rng, ks, gammas, n) -> VerifyCheck:
    diffs = []
    for gamma, index in _by_gamma(rng, gammas, n):
        k = rng.choice(ks, index.size)
        support = rng.integers(1, k + 1)[:, None]
        # the support: the first `support` of the k columns ranked by random keys
        keys = rng.random((index.size, k.max()))
        keys[np.arange(k.max()) >= k[:, None]] = np.inf
        p = (keys.argsort(axis=1).argsort(axis=1) < support) / support
        diffs.append(np.abs(recover_posterior_rows(p, gamma) - p))
        # by hand: the log score map, shifted by each row's max, normalized
        logs = np.full_like(p, -np.inf)
        logs[p > 0.0] = core._log_score(np.minimum(p[p > 0.0], 1.0 - 1e-12), gamma)
        scores = np.exp(logs - logs.max(axis=1, keepdims=True))
        diffs.append(np.abs(scores / scores.sum(axis=1, keepdims=True) - p))
    return _check("fixed_points", n, diffs, 1e-9)


def _weight_grid(grid_size: int) -> np.ndarray:
    # log-spaced points toward 0 too: from gamma ~ 1e5 the maximum, at tau_oc,
    # lies inside the linear grid's first step (8.6e-7 at 1e6).  They end at
    # exactly 1e-9, where the linear grid starts, so the two join in order
    log_grid = np.geomspace(1e-300, 1e-9, 3000)[:-1]
    return np.concatenate([log_grid, np.linspace(1e-9, 1.0 - 1e-9, grid_size)])


def _rises_then_falls(diffs: np.ndarray, noise: float) -> bool:
    # the signs of the differences past noise run + ... + - ... -: there is
    # a fall, a rise before the first fall f and no rise from f on
    rise, fall = diffs > noise, diffs < -noise
    f = int(fall.argmax())
    return bool(fall[f] and rise[:f].any() and not rise[f:].any())


def _check_weight_and_score(gammas, grid_size=100_000) -> tuple[VerifyCheck, VerifyCheck]:
    """The weight curve's shape and the score map's rise, from one kernel pass per gamma."""
    grid = _weight_grid(grid_size)
    log_v = np.log(grid)
    shape_ok, monotone_ok, residuals = True, True, []
    for gamma in gammas:
        residuals += [abs(core.confidence_weight(0.0, gamma) - 1.0)]
        residuals += [abs(core.confidence_weight(1.0, gamma))]
        # confidence_weight inside (0, 1), where the grid lies, less its checks
        log_w = core._log_weight(grid, gamma)
        values = np.exp(log_w)
        shape_ok &= _rises_then_falls(np.diff(values), 1e-14 * values.max())
        # core._log_score, which stays finite where s_g overflows at large gamma
        monotone_ok &= bool(np.all(np.diff(log_v - log_w) > 0.0))
    samples = grid.size * len(gammas)
    detail = "endpoints 1 and 0; derivative changes sign exactly once"
    return (
        _check("weight_curve_shape", samples, residuals, 1e-12, detail, shape_ok),
        _check(
            "score_monotone", samples, [float(not monotone_ok)], 1.0,
            "strictly increasing on a dense grid",
        ),
    )


def _check_low_confidence_witness() -> VerifyCheck:
    k, gamma = 5, 0.02
    top = 1.0 / k + 1e-4
    p = np.array([top] + [(1.0 - top) / (k - 1)] * (k - 1))
    return _check(
        "low_confidence_overestimates", 1, [recover_posterior(p, gamma).max() - top], 0.0,
        "k=5, gamma=0.02, top score just above 1/k",
    )


def run_verify(
    gamma_list=DEFAULT_GAMMAS, k_list=DEFAULT_KS, n_random: int = 200, seed: int = 0
) -> VerifyReport:
    """Run every check; failures are report entries, never exceptions.

    One draw of ``max(n_random, 20)`` posteriors serves five checks; the
    oracle solves the first ``max(20, n_random // 4)`` of them.  Raises
    ``DomainError`` before any draw when ``n_random`` is not a whole number
    >= 1 (each random check needs a sample), when either list is empty, for
    a gamma that is not a finite value > 0 (the thresholds do not exist at
    0, and ``gamma_zero_identity`` checks it), for a k that is not a whole
    number >= 2 and for a seed that is not a whole number >= 0.
    """
    n_random = core.require_count(n_random, "n_random", 1)
    seed = core.require_seed(seed)
    gammas = tuple(core.require_gamma(g) for g in gamma_list)
    ks = tuple(core.require_count(k, "k", 2, "classes") for k in k_list)
    if not gammas or not ks:
        raise DomainError("gamma_list and k_list must not be empty")
    if 0.0 in gammas:
        raise DomainError("gamma_list must not hold 0, where the thresholds do not exist")
    rng = np.random.default_rng(seed)
    n_draw, n_few = max(n_random, 20), max(20, n_random // 4)
    trip, agree, argmax, order, identity = _draw_checks(rng, gammas, ks, n_draw, n_few)
    shape, monotone = _check_weight_and_score(gammas)
    return VerifyReport((
        trip, agree, _check_threshold_ordering(gammas),
        _check_region_consistency(rng, gammas, ks, n_few),
        _check_high_confidence_underestimates(rng, gammas, ks, n_random),
        _check_binary_closed_form(rng, gammas, n_random), _check_large_gamma_recovery(),
        _check_fixed_points(rng, ks, gammas, n_random), argmax, order,
        shape, monotone, _check_low_confidence_witness(), identity,
    ))
