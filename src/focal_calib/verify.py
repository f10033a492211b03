"""Executable verification suite for the package's mathematical claims.

Each check samples randomized instances (seeded, reproducible), measures a
worst-case residual, and passes or fails against a fixed tolerance.  The
suite is the machine-checkable form of the guarantees the library rests
on: the recovery round trip, agreement of the two independent risk
minimizers, threshold ordering, the guaranteed over/underconfidence
regions, fixed points, argmax preservation, the shape of the weight
curve, monotonicity of the score map, and a finite, normalized recovery
at large ``gamma``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    is_uniform_on_support,
    recover_binary,
    recover_posterior,
    recover_posterior_rows,
    recovery_score,
)
from .errors import DomainError
from .minimizer import minimize_risk_inverse, minimize_risk_pg
from .thresholds import Direction, Region, confidence_direction, confidence_region, thresholds

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


def _random_simplex(rng: np.random.Generator, k: int) -> np.ndarray:
    return rng.dirichlet(np.ones(k))


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
                if not is_uniform_on_support(p, 1e-9):
                    return p
        k *= 2


def _posterior_groups(rng, gammas, ks, n_random):
    """Draw ``n_random`` (gamma, posterior) pairs and stack them by gamma.

    Each draw takes its gamma and then its posterior.  Each gamma's
    posteriors are zero-padded to the group's largest k, which adds
    classes with ``eta_i == 0`` that every solver keeps at exactly 0.
    Returns ``(gamma, (n, k) stack)`` pairs.
    """
    groups: dict[float, list[np.ndarray]] = {}
    for _ in range(n_random):
        gamma = float(rng.choice(gammas))
        groups.setdefault(gamma, []).append(_random_simplex(rng, int(rng.choice(ks))))
    stacks = []
    for gamma, etas in groups.items():
        stack = np.zeros((len(etas), max(eta.size for eta in etas)))
        for row, eta in zip(stack, etas):
            row[: eta.size] = eta
        stacks.append((gamma, stack))
    return stacks


def _check_round_trip(rng, gammas, ks, n_random) -> VerifyCheck:
    worst = 0.0
    for gamma, etas in _posterior_groups(rng, gammas, ks, n_random):
        q_star = minimize_risk_inverse(etas, gamma).q_star
        worst = max(worst, float(np.abs(recover_posterior_rows(q_star, gamma) - etas).max()))
    return VerifyCheck("recovery_round_trip", n_random, worst, 1e-7, worst < 1e-7)


def _check_solver_agreement(rng, gammas, ks, n_random) -> VerifyCheck:
    worst, iterations, residual = 0.0, 0, 0.0
    for gamma, etas in _posterior_groups(rng, gammas, ks, n_random):
        qi = minimize_risk_inverse(etas, gamma).q_star
        oracle = minimize_risk_pg(etas, gamma)
        worst = max(worst, float(np.abs(qi - oracle.q_star).max()))
        iterations = max(iterations, oracle.iterations)
        residual = max(residual, oracle.residual)
    return VerifyCheck(
        "solver_agreement", n_random, worst, 1e-5, worst < 1e-5,
        detail=f"oracle iterations={iterations} residual={residual:.1e}",
    )


def _check_threshold_ordering(gammas) -> VerifyCheck:
    worst = 0.0
    ordered = True
    for gamma in gammas:
        pair = thresholds(gamma, 1e-10)
        ordered &= 0.0 < pair.tau_oc < pair.tau_uc < 0.5
        # the curve's maximum rises above 1 (by 0.017 at gamma = 0.1); a flat
        # curve would still leave 0 < tau_oc < tau_uc < 0.5 from the solvers
        ordered &= core.confidence_weight(pair.tau_oc, gamma) > 1.0
        worst = max(worst, abs(core.confidence_weight(pair.tau_uc, gamma) - 1.0))
    return VerifyCheck(
        "threshold_ordering", len(gammas), worst, 1e-9, ordered and worst < 1e-9,
        detail="0 < tau_oc < tau_uc < 0.5, w(tau_oc) > 1",
    )


def _check_region_consistency(rng, gammas, ks, n_random) -> VerifyCheck:
    """Guaranteed regions agree with the pointwise direction."""
    failures = 0
    for _ in range(n_random):
        gamma = float(rng.choice(gammas))
        pair = thresholds(gamma)
        # underconfident side: top score in [tau_uc, 1)
        k = int(rng.choice(ks))
        top = float(rng.uniform(pair.tau_uc, 0.97))
        p = _simplex_with_max(rng, k, top)
        if confidence_region(top, gamma) is not Region.UNDERCONFIDENT:
            failures += 1
        if confidence_direction(p, gamma) is not Direction.UNDER:
            failures += 1
        # overconfident side: top score in (1/k, tau_oc], needs many classes
        top = float(rng.uniform(0.6 * pair.tau_oc, pair.tau_oc))
        k_oc = int(np.ceil((1.0 - top) / top * 1.25)) + 1
        tail = (1.0 - top) * rng.dirichlet(np.full(k_oc - 1, 50.0))
        p_oc = np.concatenate([[top], tail])
        if confidence_region(top, gamma) is not Region.OVERCONFIDENT:
            failures += 1
        if p_oc.max() == top and confidence_direction(p_oc, gamma) is not Direction.OVER:
            failures += 1
    return VerifyCheck(
        "region_consistency", 2 * n_random, float(failures), 1.0, failures == 0,
        detail="guaranteed regions match pointwise direction",
    )


def _check_high_confidence_underestimates(rng, gammas, ks, n_random) -> VerifyCheck:
    worst = -np.inf
    for _ in range(n_random):
        gamma = float(rng.choice(gammas))
        k = int(rng.choice(ks))
        top = float(rng.uniform(0.5 + 1e-6, 1.0 - 1e-6))
        p = _simplex_with_max(rng, k, top)
        margin = float(p.max() - recover_posterior(p, gamma).max())
        worst = max(worst, margin)
    return VerifyCheck(
        "high_confidence_underestimates", n_random, worst, 0.0, worst < 0.0,
        detail="max recovered > max score whenever max score in (0.5, 1)",
    )


def _check_binary_closed_form(rng, gammas, n_random) -> VerifyCheck:
    worst = 0.0
    monotone_ok = True
    for _ in range(n_random):
        gamma = float(rng.choice(gammas))
        q = float(rng.uniform(1e-6, 1.0 - 1e-6))
        direct = recover_binary(q, gamma)
        via_transform = float(recover_posterior(np.array([q, 1.0 - q]), gamma)[0])
        worst = max(worst, abs(direct - via_transform))
        if q > 0.5 and direct <= q:
            monotone_ok = False
    return VerifyCheck(
        "binary_closed_form", n_random, worst, 1e-10, monotone_ok and worst < 1e-10,
        detail="two-class formula matches transform; underestimates above 0.5",
    )


def _check_large_gamma_recovery() -> VerifyCheck:
    """Recovery where ``(1 - v)^g`` underflows stays a posterior.

    Rows ``[top, tail...]`` with a uniform tail must come back finite,
    summing to 1 within 1e-12 with the argmax kept, and at k = 2 equal to
    the two-class closed form within 1e-10.
    """
    tops = np.array([0.9, 0.9999, 1.0 - 1e-8])
    ok = True
    worst_sum = worst_binary = 0.0
    for gamma in (50.0, 100.0, 300.0, 1000.0):
        for k in (2, 10, 1000):
            rows = np.repeat(((1.0 - tops) / (k - 1))[:, None], k, axis=1)
            rows[:, 0] = tops
            out = recover_posterior_rows(rows, gamma)
            if not (np.isfinite(out).all() and (out.argmax(axis=1) == 0).all()):
                ok = False
                continue
            worst_sum = max(worst_sum, float(np.abs(out.sum(axis=1) - 1.0).max()))
            if k == 2:
                for top, got in zip(tops, out[:, 0]):
                    worst_binary = max(worst_binary, abs(recover_binary(top, gamma) - float(got)))
    ok = ok and worst_sum <= 1e-12 and worst_binary <= 1e-10
    return VerifyCheck(
        "large_gamma_recovery", 36, max(worst_sum, worst_binary), 1e-10, ok,
        detail="gamma 50..1000, top up to 1-1e-8, k up to 1000; k=2 closed form",
    )


def _check_fixed_points(rng, ks, gammas, n_random) -> VerifyCheck:
    worst = 0.0
    for _ in range(n_random):
        gamma = float(rng.choice(gammas))
        k = int(rng.choice(ks))
        support = max(1, int(rng.integers(1, k + 1)))
        p = np.zeros(k)
        p[rng.permutation(k)[:support]] = 1.0 / support
        worst = max(worst, float(np.abs(recover_posterior(p, gamma) - p).max()))
        if support >= 2:
            scores = recovery_score(np.clip(p, 0.0, 1.0 - 1e-12), gamma)
            manual = scores / scores.sum()
            worst = max(worst, float(np.abs(manual - p).max()))
    return VerifyCheck("fixed_points", n_random, worst, 1e-9, worst < 1e-9)


def _check_argmax_preserved(rng, ks, gammas, n_random) -> VerifyCheck:
    failures = 0
    for _ in range(n_random):
        gamma = float(rng.choice(gammas))
        p = _random_simplex(rng, int(rng.choice(ks)))
        if int(np.argmax(recover_posterior(p, gamma))) != int(np.argmax(p)):
            failures += 1
    return VerifyCheck(
        "argmax_preserved", n_random, float(failures), 1.0, failures == 0
    )


def _check_weight_curve_shape(gammas, grid_size=100_000) -> VerifyCheck:
    grid = np.linspace(1e-9, 1.0 - 1e-9, grid_size)
    ok = True
    worst = 0.0
    for gamma in gammas:
        worst = max(
            worst,
            abs(core.confidence_weight(0.0, gamma) - 1.0),
            abs(core.confidence_weight(1.0, gamma)),
        )
        values = np.asarray(core.confidence_weight(grid, gamma))
        diffs = np.diff(values)
        # drop sub-noise differences before counting sign flips
        signs = np.sign(diffs[np.abs(diffs) > 1e-14 * np.abs(values).max()])
        flips = int(np.count_nonzero(np.diff(signs)))
        ok &= flips == 1 and signs[0] > 0 and signs[-1] < 0
    return VerifyCheck(
        "weight_curve_shape", grid_size * len(gammas), worst, 1e-12,
        ok and worst < 1e-12,
        detail="endpoints 1 and 0; derivative changes sign exactly once",
    )


def _check_score_monotone(gammas, grid_size=100_000) -> VerifyCheck:
    # checked on log s_g, which stays finite where s_g overflows at large gamma
    grid = np.linspace(1e-9, 1.0 - 1e-6, grid_size)
    ok = True
    for gamma in gammas:
        ok &= bool(np.all(np.diff(core._log_score(grid, gamma)) > 0.0))
    return VerifyCheck(
        "score_monotone", grid_size * len(gammas), 0.0 if ok else 1.0, 1.0, ok,
        detail="strictly increasing on a dense grid",
    )


def _check_low_confidence_witness() -> VerifyCheck:
    k, gamma = 5, 0.02
    top = 1.0 / k + 1e-4
    p = np.full(k, (1.0 - top) / (k - 1))
    p[0] = top
    margin = float(recover_posterior(p, gamma).max() - p.max())
    return VerifyCheck(
        "low_confidence_overestimates", 1, margin, 0.0, margin < 0.0,
        detail="k=5, gamma=0.02, top score just above 1/k",
    )


def _check_order_preserving(rng, gammas, ks, n_random) -> VerifyCheck:
    from .minimizer import argmax_matches, preserves_order

    failures = 0
    for gamma, etas in _posterior_groups(rng, gammas, ks, n_random):
        # padded classes are 0 in both, which neither test can fault
        q_star = minimize_risk_inverse(etas, gamma).q_star
        failures += sum(
            not (preserves_order(q, eta) and argmax_matches(q, eta))
            for q, eta in zip(q_star, etas)
        )
    return VerifyCheck(
        "order_preserving", n_random, float(failures), 1.0, failures == 0,
        detail="minimizer keeps the posterior ordering and argmax",
    )


def _check_gamma_zero_identity(rng, ks, n_random) -> VerifyCheck:
    worst = 0.0
    for _ in range(n_random):
        eta = _random_simplex(rng, int(rng.choice(ks)))
        worst = max(worst, float(np.abs(recover_posterior(eta, 0.0) - eta).max()))
        worst = max(worst, float(np.abs(minimize_risk_inverse(eta, 0.0).q_star - eta).max()))
    return VerifyCheck(
        "gamma_zero_identity", n_random, worst, 1e-12, worst < 1e-12,
        detail="no transform needed for the cross-entropy minimizer",
    )


def run_verify(
    gamma_list=DEFAULT_GAMMAS,
    k_list=DEFAULT_KS,
    n_random: int = 200,
    seed: int = 0,
) -> VerifyReport:
    """Run every check; failures are report entries, never exceptions.

    Raises ``DomainError`` when ``n_random < 1``: the random checks need
    at least one sample each.
    """
    if n_random < 1:
        raise DomainError(f"n_random must be >= 1, got {n_random}")
    gammas = tuple(float(g) for g in gamma_list)
    ks = tuple(int(k) for k in k_list)
    rng = np.random.default_rng(seed)
    checks = (
        _check_round_trip(rng, gammas, ks, n_random),
        _check_solver_agreement(rng, gammas, ks, max(20, n_random // 4)),
        _check_threshold_ordering(gammas),
        _check_region_consistency(rng, gammas, ks, max(20, n_random // 4)),
        _check_high_confidence_underestimates(rng, gammas, ks, n_random),
        _check_binary_closed_form(rng, gammas, n_random),
        _check_large_gamma_recovery(),
        _check_fixed_points(rng, ks, gammas, n_random),
        _check_argmax_preserved(rng, ks, gammas, n_random),
        _check_order_preserving(rng, gammas, ks, max(20, n_random // 4)),
        _check_weight_curve_shape(gammas),
        _check_score_monotone(gammas),
        _check_low_confidence_witness(),
        _check_gamma_zero_identity(rng, ks, max(20, n_random // 4)),
    )
    return VerifyReport(checks)
