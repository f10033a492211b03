"""Risk minimizer: inverse solver, projected-gradient oracle, curve."""

import math

import numpy as np
import pytest

from focal_calib import (
    ConvergenceError,
    DimensionError,
    DomainError,
    confidence_curve,
    minimize_risk_inverse,
    minimize_risk_pg,
    one_hot,
    pointwise_risk,
    project_to_simplex,
    recover_posterior,
)
from focal_calib.minimizer import argmax_matches, preserves_order

GAMMAS = [0.5, 1.0, 2.0, 3.0, 5.0]


def random_simplex(rng, k):
    return rng.dirichlet(np.ones(k))


class TestPointwiseRisk:
    def test_perfect_one_hot_is_zero(self):
        e = one_hot(1, 3)
        assert pointwise_risk(e, e, 2.0) == 0.0

    def test_cross_entropy_case(self):
        assert pointwise_risk([0.5, 0.5], [1, 0], 0.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_value_shared_modulation(self):
        # both classes share (1 - 0.5)^2 * (-log 0.5); posterior weights sum to 1
        expected = 0.25 * math.log(2)
        assert pointwise_risk([0.5, 0.5], [0.7, 0.3], 2.0) == pytest.approx(expected, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            pointwise_risk([0.5, 0.5], [0.5, 0.3, 0.2], 1.0)


class TestProjection:
    def test_already_on_simplex(self):
        p = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(project_to_simplex(p), p, atol=1e-15)

    def test_projects_to_vertex(self):
        out = project_to_simplex(np.array([10.0, 0.0, -3.0]))
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-15)

    def test_output_is_feasible(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.normal(0, 5, size=int(rng.integers(2, 12)))
            out = project_to_simplex(v)
            assert out.min() >= 0.0
            assert abs(out.sum() - 1.0) < 1e-12


class TestInverseSolver:
    def test_one_hot_posterior(self):
        e = one_hot(2, 4)
        result = minimize_risk_inverse(e, 3.0)
        np.testing.assert_array_equal(result.q_star, e)
        assert result.risk == 0.0

    def test_uniform_posterior(self):
        eta = np.full(5, 0.2)
        result = minimize_risk_inverse(eta, 2.0)
        np.testing.assert_allclose(result.q_star, eta, atol=1e-12)

    def test_gamma_zero_returns_eta(self):
        rng = np.random.default_rng(1)
        eta = random_simplex(rng, 4)
        np.testing.assert_array_equal(minimize_risk_inverse(eta, 0.0).q_star, eta)

    def test_flattens_toward_uniform(self):
        result = minimize_risk_inverse(np.array([0.7, 0.3]), 2.0)
        assert 0.5 < result.q_star.max() < 0.7

    def test_round_trip_small_sweep(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            k = int(rng.integers(2, 11))
            gamma = float(rng.choice(GAMMAS))
            eta = random_simplex(rng, k)
            q = minimize_risk_inverse(eta, gamma).q_star
            assert np.abs(recover_posterior(q, gamma) - eta).max() < 1e-7

    def test_zero_posterior_entries_get_zero_scores(self):
        eta = np.array([0.0, 0.6, 0.4, 0.0])
        q = minimize_risk_inverse(eta, 2.0).q_star
        assert q[0] == 0.0 and q[3] == 0.0
        assert abs(q.sum() - 1.0) < 1e-9

    def test_risk_beats_random_candidates(self):
        rng = np.random.default_rng(3)
        eta = np.array([0.7, 0.2, 0.1])
        result = minimize_risk_inverse(eta, 2.0)
        for _ in range(100):
            candidate = random_simplex(rng, 3)
            assert pointwise_risk(candidate, eta, 2.0) >= result.risk - 1e-12

    def test_order_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            k = int(rng.integers(2, 9))
            gamma = float(rng.choice(GAMMAS))
            eta = random_simplex(rng, k)
            q = minimize_risk_inverse(eta, gamma).q_star
            assert preserves_order(q, eta)
            assert argmax_matches(q, eta)

    def test_high_confidence_is_underestimated(self):
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(60):
            k = int(rng.integers(2, 9))
            eta = random_simplex(rng, k)
            gamma = float(rng.choice(GAMMAS))
            q = minimize_risk_inverse(eta, gamma).q_star
            if 0.5 < q.max() < 1.0 - 1e-12:
                hits += 1
                assert q.max() < eta.max()
        assert hits > 10


class TestProjectedGradientOracle:
    def test_one_hot(self):
        e = one_hot(1, 3)
        result = minimize_risk_pg(e, 1.0)
        np.testing.assert_allclose(result.q_star, e, atol=1e-6)

    def test_gamma_zero_recovers_eta(self):
        rng = np.random.default_rng(6)
        eta = random_simplex(rng, 4)
        result = minimize_risk_pg(eta, 0.0)
        np.testing.assert_allclose(result.q_star, eta, atol=1e-6)

    def test_agrees_with_inverse_solver(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            k = int(rng.integers(2, 8))
            gamma = float(rng.choice(GAMMAS))
            eta = random_simplex(rng, k)
            qi = minimize_risk_inverse(eta, gamma).q_star
            qp = minimize_risk_pg(eta, gamma).q_star
            assert np.abs(qi - qp).max() < 1e-5

    def test_iteration_cap_raises_with_residual(self):
        eta = np.array([0.55, 0.25, 0.2])
        with pytest.raises(ConvergenceError) as info:
            minimize_risk_pg(eta, 2.0, tol=1e-13, max_iters=3)
        assert info.value.residual > 0.0


class TestConfidenceCurve:
    def test_binary_curve_below_diagonal(self):
        for m, q in confidence_curve(2, 1.0, grid_size=25):
            assert 0.5 < m < 1.0
            assert q < m

    def test_larger_gamma_flattens_more(self):
        at = lambda gamma: dict(confidence_curve(2, gamma, grid_size=9))
        curve1, curve5 = at(1.0), at(5.0)
        for m in curve1:
            if m > 0.6:
                assert curve5[m] < curve1[m]

    def test_many_classes_small_gamma_shows_overconfidence(self):
        pairs = confidence_curve(1000, 0.5, grid_size=40)
        assert any(q > m for m, q in pairs)

    def test_grid_respects_open_interval(self):
        pairs = confidence_curve(3, 2.0, grid_size=10)
        ms = [m for m, _ in pairs]
        assert min(ms) > 1 / 3 and max(ms) < 1.0
        assert len(pairs) == 10

    def test_unknown_tail_scheme_rejected(self):
        with pytest.raises(DomainError):
            confidence_curve(3, 2.0, grid_size=4, tail="zipf")
