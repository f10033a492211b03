"""Threshold solvers and confidence-region classification."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from focal_calib import (
    DegenerateError,
    Direction,
    DomainError,
    Region,
    confidence_direction,
    confidence_region,
    confidence_weight,
    recover_posterior,
    thresholds,
)
from focal_calib.thresholds import weight_curve

GAMMAS = [0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0]


class TestThresholdSolvers:
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_ordering(self, gamma):
        pair = thresholds(gamma)
        assert 0.0 < pair.tau_oc < pair.tau_uc < 0.5

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_uc_threshold_solves_weight_equals_one(self, gamma):
        tau = thresholds(gamma).tau_uc
        assert abs(confidence_weight(tau, gamma) - 1.0) < 1e-9

    def test_uc_threshold_tight_residual(self):
        tau = thresholds(2.0).tau_uc
        assert abs(confidence_weight(tau, 2.0) - 1.0) < 1e-10

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_oc_threshold_is_local_max(self, gamma):
        tau = thresholds(gamma).tau_oc
        w = confidence_weight(tau, gamma)
        assert confidence_weight(tau - 1e-7, gamma) <= w + 1e-12
        assert confidence_weight(tau + 1e-7, gamma) <= w + 1e-12

    def test_gamma_one_closed_forms(self):
        # for gamma = 1 the defining equations solve by hand:
        # d/dv [(1-v) - v log v] = -2 - log v  =>  maximizer exp(-2);
        # (1-v) - v log v = 1  =>  v (1 + log v) = 0  =>  root exp(-1)
        assert thresholds(1.0).tau_oc == pytest.approx(math.exp(-2), abs=1e-12)
        assert thresholds(1.0).tau_uc == pytest.approx(math.exp(-1), abs=1e-8)

    def test_gamma_three_against_dense_grid(self):
        grid = np.linspace(1e-9, 0.5, 1_000_000)
        brute = grid[np.argmax(confidence_weight(grid, 3.0))]
        assert thresholds(3.0).tau_oc == pytest.approx(brute, abs=1e-6)

    def test_degenerate_at_gamma_zero(self):
        with pytest.raises(DegenerateError):
            thresholds(0.0)

    @pytest.mark.parametrize("gamma", [1e-6, 1e3, 1e4, 1e5, 1e6, 1e9, 1e12, 1e15])
    def test_extreme_gamma(self, gamma):
        # from g = 1e4, (1 - v)^g underflows on most of [0, 0.5]; at
        # g = 1e-6, w(0.5) - 1 is only -2.4e-13; from g = 1e6 the thresholds
        # lie below 1e-5, and at 1e15 below 1e-14.  The slope is written out
        # here, unfactored
        def slope(v):
            return -gamma * (1.0 - v) ** (gamma - 1.0) * (2.0 + math.log(v)) + gamma * (
                gamma - 1.0
            ) * (1.0 - v) ** (gamma - 2.0) * v * math.log(v)

        pair = thresholds(gamma)
        assert 0.0 < pair.tau_oc < pair.tau_uc < 0.5
        assert confidence_weight(pair.tau_oc, gamma) > 1.0
        assert abs(confidence_weight(pair.tau_uc, gamma) - 1.0) <= 1e-9
        assert slope(pair.tau_oc * (1.0 - 1e-6)) > 0.0 > slope(pair.tau_oc * (1.0 + 1e-6))

    def test_small_gamma_still_inside_interval(self):
        pair = thresholds(0.01)
        assert 0.0 < pair.tau_oc < pair.tau_uc < 0.5

    def test_one_memo_entry_per_gamma(self):
        thresholds.cache_clear()
        first = thresholds(2.0)
        assert thresholds(2.0) is first
        info = thresholds.cache_info()
        assert (info.currsize, info.hits) == (1, 1)

    def test_cache_concurrent_readers(self):
        thresholds.cache_clear()
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: thresholds(2.0), range(32)))
        assert len({(r.tau_oc, r.tau_uc) for r in results}) == 1


class TestConfidenceRegion:
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_above_half_is_underconfident(self, gamma):
        assert confidence_region(0.6, gamma) is Region.UNDERCONFIDENT

    def test_below_oc_threshold(self):
        pair = thresholds(2.0)
        assert confidence_region(pair.tau_oc / 2, 2.0) is Region.OVERCONFIDENT

    def test_between_thresholds_is_ambiguous(self):
        pair = thresholds(2.0)
        mid = 0.5 * (pair.tau_oc + pair.tau_uc)
        assert confidence_region(mid, 2.0) is Region.AMBIGUOUS

    def test_boundaries_are_inclusive(self):
        pair = thresholds(3.0)
        assert confidence_region(pair.tau_oc, 3.0) is Region.OVERCONFIDENT
        assert confidence_region(pair.tau_uc, 3.0) is Region.UNDERCONFIDENT

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            confidence_region(bad, 2.0)


class TestConfidenceDirection:
    def test_fixed_points_are_exact(self):
        assert confidence_direction([0.25, 0.25, 0.25, 0.25], 3.0) is Direction.EXACT
        assert confidence_direction([1.0, 0.0], 3.0) is Direction.EXACT

    def test_binary_above_half_is_under(self):
        assert confidence_direction([0.8, 0.2], 2.0) is Direction.UNDER

    def test_many_class_witness_is_over(self):
        k = 1000
        top = 1.0 / k + 1e-5
        p = np.full(k, (1.0 - top) / (k - 1))
        p[0] = top
        assert confidence_direction(p, 0.02) is Direction.OVER

    def test_five_class_small_gamma_witness_is_over(self):
        k, gamma = 5, 0.02
        top = 1.0 / k + 1e-4
        p = np.full(k, (1.0 - top) / (k - 1))
        p[0] = top
        assert confidence_direction(p, gamma) is Direction.OVER

    def test_agrees_with_region_in_uc_zone(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            gamma = float(rng.choice([0.5, 1, 2, 3, 5]))
            k = int(rng.integers(2, 11))
            pair = thresholds(gamma)
            top = float(rng.uniform(pair.tau_uc + 1e-6, 0.97))
            k = max(k, int(1.0 / top) + 1)
            while True:
                rest = rng.dirichlet(np.ones(k - 1)) * (1.0 - top)
                if rest.max() < top:
                    break
            p = np.concatenate([[top], rest])
            assert confidence_region(top, gamma) is Region.UNDERCONFIDENT
            assert confidence_direction(p, gamma) is Direction.UNDER


class TestWeightCurveShape:
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_derivative_changes_sign_once(self, gamma):
        grid = np.linspace(1e-9, 1 - 1e-9, 100_000)
        values = np.asarray(confidence_weight(grid, gamma))
        diffs = np.diff(values)
        signs = np.sign(diffs[np.abs(diffs) > 1e-14 * np.abs(values).max()])
        assert int(np.count_nonzero(np.diff(signs))) == 1
        assert signs[0] > 0 and signs[-1] < 0

    @pytest.mark.parametrize("grid_size", [0, 2.5, True, math.nan])
    def test_weight_curve_rejects_bad_grid(self, grid_size):
        with pytest.raises(DomainError):
            weight_curve(2.0, grid_size)

    def test_direction_recovery_consistency(self):
        # in the guaranteed regions the full-vector comparison agrees with
        # what the recovered posterior itself says
        p = np.array([0.8, 0.15, 0.05])
        recovered = recover_posterior(p, 2.0)
        assert recovered.max() > p.max()
        assert confidence_direction(p, 2.0) is Direction.UNDER
