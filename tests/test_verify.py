"""Verification-suite runner: pass/fail aggregation, negative control."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focal_calib.core as core
import focal_calib.verify as verify
from focal_calib import DomainError, run_verify, thresholds


class TestRunVerify:
    def test_default_small_sweep_passes(self):
        report = run_verify(n_random=40, seed=1)
        assert report.all_passed
        names = {c.name for c in report.checks}
        assert {
            "recovery_round_trip",
            "solver_agreement",
            "threshold_ordering",
            "region_consistency",
            "high_confidence_underestimates",
            "binary_closed_form",
            "large_gamma_recovery",
            "fixed_points",
            "argmax_preserved",
            "weight_curve_shape",
            "score_monotone",
            "low_confidence_overestimates",
            "order_preserving",
            "gamma_zero_identity",
        } <= names

    def test_gamma_zero_sweep_strict_properness(self):
        report = run_verify(gamma_list=(1.0,), n_random=20, seed=2)
        check = {c.name: c for c in report.checks}["gamma_zero_identity"]
        assert check.passed and check.worst_residual == 0.0

    def test_table_formatting(self):
        report = run_verify(n_random=10, seed=3)
        table = report.format_table()
        assert "recovery_round_trip" in table
        assert "PASS" in table
        (line,) = [row for row in table.splitlines() if "solver_agreement" in row]
        assert re.search(r"\[oracle iterations=[1-9]\d* residual=\d\.\de[-+]\d\d\]$", line)
        (line,) = [row for row in table.splitlines() if "recovery_round_trip" in row]
        assert re.search(r"\[newton iterations=[1-9]\d* residual=\d\.\de[-+]\d\d\]$", line)

    def test_corrupted_kernels_fail_checks(self, monkeypatch):
        # negative control.  The log weight kernel loses its log1p bracket
        # term, so the inverse solver and the transform invert the wrong map
        # together: they still agree with each other, but not with the
        # mirror-descent oracle or the two-class closed form, which
        # never use the kernel.  The weight curve becomes (1 - v)^g, which
        # has no interior maximum and never returns to 1.
        monkeypatch.setattr(core, "_log_weight", lambda v, g: g * np.log1p(-v))
        # the thresholds memo must not keep values from the corrupted curve
        thresholds.cache_clear()
        try:
            report = run_verify(n_random=15, seed=4)
        finally:
            thresholds.cache_clear()
        check = {c.name: c for c in report.checks}
        assert not check["solver_agreement"].passed
        assert not check["binary_closed_form"].passed
        assert not check["threshold_ordering"].passed
        assert not check["weight_curve_shape"].passed
        assert check["recovery_round_trip"].passed
        assert not report.all_passed

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma_list": []},
            {"k_list": []},
            {"gamma_list": [2.0, float("nan")]},
            {"gamma_list": [-0.5]},
            {"k_list": [3, 1]},
            {"k_list": [-3]},
            {"k_list": [2.7]},
            {"k_list": [True, 3]},
            {"k_list": [float("nan")]},
            {"k_list": [float("inf")]},
            {"n_random": 0},
            {"n_random": 2.5},
            {"n_random": True},
            {"n_random": float("nan")},
            {"gamma_list": [0.0]},
            {"gamma_list": [2.0, -0.0]},
            {"k_list": [10**400]},
            {"k_list": [3, 2**63]},
            {"n_random": 10**20},
            {"n_random": 1e300},
            {"seed": -1},
            {"seed": 1.5},
        ],
        ids=[
            "no_gamma",
            "no_k",
            "nan_gamma",
            "negative_gamma",
            "k_1",
            "negative_k",
            "fractional_k",
            "bool_k",
            "nan_k",
            "inf_k",
            "zero_n_random",
            "fractional_n_random",
            "bool_n_random",
            "nan_n_random",
            "zero_gamma",
            "negative_zero_gamma",
            "k_beyond_float",
            "k_beyond_intp",
            "huge_n_random",
            "huge_float_n_random",
            "negative_seed",
            "fractional_seed",
        ],
    )
    def test_bad_lists_raise_before_any_draw(self, monkeypatch, kwargs):
        def no_draw(*args):
            raise AssertionError("drew before checking the lists")

        monkeypatch.setattr(verify, "_draw_checks", no_draw)
        with pytest.raises(DomainError):
            run_verify(**kwargs)

    def test_integral_float_k_is_a_class_count(self):
        as_float = run_verify(gamma_list=[2.0], k_list=[3.0], n_random=4, seed=1)
        as_int = run_verify(gamma_list=[2.0], k_list=[3], n_random=4, seed=1)
        assert as_float.format_table() == as_int.format_table()

    def test_nan_residual_fails_its_check(self, monkeypatch):
        # a builtin max over residuals drops a NaN and reads 0; numpy keeps it
        monkeypatch.setattr(
            verify, "recover_posterior_rows", lambda rows, gamma: np.full(np.shape(rows), np.nan)
        )
        report = run_verify(n_random=20, seed=5)
        check = {c.name: c for c in report.checks}
        assert not check["recovery_round_trip"].passed
        assert np.isnan(check["recovery_round_trip"].worst_residual)
        assert not check["high_confidence_underestimates"].passed
        assert not report.all_passed

    def test_each_posterior_is_solved_once(self, monkeypatch):
        solved_rows = []
        inverse = verify.minimize_risk_inverse

        def counting(eta, gamma, *args, **kwargs):
            if np.any(np.asarray(gamma) > 0.0):
                solved_rows.append((np.atleast_2d(eta).shape[0], np.unique(gamma).size))
            return inverse(eta, gamma, *args, **kwargs)

        monkeypatch.setattr(verify, "minimize_risk_inverse", counting)
        report = run_verify(n_random=60, seed=6)
        assert report.all_passed
        # one call for the whole draw, with every gamma in it, one per row
        assert solved_rows == [(60, len(verify.DEFAULT_GAMMAS))]
        samples = {c.name: c.samples for c in report.checks}
        assert samples["solver_agreement"] == 20 and samples["order_preserving"] == 60

    @pytest.mark.parametrize("gamma", [1e6, 1e9, 1e12, 1e15])
    def test_weight_curve_shape_sees_a_maximum_near_zero(self, gamma):
        # the maximum, at tau_oc, lies inside the linear grid's first step
        assert thresholds(gamma).tau_oc < 1e-5
        shape, monotone = verify._check_weight_and_score([gamma])
        assert shape.name == "weight_curve_shape" and shape.passed
        assert monotone.name == "score_monotone" and monotone.passed

    def test_weight_grid_joins_the_log_grid_at_its_end(self):
        # the log-spaced grid ends exactly where the linear grid starts, so
        # dropping that point joins the two as union1d would, without a sort
        log_grid = np.geomspace(1e-300, 1e-9, 3000)
        assert log_grid[-1] == 1e-9
        linear = np.linspace(1e-9, 1.0 - 1e-9, 100_000)
        np.testing.assert_array_equal(verify._weight_grid(100_000), np.union1d(linear, log_grid))

    def test_region_blocks_do_not_change_the_table(self, monkeypatch):
        expected = run_verify(seed=7).format_table()
        # one over-confident row per block
        monkeypatch.setattr(core, "_BLOCK", 4)
        assert run_verify(seed=7).format_table() == expected


def _one_sign_flip(diffs, noise):
    # the sign-flip count the weight-curve check took before _rises_then_falls
    signs = np.sign(diffs[np.abs(diffs) > noise])
    flips = int(np.count_nonzero(np.diff(signs)))
    return bool(flips == 1 and signs[0] > 0 and signs[-1] < 0)


# zeros, sub-noise values and NaN beside values past the noise; each array
# is kept as drawn, or made all positive or all negative
_DIFF = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, 1e-4, -1e-4, 1.0, -1.0]), st.floats(-2.0, 2.0)
)
_DIFFS = st.tuples(st.lists(_DIFF, min_size=1, max_size=30), st.sampled_from([0, 1, -1])).map(
    lambda drawn: np.abs(drawn[0]) * drawn[1] if drawn[1] else np.array(drawn[0])
)


class TestWeightAndScore:
    @settings(max_examples=300, deadline=None)
    @given(diffs=_DIFFS, noise=st.sampled_from([0.0, 1e-3, 0.5]))
    def test_rise_and_fall_passes_equal_the_sign_flip_count(self, diffs, noise):
        assert verify._rises_then_falls(diffs, noise) == _one_sign_flip(diffs, noise)

    def test_samples_cover_the_weight_grid(self):
        shape, monotone = verify._check_weight_and_score([0.5, 2.0])
        assert shape.samples == monotone.samples == 2 * verify._weight_grid(100_000).size
        assert shape.passed and monotone.passed

    @pytest.mark.parametrize(
        "lo, hi, in_old_grid",
        # one dip inside the grid the score check once took, linspace(1e-9,
        # 1 - 1e-6, 100_000); one only in the weight grid's range past it
        [(0.3, 0.3 + 5e-5, True), (1.0 - 1e-6, 1.0, False)],
        ids=["inside_the_old_grid", "past_the_old_grid"],
    )
    def test_a_dip_in_the_score_map_fails_score_monotone(self, monkeypatch, lo, hi, in_old_grid):
        log_weight = core._log_weight
        grid = verify._weight_grid(100_000)
        assert np.any((grid > lo) & (grid < hi))
        old_grid = np.linspace(1e-9, 1.0 - 1e-6, 100_000)
        assert np.any((old_grid > lo) & (old_grid < hi)) == in_old_grid
        # log w rises by 100 inside the window, so log s = log v - log w dips
        monkeypatch.setattr(
            core, "_log_weight", lambda v, g: log_weight(v, g) + 100.0 * ((v > lo) & (v < hi))
        )
        _, monotone = verify._check_weight_and_score([0.5, 2.0])
        assert not monotone.passed and monotone.worst_residual == 1.0
