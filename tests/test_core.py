"""Closed-form machinery: losses, weight curve, score map, recovery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focal_calib import (
    DimensionError,
    DomainError,
    InvalidSimplexError,
    SingularityError,
    as_simplex,
    confidence_weight,
    focal_loss,
    is_uniform_on_support,
    recover_binary,
    recover_posterior,
    recover_posterior_rows,
    recovery_score,
)
from focal_calib import core
from focal_calib.core import validate_simplex_rows

GAMMAS = [0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0]


def random_simplex(rng, k):
    return rng.dirichlet(np.ones(k))


simplexes = st.lists(st.floats(0.01, 1.0), min_size=2, max_size=10).map(
    lambda vals: np.asarray(vals) / np.sum(vals)
)


class TestSimplexValidation:
    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidSimplexError):
            as_simplex([0.5, 0.4])

    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidSimplexError):
            as_simplex([1.2, -0.2])

    def test_rejects_scalar_and_single_entry(self):
        with pytest.raises(DimensionError):
            as_simplex([1.0])

    def test_clips_boundary_noise(self):
        p = as_simplex([1.0 + 5e-10, -5e-10])
        assert p[0] == 1.0 and p[1] == 0.0

    def test_rejects_exact_one_with_inconsistent_rest(self):
        # an exact-1 entry plus non-negligible mass elsewhere is not a simplex
        with pytest.raises(InvalidSimplexError):
            as_simplex([1.0, 0.1])

    @pytest.mark.parametrize(
        "row, reason",
        [
            ([0.5, 0.4], "(sum 0.9 differs from 1 by more than 1e-09)"),
            ([1.2, -0.2], "(entry -0.2 below 0)"),
            ([1.5, 0.0], "(entry 1.5 above 1)"),
            ([np.nan, 1.0], "(non-finite entry)"),
            ([np.inf, 0.0], "(non-finite entry)"),
        ],
    )
    def test_message_names_the_failed_condition(self, row, reason):
        rows = np.array([[0.5, 0.5], row])
        with pytest.raises(InvalidSimplexError) as info:
            validate_simplex_rows(rows, 1e-9)
        assert str(info.value) == f"row 1 is not a probability vector {reason}"
        with pytest.raises(InvalidSimplexError) as info:
            validate_simplex_rows(rows, 1e-9, [4, 7])
        assert info.value.line == 7
        assert str(info.value) == f"line 7: row is not a probability vector {reason}"


class TestFocalLoss:
    def test_one_hot_match_is_zero(self):
        e = np.eye(2)[0]
        assert focal_loss(e, e, 2.0) == 0.0

    def test_gamma_zero_is_cross_entropy_value(self):
        assert focal_loss([0.5, 0.5], [1, 0], 0.0) == pytest.approx(math.log(2), abs=1e-12)
        assert focal_loss([1, 0], [1, 0], 0.0) == 0.0
        assert focal_loss([0.25, 0.75], [0, 1], 0.0) == pytest.approx(-math.log(0.75), abs=1e-15)
        assert focal_loss([0.5, 0.5], [0.5, 0.5], 0.0) == pytest.approx(math.log(2), abs=1e-15)

    def test_hand_value_gamma_two(self):
        # 1 * (1 - 0.5)^2 * (-log 0.5), written out independently
        expected = 0.25 * -math.log(0.5)
        assert focal_loss([0.5, 0.5], [1, 0], 2.0) == pytest.approx(expected, abs=1e-15)
        # both classes share (1 - 0.5)^2 * (-log 0.5); posterior weights sum to 1
        assert focal_loss([0.5, 0.5], [0.7, 0.3], 2.0) == pytest.approx(expected, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            focal_loss([0.5, 0.5], [0.2, 0.3, 0.5], 1.0)

    def test_zero_prediction_on_active_class_is_inf(self):
        assert focal_loss([0.0, 1.0], [1, 0], 2.0) == math.inf

    def test_negative_gamma_rejected(self):
        with pytest.raises(DomainError):
            focal_loss([0.5, 0.5], [1, 0], -1.0)


class TestConfidenceWeight:
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_endpoints(self, gamma):
        assert confidence_weight(0.0, gamma) == 1.0
        assert confidence_weight(1.0, gamma) == 0.0

    def test_hand_value_gamma_two(self):
        expected = 0.25 - 2.0 * 0.5 * 0.5 * math.log(0.5)
        assert confidence_weight(0.5, 2.0) == pytest.approx(expected, abs=1e-15)

    def test_gamma_zero_is_constant_one(self):
        v = np.linspace(0, 1, 11)
        np.testing.assert_array_equal(confidence_weight(v, 0.0), np.ones(11))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            confidence_weight(1.5, 2.0)

    def test_array_matches_scalar(self):
        v = np.linspace(0.0, 1.0, 7)
        batch = confidence_weight(v, 3.0)
        singles = [confidence_weight(float(x), 3.0) for x in v]
        np.testing.assert_allclose(batch, singles, rtol=0, atol=0)


class TestRecoveryScore:
    def test_zero_maps_to_zero(self):
        assert recovery_score(0.0, 3.0) == 0.0

    def test_identity_at_gamma_zero(self):
        v = np.linspace(0.0, 0.999, 13)
        np.testing.assert_array_equal(recovery_score(v, 0.0), v)

    def test_hand_value_gamma_two(self):
        expected = 0.5 / (0.25 - 2.0 * 0.5 * 0.5 * math.log(0.5))
        assert recovery_score(0.5, 2.0) == pytest.approx(expected, abs=1e-15)

    def test_singular_at_one(self):
        with pytest.raises(SingularityError):
            recovery_score(1.0, 2.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_float64_overflow_is_singular(self):
        # log s_g(0.9999) at gamma 100 is about 921, past log(max float) ~ 709.8
        with pytest.raises(SingularityError, match="recover_posterior_rows"):
            recovery_score(np.array([0.5, 0.9999]), 100.0)
        # the row-wise transform normalizes in the log domain and stays finite
        rows = recover_posterior_rows(np.array([[0.9999, 0.0001]]), 100.0)
        assert np.all(np.isfinite(rows))

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_strictly_increasing_dense(self, gamma):
        grid = np.linspace(1e-9, 1 - 1e-6, 20_000)
        values = recovery_score(grid, gamma)
        assert np.all(np.diff(values) > 0)

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0, 2.0, 3.0, 5.0])
    def test_log_kernel_matches_textbook_weight(self, gamma):
        # the score map and the weight curve both read core._log_weight;
        # checked against the unfactored w_g where (1 - v)^g is representable
        grid = np.concatenate([np.geomspace(1e-12, 0.5, 2_000), 1.0 - np.geomspace(1e-6, 0.5, 2_000)])
        textbook = (1.0 - grid) ** gamma - gamma * (1.0 - grid) ** (gamma - 1.0) * grid * np.log(grid)
        np.testing.assert_allclose(np.exp(core._log_score(grid, gamma)), grid / textbook, rtol=1e-13, atol=0)
        np.testing.assert_allclose(confidence_weight(grid, gamma), textbook, rtol=1e-13, atol=0)


class TestUniformOnSupport:
    def test_one_hot(self):
        assert is_uniform_on_support(np.eye(4)[1])

    def test_uniform(self):
        assert is_uniform_on_support(np.full(5, 0.2))

    def test_partial_support(self):
        assert is_uniform_on_support([0.5, 0.0, 0.5])

    def test_generic_vector_is_not(self):
        assert not is_uniform_on_support([0.7, 0.2, 0.1])



    @pytest.mark.parametrize("base", [[0.5, 0.5, 0.0], [0.25, 0.25, 0.25, 0.25]])
    @pytest.mark.parametrize("gap", [0.0, 0.5e-9, 2e-9])
    def test_agrees_with_transform_fixed_points(self, base, gap):
        # the top two entries sit gap apart; SIMPLEX_TOL = 1e-9 separates them
        p = np.array(base)
        p[0] += gap / 2
        p[1] -= gap / 2
        fixed = gap < 1e-9
        assert is_uniform_on_support(p) is fixed
        assert np.array_equal(recover_posterior(p, 2.0), p) is fixed


class TestRecoverPosterior:
    def test_identity_at_gamma_zero(self):
        p = np.array([0.6, 0.3, 0.1])
        np.testing.assert_array_equal(recover_posterior(p, 0.0), p)

    def test_uniform_is_fixed(self):
        p = np.full(4, 0.25)
        np.testing.assert_array_equal(recover_posterior(p, 3.0), p)

    def test_one_hot_passes_through(self):
        e = np.eye(3)[2]
        np.testing.assert_array_equal(recover_posterior(e, 5.0), e)

    def test_matches_binary_closed_form(self):
        for gamma in GAMMAS:
            for q in (0.55, 0.7, 0.8, 0.95, 0.2):
                via_transform = recover_posterior(np.array([q, 1 - q]), gamma)
                direct = recover_binary(q, gamma)
                assert abs(via_transform[0] - direct) < 1e-10
                assert abs(via_transform[1] - (1 - direct)) < 1e-10

    @given(simplexes, st.floats(0.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_output_is_simplex_and_argmax_preserved(self, p, gamma):
        out = recover_posterior(p, gamma)
        assert abs(out.sum() - 1.0) < 1e-9
        assert out.min() >= 0.0
        assert int(np.argmax(out)) == int(np.argmax(p))

    @pytest.mark.parametrize("gamma", [0.25, 1.0, 5.0])
    def test_argmax_kept_on_near_ties(self, gamma):
        # the second entry sits 1 to 3 ulps below the top; rounding in the
        # transform must not hand it the argmax
        rng = np.random.default_rng(12)
        rows = rng.dirichlet(np.ones(4), size=3000)
        rows[:, 0] = rows.max(axis=1)
        for gap in (1, 2, 3):
            tied = rows.copy()
            tied[:, 1] = tied[:, 0]
            for _ in range(gap):
                tied[:, 1] = np.nextafter(tied[:, 1], 0.0)
            tied /= tied.sum(axis=1, keepdims=True)
            tied = tied[tied.argmax(axis=1) == 0]
            out = recover_posterior_rows(tied, gamma)
            assert (out.argmax(axis=1) == 0).all()
            np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_rows_variant_matches_per_row(self):
        rng = np.random.default_rng(3)
        rows = np.vstack([random_simplex(rng, 6) for _ in range(40)] + [np.eye(6)[0]])
        batch = recover_posterior_rows(rows, 2.5)
        singles = np.vstack([recover_posterior(row, 2.5) for row in rows])
        np.testing.assert_allclose(batch, singles, atol=1e-15, rtol=0)

    def test_rows_rejects_bad_row(self):
        with pytest.raises(InvalidSimplexError):
            recover_posterior_rows(np.array([[0.5, 0.4], [0.5, 0.5]]), 1.0)

    def test_rows_spanning_blocks_match_per_row_and_leave_input(self):
        rng = np.random.default_rng(8)
        rows = rng.dirichlet(np.ones(1000), size=70)  # 70k entries: two blocks
        rows[5] = 0.0
        rows[5, :4] = 0.25
        before = rows.copy()
        batch = recover_posterior_rows(rows, 3.0)
        np.testing.assert_array_equal(rows, before)
        singles = np.vstack([recover_posterior(row, 3.0) for row in rows])
        np.testing.assert_array_equal(batch, singles)
        np.testing.assert_array_equal(batch[5], before[5])


def _top_rows(top, k, rng=None):
    # rows [top, tail...] with the tail spread uniformly, or by a Dirichlet draw
    tail = np.full(k - 1, 1.0 / (k - 1)) if rng is None else rng.dirichlet(np.ones(k - 1))
    return np.concatenate([[top], (1.0 - top) * tail])


class TestLargeGamma:
    """Recovery where (1 - v)^g underflows: finite, normalized, argmax kept."""

    @pytest.mark.parametrize("gamma", [50.0, 100.0, 300.0, 1000.0])
    @pytest.mark.parametrize("k", [2, 10, 1000])
    def test_grid_of_tops(self, gamma, k):
        rows = np.vstack([_top_rows(top, k) for top in (0.5 + 1e-3, 0.9, 0.9999, 1.0 - 1e-8)])
        out = recover_posterior_rows(rows, gamma)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert (out.argmax(axis=1) == 0).all()
        assert (out[:, 0] >= rows[:, 0]).all()
        if k == 2:
            for row, got in zip(rows, out):
                assert abs(got[0] - recover_binary(row[0], gamma)) < 1e-10

    @given(
        st.floats(50.0, 1000.0),
        st.floats(0.9, 1.0 - 1e-8),
        st.sampled_from([2, 10, 1000]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_property(self, gamma, top, k, seed):
        row = _top_rows(top, k, np.random.default_rng(seed))
        out = recover_posterior(row, gamma)
        assert np.isfinite(out).all()
        assert abs(out.sum() - 1.0) <= 1e-12
        assert int(np.argmax(out)) == 0
        if k == 2:
            assert abs(out[0] - recover_binary(row[0], gamma)) < 1e-10


class TestRecoverBinary:
    def test_identity_at_gamma_zero(self):
        assert recover_binary(0.8, 0.0) == pytest.approx(0.8, abs=1e-14)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_symmetric_point_is_fixed(self, gamma):
        assert recover_binary(0.5, gamma) == pytest.approx(0.5, abs=1e-14)

    def test_underestimation_above_half(self):
        value = recover_binary(0.8, 2.0)
        assert 0.8 < value < 1.0

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_domain_error_at_endpoints(self, q):
        with pytest.raises(DomainError):
            recover_binary(q, 2.0)

    @pytest.mark.parametrize("gamma", [3000.0, 1e4])
    def test_finite_where_both_powers_underflow(self, gamma):
        # q^g and (1 - q)^g are both 0 in float64; the RuntimeWarning filter
        # turns a silent 0/0 into a failure
        for q in (0.3, 0.7):
            value = recover_binary(q, gamma)
            assert np.isfinite(value) and (value > q) == (q > 0.5)
        assert recover_binary(0.5, gamma) == pytest.approx(0.5, abs=1e-14)

    def test_array_matches_scalar_calls(self):
        q = np.linspace(0.01, 0.99, 23)
        for gamma in (0.0, *GAMMAS, 300.0):
            got = recover_binary(q, gamma)
            assert isinstance(got, np.ndarray) and got.shape == q.shape
            np.testing.assert_array_equal(got, [recover_binary(float(v), gamma) for v in q])
        assert isinstance(recover_binary(0.3, 2.0), float)

    def test_domain_error_on_any_array_entry(self):
        with pytest.raises(DomainError):
            recover_binary(np.array([0.3, 1.0]), 2.0)


def test_every_exported_name_resolves():
    import focal_calib

    missing = [name for name in focal_calib.__all__ if not hasattr(focal_calib, name)]
    assert missing == []
