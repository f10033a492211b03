"""A gamma per row: the recovery transform and both risk solvers on mixed-gamma stacks."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focal_calib.core as core
import focal_calib.minimizer as minimizer
from focal_calib import (
    DimensionError,
    DomainError,
    minimize_risk_inverse,
    minimize_risk_pg,
    recover_posterior_rows,
)

GAMMAS = [0.0, 0.5, 1.0, 2.0, 5.0, 100.0]


def _stack(k, pad):
    # one row of k classes, normalized, with `pad` zero columns after it:
    # a drawn row or a one-hot row, each with a gamma
    drawn = st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=k, max_size=k)
    row = st.one_of(
        drawn.filter(lambda entries: sum(entries) > 0.0),
        st.integers(0, k - 1).map(lambda i: np.eye(k)[i].tolist()),
    )
    return st.lists(st.tuples(row, st.sampled_from(GAMMAS)), max_size=6).map(
        lambda rows: _padded(rows, k, pad)
    )


def _padded(rows, k, pad):
    etas = np.zeros((len(rows), k + pad))
    if rows:
        etas[:, :k] = [entries for entries, _ in rows]
        etas /= etas.sum(axis=1, keepdims=True)
    return etas, np.array([gamma for _, gamma in rows], dtype=float)


_STACKS = st.tuples(st.integers(2, 6), st.integers(0, 3)).flatmap(lambda kp: _stack(*kp))


def _by_gamma(gammas):
    return [(gamma, gammas == gamma) for gamma in np.unique(gammas)]


class TestPerRowContract:
    @settings(max_examples=60, deadline=None)
    @given(drawn=_STACKS)
    def test_recovery_rows_match_their_gamma(self, drawn):
        etas, gammas = drawn
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mixed = recover_posterior_rows(etas, gammas)
            for gamma, rows in _by_gamma(gammas):
                np.testing.assert_array_equal(
                    mixed[rows], recover_posterior_rows(etas, gamma)[rows]
                )
        # rows at gamma 0 come out as they went in
        np.testing.assert_array_equal(mixed[gammas == 0.0], etas[gammas == 0.0])
        assert mixed.shape == etas.shape

    @pytest.mark.parametrize("solve", [minimize_risk_inverse, minimize_risk_pg])
    @settings(max_examples=40, deadline=None)
    @given(drawn=_STACKS)
    def test_solver_rows_match_their_gamma(self, solve, drawn):
        etas, gammas = drawn
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mixed = solve(etas, gammas)
            alone = {gamma: (rows, solve(etas[rows], gamma)) for gamma, rows in _by_gamma(gammas)}
        for rows, result in alone.values():
            np.testing.assert_array_equal(mixed.q_star[rows], result.q_star)
            # numpy's power takes scalar-exponent shortcuts, so the risk may
            # move by an ulp
            np.testing.assert_allclose(mixed.risk[rows], result.risk, rtol=1e-14, atol=0.0)
        assert mixed.iterations == max((r.iterations for _, r in alone.values()), default=0)
        assert mixed.residual == max((r.residual for _, r in alone.values()), default=0.0)
        assert type(mixed.iterations) is int and type(mixed.residual) is float
        one_hot = (etas > 0.0).sum(axis=1) == 1
        np.testing.assert_array_equal(mixed.q_star[one_hot], etas[one_hot] > 0.0)
        assert np.all(mixed.q_star[etas == 0.0] == 0.0)
        if solve is minimize_risk_inverse:
            np.testing.assert_array_equal(mixed.q_star[gammas == 0.0], etas[gammas == 0.0])

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_scalar_gamma_equals_a_gamma_array(self, gamma):
        etas = np.random.default_rng(1).dirichlet(np.ones(5), size=7)
        etas[2] = np.eye(5)[3]
        etas[4, 1:] = 0.0
        etas[4, 0] = 1.0
        per_row = np.full(7, gamma)
        np.testing.assert_array_equal(
            recover_posterior_rows(etas, gamma), recover_posterior_rows(etas, per_row)
        )
        for solve in (minimize_risk_inverse, minimize_risk_pg):
            scalar, rows = solve(etas, gamma), solve(etas, per_row)
            np.testing.assert_array_equal(scalar.q_star, rows.q_star)
            assert (scalar.iterations, scalar.residual) == (rows.iterations, rows.residual)

    def test_empty_stack(self):
        etas, gammas = np.empty((0, 4)), np.empty(0)
        assert recover_posterior_rows(etas, gammas).shape == (0, 4)
        for solve in (minimize_risk_inverse, minimize_risk_pg):
            result = solve(etas, gammas)
            assert result.q_star.shape == (0, 4) and result.risk.shape == (0,)
            assert (result.iterations, result.residual) == (0, 0.0)

    def test_one_vector_takes_a_one_gamma_array(self):
        eta = np.array([0.6, 0.3, 0.1])
        result = minimize_risk_inverse(eta, np.array([2.0]))
        np.testing.assert_array_equal(result.q_star, minimize_risk_inverse(eta, 2.0).q_star)
        assert result.q_star.shape == (3,) and isinstance(result.risk, float)


_BAD_GAMMAS = [
    (np.array([1.0, np.nan, 2.0]), DomainError),
    (np.array([1.0, 2.0, np.inf]), DomainError),
    (np.array([-1.0, 2.0, 2.0]), DomainError),
    ([0.5, 2.0, -1e-300], DomainError),
    (np.array([1.0, 2.0]), DimensionError),
    (np.array([1.0, 2.0, 3.0, 4.0]), DimensionError),
    (np.ones((3, 1)), DimensionError),
    (np.ones((1, 3)), DimensionError),
]


class TestBadGammaArrays:
    @pytest.mark.parametrize(
        "function", [recover_posterior_rows, minimize_risk_inverse, minimize_risk_pg]
    )
    @pytest.mark.parametrize(
        "gammas, error", _BAD_GAMMAS,
        ids=["nan", "inf", "negative", "tiny_negative", "short", "long", "column", "row"],
    )
    def test_raises_before_any_solve(self, monkeypatch, function, gammas, error):
        def no_solve(*args):
            raise AssertionError("solved before checking gamma")

        monkeypatch.setattr(core, "_recover_rows", no_solve)
        monkeypatch.setattr(minimizer, "_newton_rows", no_solve)
        monkeypatch.setattr(minimizer, "_mirror_rows", no_solve)
        etas = np.random.default_rng(2).dirichlet(np.ones(4), size=3)
        with pytest.raises(error):
            function(etas, gammas)


class TestBlockedSolve:
    def test_mixed_stack_memory_is_bounded(self, monkeypatch):
        # a 1000 x 1000 mixed-gamma stack: the row blocks of the solve peak
        # at about 42 MB traced, the whole stack at once at about 129 MB
        rng = np.random.default_rng(3)
        etas = rng.dirichlet(np.ones(1000), size=1000)
        gammas = rng.choice([0.0, 0.5, 2.0, 100.0], 1000)

        def peak():
            tracemalloc.start()
            try:
                result = minimize_risk_inverse(etas, gammas)
                return tracemalloc.get_traced_memory()[1], result
            finally:
                tracemalloc.stop()

        blocked, result = peak()
        monkeypatch.setattr(core, "_BLOCK", etas.size)
        whole, unblocked = peak()
        assert blocked < 80e6 < whole
        np.testing.assert_array_equal(result.q_star, unblocked.q_star)
        assert (result.iterations, result.residual) == (unblocked.iterations, unblocked.residual)
