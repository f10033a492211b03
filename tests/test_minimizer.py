"""Risk minimizer: inverse solver, mirror-descent oracle, curve."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focal_calib.minimizer as minimizer
from focal_calib import (
    ConvergenceError,
    DomainError,
    confidence_curve,
    focal_loss,
    minimize_risk_inverse,
    minimize_risk_pg,
    recover_binary,
    recover_posterior,
)
from focal_calib.cli import main

GAMMAS = [0.5, 1.0, 2.0, 3.0, 5.0]


def random_simplex(rng, k):
    return rng.dirichlet(np.ones(k))


class TestInverseSolver:
    def test_one_hot_posterior(self):
        e = np.eye(4)[1]
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
            assert focal_loss(candidate, eta, 2.0) >= result.risk - 1e-12

    def test_order_preserved(self):
        # q_i < q_j implies eta_i < eta_j for every index pair of every row,
        # and the argmax (lowest index on ties) is shared
        rng = np.random.default_rng(4)
        for gamma in GAMMAS:
            etas = rng.dirichlet(np.ones(int(rng.integers(2, 9))), size=8)
            q = minimize_risk_inverse(etas, gamma).q_star
            q_less = q[:, :, None] < q[:, None, :]
            assert np.all(~q_less | (etas[:, :, None] < etas[:, None, :]))
            np.testing.assert_array_equal(q.argmax(axis=1), etas.argmax(axis=1))

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


def _log_focal_slope(q, gamma):
    # log(w_g(q) / q), written out apart from the package's score map
    return gamma * np.log1p(-q) + np.log1p(-gamma * q * np.log(q) / (1.0 - q)) - np.log(q)


class TestBatchedInverseSolver:
    def test_stack_matches_row_by_row(self):
        rng = np.random.default_rng(9)
        etas = rng.dirichlet(np.ones(6), size=30)
        etas[3] = [0.0, 0.5, 0.0, 0.5, 0.0, 0.0]
        etas[4] = np.eye(6)[1]
        etas[5] = [0.0, 0.7, 0.0, 0.3, 0.0, 0.0]
        for gamma in (0.0, 0.5, 2.0, 5.0):
            batch = minimize_risk_inverse(etas, gamma)
            rows = [minimize_risk_inverse(eta, gamma) for eta in etas]
            np.testing.assert_array_equal(batch.q_star, np.vstack([r.q_star for r in rows]))
            np.testing.assert_array_equal(batch.risk, [r.risk for r in rows])
            assert batch.iterations == max(r.iterations for r in rows)
            assert batch.residual == max(r.residual for r in rows)
            assert batch.q_star[5, 0] == 0.0 and batch.q_star[5, 2] == 0.0
            np.testing.assert_array_equal(batch.q_star[4], etas[4])

    def test_round_trip_is_tight(self):
        rng = np.random.default_rng(10)
        for gamma in (0.5, 1.0, 2.0, 3.0, 5.0):
            etas = rng.dirichlet(np.ones(8), size=40)
            q = minimize_risk_inverse(etas, gamma).q_star
            back = np.vstack([recover_posterior(row, gamma) for row in q])
            assert np.abs(back - etas).max() < 1e-12

    def test_telemetry_types(self):
        # benchmark tracing sums these and writes them with json.dump
        eta = np.array([0.6, 0.3, 0.1])
        for result in (
            minimize_risk_inverse(eta, 2.0),
            minimize_risk_inverse(np.vstack([eta, eta[::-1]]), 2.0),
            minimize_risk_inverse(eta, 0.0),
            minimize_risk_pg(eta, 2.0),
            minimize_risk_pg(np.vstack([eta, eta[::-1]]), 2.0),
        ):
            assert type(result.iterations) is int
            assert type(result.residual) is float
        single = minimize_risk_inverse(eta, 2.0)
        stack = minimize_risk_inverse(np.vstack([eta, eta]), 2.0)
        assert single.q_star.shape == (3,) and type(single.risk) is float
        assert stack.q_star.shape == (2, 3) and stack.risk.shape == (2,)

    def test_large_gamma_is_stationary_without_warnings(self):
        rng = np.random.default_rng(11)
        binary = np.vstack([[0.9, 0.1], [1.0 - 1e-8, 1e-8], [0.5 + 1e-9, 0.5 - 1e-9]])
        peaked = rng.dirichlet(np.full(10, 0.02), size=20)
        peaked /= peaked.sum(axis=1, keepdims=True)
        for gamma in (10.0, 100.0, 300.0, 1000.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                two = minimize_risk_inverse(binary, gamma)
                many = minimize_risk_inverse(peaked, gamma)
            assert two.iterations <= 20 and many.iterations <= 20
            for eta, q in zip(binary, two.q_star):
                assert abs(recover_binary(q[0], gamma) - eta[0]) < 1e-9
            support = peaked > 0.0
            q = np.where(support, many.q_star, 0.5)
            levels = np.log(np.where(support, peaked, 1.0)) + _log_focal_slope(q, gamma)
            spread = np.where(support, levels, -np.inf).max(axis=1) + np.where(
                support, -levels, -np.inf
            ).max(axis=1)
            assert spread.max() < 1e-6

    def test_curve_cli_at_large_gamma(self, tmp_path):
        out = tmp_path / "curve.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["curve", "--k", "10", "--gamma", "1000", "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        m, top = data[:, 0], data[:, 1]
        tail_m, tail_q = (1.0 - m) / 9, (1.0 - top) / 9
        level_top = np.log(m) + _log_focal_slope(top, 1000.0)
        level_tail = np.log(tail_m) + _log_focal_slope(tail_q, 1000.0)
        assert np.abs(level_top - level_tail).max() < 1e-6
        assert np.all(np.diff(top) > 0.0)

    def test_tol_below_float_resolution_is_kept_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(minimizer, "_SUM_TOL", 1e-17)
        rng = np.random.default_rng(13)
        etas = rng.dirichlet(np.ones(7), size=50)
        result = minimize_risk_inverse(etas, 2.0)
        assert result.residual <= 1e-9
        back = np.vstack([recover_posterior(row, 2.0) for row in result.q_star])
        assert np.abs(back - etas).max() < 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0, 100.0])
    def test_reported_risk_is_focal_loss(self, gamma):
        etas = np.random.default_rng(21).dirichlet(np.ones(6), size=20)
        etas[::3, 2:4] = 0.0
        etas /= etas.sum(axis=1, keepdims=True)
        result = minimize_risk_inverse(etas, gamma)
        for q, eta, risk in zip(result.q_star, etas, result.risk):
            assert focal_loss(q, eta, gamma) == risk
        one = minimize_risk_inverse(etas[0], gamma)
        assert focal_loss(one.q_star, etas[0], gamma) == one.risk

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(minimizer, "_NEWTON_ITERS", 1)
        with pytest.raises(ConvergenceError) as info:
            minimize_risk_inverse(np.array([0.7, 0.2, 0.1]), 2.0)
        assert np.isfinite(info.value.residual)


class TestProjectedGradientOracle:
    def test_one_hot(self):
        e = np.eye(3)[0]
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

    def test_iteration_cap_raises_with_residual(self, monkeypatch):
        monkeypatch.setattr(minimizer, "_PG_TOL", 1e-13)
        monkeypatch.setattr(minimizer, "_PG_ITERS", 3)
        eta = np.array([0.55, 0.25, 0.2])
        with pytest.raises(ConvergenceError) as info:
            minimize_risk_pg(eta, 2.0)
        assert info.value.residual > 0.0

    def test_two_cycle_row_stops_without_progress(self):
        # the risk change of the 1e-6 entry is below the rounding of the
        # risk; the step test reads only the gradient, so it still sees it
        eta = np.array([0.25, 0.25, 1e-6, 0.25])
        eta /= eta.sum()
        result = minimize_risk_pg(eta, 0.0)
        assert result.iterations < 100
        assert result.residual <= minimizer._PG_TOL
        assert np.abs(result.q_star - eta).max() < 1e-9

    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_rows_reach_the_spread_tolerance(self, k):
        etas = np.random.default_rng(k).dirichlet(np.ones(k), size=40)
        for gamma in GAMMAS:
            assert minimize_risk_pg(etas, gamma).residual <= 1e-9

    def test_peaked_row_at_large_gamma_agrees_with_inverse_solver(self):
        # entries of 1e-38 to 1e-194 move by less than _MOVE_TOL; the row
        # stops on the no-move test and must still be at the minimizer
        eta = np.random.default_rng(0).dirichlet(np.full(10, 0.01), 20)[8]
        qi = minimize_risk_inverse(eta, 1000.0).q_star
        qp = minimize_risk_pg(eta, 1000.0).q_star
        assert np.abs(qi - qp).max() < 1e-5

    def test_candidate_whose_gradient_overflows_is_rejected(self):
        # an overshooting step takes an entry near 1e-286 so low that its
        # gradient overflows; that candidate is rejected without a warning
        eta = np.array([1.0, 5.91332314e-202, 0.0, 3.58649215e-286, 5.28776754e-82, 6.63e-37, 0.0])
        eta /= eta.sum()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            qp = minimize_risk_pg(eta, 5.0).q_star
        assert np.abs(qp - minimize_risk_inverse(eta, 5.0).q_star).max() < 1e-12

    def test_large_gamma_agrees_with_inverse_solver(self):
        etas = np.random.default_rng(0).dirichlet(np.ones(10), size=50)
        qi = minimize_risk_inverse(etas, 100.0).q_star
        qp = minimize_risk_pg(etas, 100.0).q_star
        assert np.abs(qi - qp).max() < 1e-5

    @pytest.mark.parametrize("gamma", [3000.0, 1e4])
    def test_underflowing_risk_is_rescaled(self, gamma):
        # near uniform, (1 - q_i)^gamma underflows for every entry at these
        # gammas; the oracle scales the risk per row instead of stalling
        etas = np.array(
            [[0.9, 0.1, 0.0], [1.0 - 1e-9, 1e-9, 0.0], [0.5, 0.25, 0.25], [0.7, 0.2, 0.1]]
        )
        qi = minimize_risk_inverse(etas, gamma).q_star
        qp = minimize_risk_pg(etas, gamma).q_star
        assert np.abs(qi - qp).max() < 1e-5


_POSTERIOR_ROWS = st.integers(2, 7).flatmap(
    lambda k: st.lists(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=k, max_size=k
        ).filter(lambda row: sum(row) > 0.0),
        min_size=1,
        max_size=4,
    )
)


class TestMirrorDescentProperties:
    @settings(max_examples=40, deadline=None)
    @given(rows=_POSTERIOR_ROWS, gamma=st.sampled_from([0.0, 0.5, 2.0, 5.0, 100.0]))
    def test_batched_oracle(self, rows, gamma):
        etas = np.array(rows)
        etas /= etas.sum(axis=1, keepdims=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            stack = minimize_risk_pg(etas, gamma)
            alone = [minimize_risk_pg(eta, gamma) for eta in etas]
        assert type(stack.iterations) is int and type(stack.residual) is float
        assert np.all(stack.q_star[etas == 0.0] == 0.0)
        for row, result in zip(stack.q_star, alone):
            np.testing.assert_array_equal(row, result.q_star)
        np.testing.assert_allclose(stack.q_star.sum(axis=1), 1.0, atol=1e-12)
        assert np.abs(stack.q_star - minimize_risk_inverse(etas, gamma).q_star).max() < 1e-5


_COLLAPSED_ROWS = st.integers(2, 6).flatmap(
    lambda d: st.tuples(
        st.lists(
            st.lists(st.floats(1e-6, 1.0), min_size=d, max_size=d, unique=True),
            min_size=1,
            max_size=4,
        ),
        st.lists(st.integers(1, 50), min_size=d, max_size=d),
    )
)


class TestMultiplicities:
    @settings(max_examples=60, deadline=None)
    @given(drawn=_COLLAPSED_ROWS, gamma=st.sampled_from([0.5, 2.0, 5.0, 100.0]))
    def test_collapsed_rows_match_expanded(self, drawn, gamma):
        values, counts = np.array(drawn[0]), np.array(drawn[1], dtype=float)
        etas = values / (values * counts).sum(axis=1, keepdims=True)
        expanded = np.repeat(etas, drawn[1], axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            q, _, residual = minimizer._newton_rows(etas, gamma, counts)
            full = minimize_risk_inverse(expanded, gamma).q_star
        assert np.abs(np.repeat(q, drawn[1], axis=1) - full).max() <= 1e-13
        assert np.abs((counts * q).sum(axis=1) - 1.0).max() <= 1e-12
        assert residual <= 1e-12

    def test_default_count_is_one(self):
        etas = np.random.default_rng(5).dirichlet(np.ones(5), size=20)
        plain = minimizer._newton_rows(etas, 2.0)
        counted = minimizer._newton_rows(etas, 2.0, np.ones(5))
        np.testing.assert_array_equal(plain[0], counted[0])
        assert plain[1:] == counted[1:]


def _full_width_curve(k, gamma, grid_size):
    # the curve solved on the whole (grid, k) stack of uniform-tail posteriors
    tops = 1.0 / k + (np.arange(1, grid_size + 1) / (grid_size + 1.0)) * (1.0 - 1.0 / k)
    etas = np.repeat(((1.0 - tops) / (k - 1))[:, None], k, axis=1)
    etas[:, 0] = tops
    return tops, minimize_risk_inverse(etas, gamma).q_star.max(axis=1)


def _assert_stationary_curve(m, top, k, gamma):
    # the top and each tail entry share one level log eta_i + log(w_g(q_i) / q_i)
    level_top = np.log(m) + _log_focal_slope(top, gamma)
    level_tail = np.log((1.0 - m) / (k - 1)) + _log_focal_slope((1.0 - top) / (k - 1), gamma)
    assert np.abs(level_top - level_tail).max() < 1e-6
    assert np.all(np.diff(top) > 0.0)


class TestConfidenceCurve:
    @pytest.mark.parametrize("k", [2, 3, 10, 1000])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0, 5.0, 1000.0])
    def test_matches_full_width_solve(self, k, gamma):
        m, top = np.array(confidence_curve(k, gamma, grid_size=100)).T
        tops, full = _full_width_curve(k, gamma, 100)
        np.testing.assert_array_equal(m, tops)
        if k == 2 or gamma == 0.0:
            np.testing.assert_array_equal(top, full)
        else:
            assert np.abs(top - full).max() <= 1e-14

    def test_memory_does_not_grow_with_k(self):
        tracemalloc.start()
        try:
            confidence_curve(20_000, 2.0, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("gamma", [1e-8, 0.5, 2.0, 100.0, 1e6])
    def test_stationary_up_to_the_largest_k(self, gamma):
        k = 10**15
        m, top = np.array(confidence_curve(k, gamma, grid_size=1000)).T
        _assert_stationary_curve(m, top, k, gamma)

    def test_cli_at_a_trillion_classes(self, tmp_path):
        k, gamma = 10**12, 0.5
        out = tmp_path / "curve.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["curve", "--k", str(k), "--gamma", str(gamma), "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (100, 2)
        _assert_stationary_curve(data[:, 0], data[:, 1], k, gamma)

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

    def test_rejects_bad_arguments(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved before checking the arguments")

        monkeypatch.setattr(minimizer, "minimize_risk_inverse", no_solve)
        monkeypatch.setattr(minimizer, "_newton_rows", no_solve)
        bad = (1, 2.5, True, float("nan"))
        bad_k = (*bad, 10**15 + 1, 1e16)
        for k, grid in [(k, 4) for k in bad_k] + [(3, grid) for grid in (0, *bad[1:])]:
            with pytest.raises(DomainError):
                confidence_curve(k, 2.0, grid_size=grid)

    def test_integral_float_counts(self):
        assert confidence_curve(3.0, 2.0, grid_size=4.0) == confidence_curve(3, 2.0, grid_size=4)
