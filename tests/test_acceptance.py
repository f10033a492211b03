"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a one-line PASS/FAIL summary (visible with ``pytest -s``
or in the captured output of a failing run).
"""

import math
import time

import numpy as np
import pytest

from focal_calib import (
    MlpModel,
    PredictionSet,
    ScoreKind,
    TrainConfig,
    bin_reliability,
    confidence_weight,
    cw_ece,
    default_distribution,
    fit_temperature,
    grad_check,
    minimize_risk_inverse,
    minimize_risk_pg,
    nll,
    recover_binary,
    recover_posterior,
    recovery_score,
    run_experiment,
    thresholds,
)

SWEEP_GAMMAS = (0.5, 1.0, 2.0, 3.0, 5.0)
THRESHOLD_GAMMAS = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0)


def _report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {detail} -> {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def sweep():
    """1000 random (posterior, gamma) pairs, K in 2..10, shared by C1/C2."""
    rng = np.random.default_rng(20240901)
    cases = []
    for i in range(1000):
        k = int(rng.integers(2, 11))
        gamma = float(SWEEP_GAMMAS[i % len(SWEEP_GAMMAS)])
        cases.append((gamma, rng.dirichlet(np.ones(k))))
    return cases


@pytest.fixture(scope="module")
def inverse_solutions(sweep):
    start = time.perf_counter()
    solutions = [minimize_risk_inverse(eta, gamma).q_star for gamma, eta in sweep]
    elapsed = time.perf_counter() - start
    return solutions, elapsed


def test_criterion_01_round_trip(sweep, inverse_solutions):
    solutions, solve_time = inverse_solutions
    start = time.perf_counter()
    worst = max(
        float(np.abs(recover_posterior(q, gamma) - eta).max())
        for (gamma, eta), q in zip(sweep, solutions)
    )
    elapsed = solve_time + (time.perf_counter() - start)
    ok = worst < 1e-7 and elapsed < 30.0
    assert _report(1, ok, f"round-trip worst={worst:.3e} time={elapsed:.1f}s"), (worst, elapsed)


def test_criterion_02_oracle_equivalence(sweep, inverse_solutions):
    # one batched oracle call per gamma; each posterior is zero-padded to
    # the largest k, and its padded classes must come back exactly 0
    solutions, _ = inverse_solutions
    width = max(eta.size for _, eta in sweep)
    worst = 0.0
    for gamma in SWEEP_GAMMAS:
        group = [(eta, qi) for (g, eta), qi in zip(sweep, solutions) if g == gamma]
        etas = np.array([np.pad(eta, (0, width - eta.size)) for eta, _ in group])
        qp = minimize_risk_pg(etas, gamma).q_star
        for (eta, qi), row in zip(group, qp):
            worst = max(worst, float(np.abs(qi - row[: eta.size]).max()))
            assert np.all(row[eta.size :] == 0.0)
    ok = worst < 1e-5
    assert _report(2, ok, f"solver L-inf disagreement worst={worst:.3e}"), worst


def test_criterion_03_threshold_ordering():
    worst = 0.0
    ordered = True
    for gamma in THRESHOLD_GAMMAS:
        tau_oc = thresholds(gamma).tau_oc
        tau_uc = thresholds(gamma).tau_uc
        ordered &= 0.0 < tau_oc < tau_uc < 0.5
        worst = max(worst, abs(confidence_weight(tau_uc, gamma) - 1.0))
    ok = ordered and worst < 1e-9
    assert _report(3, ok, f"ordering={ordered} |weight(tau_uc)-1| worst={worst:.3e}"), worst


def test_criterion_04_high_confidence_underestimated():
    rng = np.random.default_rng(7)
    worst_margin = -math.inf
    worst_pair = 0.0
    for i in range(1000):
        gamma = float(SWEEP_GAMMAS[i % len(SWEEP_GAMMAS)])
        k = int(rng.integers(2, 11))
        top = float(rng.uniform(0.5 + 1e-9, 1.0 - 1e-9))
        while True:
            rest = rng.dirichlet(np.ones(k - 1)) * (1.0 - top)
            if k == 2 or rest.max() < top:
                break
        p = np.concatenate([[top], rest])
        recovered = recover_posterior(p, gamma)
        worst_margin = max(worst_margin, float(p.max() - recovered.max()))
        q = float(rng.uniform(1e-6, 1 - 1e-6))
        direct = recover_binary(q, gamma)
        via = float(recover_posterior(np.array([q, 1 - q]), gamma)[0])
        worst_pair = max(worst_pair, abs(direct - via))
    ok = worst_margin < 0.0 and worst_pair < 1e-10
    assert _report(
        4, ok, f"underestimation margin={worst_margin:.3e} binary agreement={worst_pair:.3e}"
    ), (worst_margin, worst_pair)


def test_criterion_05_overconfidence_witness():
    k, gamma = 5, 0.02
    top = 1.0 / k + 1e-4
    p = np.full(k, (1.0 - top) / (k - 1))
    p[0] = top
    margin = float(recover_posterior(p, gamma).max() - p.max())
    ok = margin < 0.0
    assert _report(5, ok, f"k=5 gamma=0.02 recovered-max minus top={margin:.3e}"), margin


def test_criterion_06_fixed_points_and_argmax():
    rng = np.random.default_rng(11)
    worst_fixed = 0.0
    for _ in range(500):
        k = int(rng.integers(2, 11))
        support = int(rng.integers(1, k + 1))
        p = np.zeros(k)
        p[rng.permutation(k)[:support]] = 1.0 / support
        gamma = float(rng.choice(SWEEP_GAMMAS))
        worst_fixed = max(worst_fixed, float(np.abs(recover_posterior(p, gamma) - p).max()))
    mismatches = 0
    for _ in range(10_000):
        k = int(rng.integers(2, 11))
        p = rng.dirichlet(np.ones(k))
        gamma = float(rng.choice(SWEEP_GAMMAS))
        if int(np.argmax(recover_posterior(p, gamma))) != int(np.argmax(p)):
            mismatches += 1
    ok = worst_fixed < 1e-9 and mismatches == 0
    assert _report(
        6, ok, f"fixed-point worst={worst_fixed:.3e} argmax mismatches={mismatches}/10000"
    ), (worst_fixed, mismatches)


def test_criterion_07_monotonicity_and_single_peak():
    grid = np.linspace(1e-9, 1.0 - 1e-6, 100_000)
    ok = True
    for gamma in THRESHOLD_GAMMAS:
        scores = recovery_score(grid, gamma)
        ok &= bool(np.all(np.diff(scores) > 0.0))
        weights = np.asarray(confidence_weight(grid, gamma))
        diffs = np.diff(weights)
        signs = np.sign(diffs[np.abs(diffs) > 1e-14 * np.abs(weights).max()])
        ok &= int(np.count_nonzero(np.diff(signs))) == 1
    assert _report(7, ok, f"score map monotone and weight curve single-peaked on 1e5 grid"), ok


def test_criterion_08_metric_hand_values():
    one = PredictionSet(np.array([[0.75, 0.25]]), np.array([1]))
    ece_one = bin_reliability(one, 10).ece
    two = PredictionSet(np.array([[0.6, 0.4], [0.8, 0.2]]), np.array([1, 2]))
    ece_two = bin_reliability(two, 1).ece
    cw = cw_ece(PredictionSet(np.array([[0.9, 0.1]]), np.array([1])), 1)
    nll_two = nll(PredictionSet(np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([1, 2])))
    exact = (
        abs(ece_one - 0.25) < 1e-12
        and abs(ece_two - 0.2) < 1e-12
        and abs(cw - 0.1) < 1e-12
        and abs(nll_two - 2 * math.log(2)) < 1e-12
    )
    dist = default_distribution()
    x, y = dist.sample(100_000, 5)
    calibrated = PredictionSet(dist.posterior(x), y)
    ece_cal = bin_reliability(calibrated, 10).ece
    ok = exact and ece_cal < 0.01
    assert _report(
        8, ok, f"hand values exact={exact} calibrated-predictor ece={ece_cal:.4f}"
    ), (exact, ece_cal)


def test_criterion_09_synthetic_reproduction():
    start = time.perf_counter()
    dist = default_distribution()
    seed = 123
    train = dist.sample(10_000, seed)
    test = dist.sample(100_000, seed + 1)
    # only the temperature-scaled panels use the validation draw
    val = dist.sample(10_000, seed + 2)
    grid = np.linspace(-6.0, 6.0, 601)
    eta_grid = dist.posterior(grid)

    runs = run_experiment(dist, TrainConfig(seed=seed), [5.0], train, val, test, grid, 10)
    panels = {variant: panel for _, _, _, run_panels in runs for variant, panel in run_panels}
    ce_raw, fl_raw, fl_psi = panels["ce_raw"], panels["fl5_raw"], panels["fl5_psi"]

    kld_ce = ce_raw.mean_kld
    kld_fl = fl_raw.mean_kld

    conf = fl_raw.grid_scores.max(axis=1)
    band = (conf > 0.55) & (conf < 0.95)
    uc_fraction = float((conf[band] < eta_grid.max(axis=1)[band]).mean())

    ece_raw, err_raw = fl_raw.ece, fl_raw.err
    kld_rec, ece_rec, err_rec = fl_psi.mean_kld, fl_psi.ece, fl_psi.err
    elapsed = time.perf_counter() - start

    ok = (
        kld_ce < 0.02
        and kld_fl > 5.0 * kld_ce
        and band.sum() > 0
        and uc_fraction >= 0.9
        and kld_fl / kld_rec >= 2.0
        and ece_raw / ece_rec >= 2.0
        and err_rec == err_raw
        and elapsed < 300.0
    )
    assert _report(
        9,
        ok,
        f"kld_ce={kld_ce:.4f} kld_fl={kld_fl:.4f} uc_frac={uc_fraction:.2f} "
        f"kld_drop={kld_fl / kld_rec:.1f}x ece_drop={ece_raw / ece_rec:.1f}x "
        f"err_identical={err_rec == err_raw} time={elapsed:.0f}s",
    ), (kld_ce, kld_fl, uc_fraction, ece_raw, ece_rec, elapsed)


def test_criterion_10_gradient_check():
    rng = np.random.default_rng(17)
    worst = 0.0
    for gamma in SWEEP_GAMMAS:
        model = MlpModel(k=3, hidden=8, seed=int(gamma * 100))
        for _ in range(20):
            x = float(rng.normal(0.0, 2.0))
            y = int(rng.integers(1, 4))
            worst = max(worst, grad_check(model, gamma, x, y))
    ok = worst < 1e-4
    assert _report(10, ok, f"max relative gradient error={worst:.3e}"), worst


def test_criterion_11_temperature_sanity():
    dist = default_distribution()
    x, y = dist.sample(100_000, 29)
    logits = 2.0 * np.log(np.clip(dist.posterior(x), 1e-300, None))
    fit = fit_temperature(PredictionSet(logits, y, ScoreKind.LOGITS))
    in_range = 1.9 <= fit.temperature <= 2.1
    never_worse = True
    rng = np.random.default_rng(31)
    for _ in range(5):
        raw = rng.normal(0, 3, size=(500, 4))
        labels = rng.integers(1, 5, size=500)
        check = fit_temperature(PredictionSet(raw, labels, ScoreKind.LOGITS))
        never_worse &= check.achieved <= check.baseline
    ok = in_range and never_worse
    assert _report(
        11, ok, f"fitted t={fit.temperature:.3f} achieved<=baseline={never_worse}"
    ), (fit.temperature, never_worse)
