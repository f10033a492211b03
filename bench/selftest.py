"""Self-tests of the correctness checks in ``checks.py``.

Each check must accept a right answer and reject a wrong one.  Right
answers are computed here, without ``focal_calib``; the wrong ones are
raw scores passed off as recovered ones, a temperature off by 10%, a
perturbed threshold, a failed verify line, a recovered panel that did not
improve, and the non-finite rows the large-gamma fault produces.

``run.py`` runs these before every measurement; run them alone with
``python3 bench/selftest.py``.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
from workloads import focal_scores, write_csv_predictions, write_jsonl_predictions

GAMMA = 2.0


def _bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    """Root of ``f`` on ``[lo, hi]`` where ``f(lo) < 0 < f(hi)``."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _expect(name: str, right: list[str], wrong: list[str]) -> list[str]:
    out = []
    if right:
        out.append(f"{name}: right answer rejected: {right}")
    if not wrong:
        out.append(f"{name}: wrong answer accepted")
    return out


def _metrics_stdout(values: dict, n: int, k: int) -> str:
    return f"n={n} k={k} bins=10\n" + "".join(
        f"{key}={values[key]:.6f}\n" for key in ("ece", "cw_ece", "nll", "error_rate")
    )


def test_transform(tmp: Path, rng) -> list[str]:
    out = []
    for k, suffix, write in ((10, "csv", write_csv_predictions), (1000, "jsonl", write_jsonl_predictions)):
        q, labels = focal_scores(rng, 40, k, 1.0, (3.0, 9.0))
        write(tmp / f"right.{suffix}", labels, checks.recover(q, GAMMA))
        write(tmp / f"raw.{suffix}", labels, q)
        out += _expect(
            f"transform k={k}",
            checks.check_transform(q, labels, tmp / f"right.{suffix}", GAMMA),
            checks.check_transform(q, labels, tmp / f"raw.{suffix}", GAMMA),
        )
    return out


def test_metrics(rng) -> list[str]:
    q, labels = focal_scores(rng, 20_000, 10, 1.5, (3.0, 3.0))
    right = checks.calibration_metrics(checks.recover(q, GAMMA), labels)
    raw = checks.calibration_metrics(q, labels)
    return _expect(
        "metrics",
        checks.check_metrics(_metrics_stdout(right, *q.shape), q, labels, GAMMA),
        checks.check_metrics(_metrics_stdout(raw, *q.shape), q, labels, GAMMA),
    )


def test_ts_fit(rng) -> list[str]:
    true_t = 2.0
    z = rng.normal(0.0, 2.0, (20_000, 10))
    z[np.arange(len(z)), rng.integers(0, 10, len(z))] += 5.0
    labels = checks.sample_labels(rng, checks.softmax(z / true_t))
    t_star = _bisect(lambda t: checks.temperature_nll_slope(z, labels, t), 0.5, 8.0, 60)
    baseline = checks.temperature_nll(z, labels, 1.0)

    def stdout(t: float) -> str:
        return (
            f"temperature={t:.6f}\nobjective=nll\n"
            f"achieved={checks.temperature_nll(z, labels, round(t, 6)):.6f}\n"
            f"baseline_t1={baseline:.6f}\n"
        )

    return _expect(
        "ts-fit",
        checks.check_ts_fit(stdout(t_star), z, labels, true_t),
        checks.check_ts_fit(stdout(1.1 * t_star), z, labels, true_t),
    )


def test_curve(tmp: Path) -> list[str]:
    out, grid = [], 20
    for k in (2, 10):
        m = 1.0 / k + np.arange(1, grid + 1) / (grid + 1.0) * (1.0 - 1.0 / k)
        tops = []
        for mj in m:
            tail_eta = (1.0 - mj) / (k - 1)

            def defect(x, mj=mj, tail_eta=tail_eta):
                return float(
                    mj * checks.focal_slope(x, GAMMA)
                    - tail_eta * checks.focal_slope((1.0 - x) / (k - 1), GAMMA)
                )

            tops.append(_bisect(defect, 1.0 / k, 1.0 - 1e-15))
        for name, values in (("right", tops), ("raw", m.tolist())):
            with open(tmp / f"curve_{name}_k{k}.csv", "w") as fh:
                fh.write("max_eta,max_qstar\n")
                fh.writelines(f"{a!r},{b!r}\n" for a, b in zip(m.tolist(), values))
        out += _expect(
            f"curve k={k}",
            checks.check_curve(tmp / f"curve_right_k{k}.csv", k, GAMMA, grid),
            checks.check_curve(tmp / f"curve_raw_k{k}.csv", k, GAMMA, grid),
        )
    return out


def test_thresholds(tmp: Path) -> list[str]:
    tau_oc = _bisect(lambda v: -float(checks.weight_slope(v, GAMMA)), 1e-9, 0.5)
    tau_uc = _bisect(lambda v: 1.0 - float(checks.weight(v, GAMMA)), tau_oc, 0.5)
    v = np.linspace(0.0, 1.0, 101)
    with open(tmp / "weight.csv", "w") as fh:
        fh.write("v,weight\n")
        fh.writelines(f"{a!r},{b!r}\n" for a, b in zip(v.tolist(), checks.weight(v, GAMMA).tolist()))

    def stdout(oc: float, uc: float) -> str:
        return f"gamma=2\ntau_oc={oc:.12f}\ntau_uc={uc:.12f}\nwrote weight.csv\n"

    right = checks.check_thresholds(stdout(tau_oc, tau_uc), tmp / "weight.csv", GAMMA, 101)
    return _expect(
        "thresholds tau_oc", right,
        checks.check_thresholds(stdout(tau_oc + 1e-3, tau_uc), None, GAMMA, 101),
    ) + _expect(
        "thresholds tau_uc", [],
        checks.check_thresholds(stdout(tau_oc, tau_uc - 1e-3), None, GAMMA, 101),
    )


def test_verify() -> list[str]:
    table = "PASS  a  samples=1\nPASS  b  samples=2\n"
    return _expect(
        "verify",
        checks.check_verify(0, table + "all checks passed\n"),
        checks.check_verify(1, table + "FAIL  c  samples=3\n"),
    )


def test_synth(tmp: Path) -> list[str]:
    header = "panel,err,kld,ece\n"
    raw = "fl5_raw,0.2158,0.2251,0.2332\n"
    (tmp / "summary_right.csv").write_text(header + raw + "fl5_psi,0.2158,0.0014,0.0103\n")
    (tmp / "summary_raw.csv").write_text(header + raw + raw.replace("_raw", "_psi"))
    return _expect(
        "synth",
        checks.check_synth(tmp / "summary_right.csv"),
        checks.check_synth(tmp / "summary_raw.csv"),
    )


def test_top_near_one(tmp: Path, rng) -> list[str]:
    gamma, k = 100.0, 10
    tops = rng.uniform(0.999, 0.9999, 8)
    q = np.column_stack([tops, rng.dirichlet(np.ones(k - 1), 8) * (1.0 - tops)[:, None]])
    # log s = log q - gamma log(1 - q) - log(1 - gamma q log q / (1 - q)), normalized
    log_s = np.log(q) - gamma * np.log1p(-q) - np.log1p(-gamma * q * np.log(q) / (1.0 - q))
    labels = np.ones(len(q), dtype=int)
    write_csv_predictions(tmp / "near_right.csv", labels, checks.softmax(log_s))
    out = []
    for name, wrong in (("nan", np.full_like(q, np.nan)), ("uniform", np.full_like(q, 1.0 / k))):
        write_csv_predictions(tmp / f"near_{name}.csv", labels, wrong)
        out += _expect(
            f"top-near-one {name}",
            checks.check_top_near_one(q, tmp / "near_right.csv"),
            checks.check_top_near_one(q, tmp / f"near_{name}.csv"),
        )
    return out


def run(tmp: Path) -> list[str]:
    """Every self-test; returns the problems found (empty when all hold)."""
    tmp.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(20201118)
    return (
        test_transform(tmp, rng)
        + test_metrics(rng)
        + test_ts_fit(rng)
        + test_curve(tmp)
        + test_thresholds(tmp)
        + test_verify()
        + test_synth(tmp)
        + test_top_near_one(tmp, rng)
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        found = run(Path(tmp))
    for line in found:
        print(line)
    print("self-tests passed" if not found else f"{len(found)} self-test problems")
    sys.exit(1 if found else 0)
