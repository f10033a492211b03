"""Correctness checks computed apart from ``focal_calib``.

Outputs are parsed with the standard library's ``csv`` and ``json``
modules and compared with formulas written out in this file, never with
the package's own code.  Every ``check_*`` function returns a list of
problems; an empty list means the output passed.

The central check is the paper's recovery theorem in stationarity form:
for input scores ``q`` and recovered posterior ``r``,

    r_i * [gamma (1 - q_i)^(gamma - 1) log q_i - (1 - q_i)^gamma / q_i]

is the same for every class ``i``, because ``q`` minimizes the pointwise
focal risk under the posterior ``r``.
"""

from __future__ import annotations

import csv
import json

import numpy as np

SUM_TOL = 1e-9            # |sum(r) - 1| on a recovered row
STATIONARY_TOL = 1e-9     # relative spread of the stationarity products in a row
CURVE_STATIONARY_TOL = 1e-6   # curve rows carry the solver's 1e-12 sum defect
PRINTED_TOL = 1e-6        # values printed with six decimals
CLAMP = 1e-12             # label-probability floor of the documented NLL
TEMPERATURE_REL_TOL = 0.03
SLOPE_STEP = 1e-4         # relative step around a fitted temperature
WEIGHT_TOL = 1e-9         # |w(tau_uc) - 1|
# a search on values of w locates its flat maximum to about sqrt(eps)
SLOPE_BRACKET = 1e-6      # w' changes sign within tau_oc +- this


# ---------------------------------------------------------------- formulas

def weight(v, gamma: float) -> np.ndarray:
    """``w(v) = (1 - v)^g - g (1 - v)^(g - 1) v log v``, unfactored.

    Limits: 1 at ``v == 0`` and 0 at ``v == 1``.
    """
    v = np.asarray(v, dtype=float)
    inner = (v > 0.0) & (v < 1.0)
    vi = np.where(inner, v, 0.5)
    body = (1.0 - vi) ** gamma - gamma * (1.0 - vi) ** (gamma - 1.0) * vi * np.log(vi)
    return np.where(inner, body, np.where(v <= 0.0, 1.0, 0.0))


def weight_slope(v, gamma: float) -> np.ndarray:
    """``dw/dv = -g (1-v)^(g-1) (2 + log v) + g (g-1) (1-v)^(g-2) v log v``."""
    v = np.asarray(v, dtype=float)
    g = gamma
    return -g * (1.0 - v) ** (g - 1.0) * (2.0 + np.log(v)) + g * (g - 1.0) * (
        1.0 - v
    ) ** (g - 2.0) * v * np.log(v)


def focal_slope(q, gamma: float) -> np.ndarray:
    """``d/dq [-(1 - q)^g log q]``; zero entries map to ``-inf``."""
    q = np.asarray(q, dtype=float)
    with np.errstate(divide="ignore"):
        return gamma * (1.0 - q) ** (gamma - 1.0) * np.log(q) - (1.0 - q) ** gamma / q


def recover(q, gamma: float) -> np.ndarray:
    """Posterior rows ``r_i ∝ q_i / w(q_i)`` for score rows inside (0, 1)."""
    q = np.asarray(q, dtype=float)
    s = q / weight(q, gamma)
    return s / s.sum(axis=1, keepdims=True)


def softmax(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def sample_labels(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """One 1-based label per row, drawn from that row's probabilities."""
    below = np.cumsum(probs, axis=1) < rng.random(probs.shape[0])[:, None]
    return np.minimum(below.sum(axis=1) + 1, probs.shape[1])


def calibration_metrics(scores: np.ndarray, labels: np.ndarray, n_bins: int = 10) -> dict:
    """ECE, classwise ECE, summed clamped NLL and error rate via ``bincount``.

    Bins are ``((j-1)/n_bins, j/n_bins]`` with 0 in the first bin.
    """
    n, k = scores.shape
    conf = scores.max(axis=1)
    pred = scores.argmax(axis=1) + 1
    hit = (pred == labels).astype(float)
    b = np.clip(np.ceil(conf * n_bins).astype(int), 1, n_bins) - 1
    gap = np.bincount(b, hit, n_bins) - np.bincount(b, conf, n_bins)
    cb = np.clip(np.ceil(scores * n_bins).astype(int), 1, n_bins) - 1
    cell = (cb + n_bins * np.arange(k)).ravel()
    is_label = (labels[:, None] == np.arange(1, k + 1)).astype(float).ravel()
    cw_gap = np.bincount(cell, is_label, k * n_bins) - np.bincount(
        cell, scores.ravel(), k * n_bins
    )
    label_p = np.clip(scores[np.arange(n), labels - 1], CLAMP, 1.0)
    return {
        "ece": float(np.abs(gap).sum() / n),
        "cw_ece": float(np.abs(cw_gap).sum() / n / k),
        "nll": float(-np.log(label_p).sum()),
        "error_rate": float((pred != labels).mean()),
    }


def temperature_nll(logits: np.ndarray, labels: np.ndarray, t: float) -> float:
    """Summed NLL of ``softmax(logits / t)`` with the label floor ``CLAMP``."""
    z = logits / t
    zmax = z.max(axis=1)
    lse = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
    label_p = np.exp(z[np.arange(len(labels)), labels - 1] - lse)
    return float(-np.log(np.clip(label_p, CLAMP, 1.0)).sum())


def temperature_nll_slope(logits: np.ndarray, labels: np.ndarray, t: float) -> float:
    """``d NLL / dt = sum_i (z_{i,y} - E_{p_i} z_i) / t^2`` at ``p = softmax(z/t)``."""
    p = softmax(logits / t)
    expected = (p * logits).sum(axis=1)
    return float((logits[np.arange(len(labels)), labels - 1] - expected).sum() / t**2)


# ----------------------------------------------------------------- parsing

def read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader if row]


def read_predictions_csv(path) -> tuple[np.ndarray, np.ndarray]:
    header, rows = read_csv_rows(path)
    if header[0] != "label":
        raise ValueError(f"{path}: header starts with {header[0]!r}")
    labels = np.array([int(row[0]) for row in rows])
    scores = np.array([[float(x) for x in row[1:]] for row in rows])
    return labels, scores


def read_predictions_jsonl(path) -> tuple[np.ndarray, np.ndarray]:
    labels, scores = [], []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                labels.append(obj["label"])
                scores.append(obj["scores"])
    return np.array(labels, dtype=int), np.array(scores, dtype=float)


def read_predictions(path) -> tuple[np.ndarray, np.ndarray]:
    if str(path).endswith(".csv"):
        return read_predictions_csv(path)
    return read_predictions_jsonl(path)


def key_values(stdout: str) -> dict[str, str]:
    """``key=value`` pairs from a command's output, space- or line-separated."""
    out = {}
    for token in stdout.split():
        key, sep, value = token.partition("=")
        if sep:
            out[key] = value
    return out


def _close(printed: float, expected: float, tol: float = PRINTED_TOL) -> bool:
    return abs(printed - expected) <= tol + 1e-9 * abs(expected)


# ------------------------------------------------------------------ checks

def _row_problems(q: np.ndarray, r: np.ndarray) -> list[str]:
    """Output rows ``r`` match the input rows ``q`` in shape, are finite,
    sum to 1 and keep each row's argmax."""
    if r.shape != q.shape:
        return [f"shape {r.shape} != input shape {q.shape}"]
    if not np.all(np.isfinite(r)):
        return [f"{int((~np.isfinite(r)).any(axis=1).sum())} rows with non-finite entries"]
    problems = []
    sum_err = float(np.abs(r.sum(axis=1) - 1.0).max())
    if sum_err > SUM_TOL:
        problems.append(f"row sums off by up to {sum_err:.3e}")
    moved = int((r.argmax(axis=1) != q.argmax(axis=1)).sum())
    if moved:
        problems.append(f"argmax changed on {moved} rows")
    return problems


def check_recovered(q: np.ndarray, r: np.ndarray, gamma: float, tol: float = STATIONARY_TOL):
    """Rows of ``r`` are the recovered posterior of the rows of ``q``."""
    problems = _row_problems(q, r)
    if r.shape != q.shape or not np.all(np.isfinite(r)):
        return problems
    support = q > 0.0
    if np.any(r[~support] != 0.0):
        problems.append("mass on classes with zero score")
    with np.errstate(invalid="ignore"):
        prod = np.where(support, r * focal_slope(q, gamma), np.nan)
    spread = (np.nanmax(prod, axis=1) - np.nanmin(prod, axis=1)) / np.nanmax(
        np.abs(prod), axis=1
    )
    worst = float(spread.max())
    if not worst <= tol:
        problems.append(f"stationarity spread {worst:.3e} > {tol:.0e}")
    return problems


def check_transform(q, labels, out_path, gamma: float):
    out_labels, r = read_predictions(out_path)
    problems = check_recovered(q, r, gamma)
    if out_labels.shape != labels.shape or np.any(out_labels != labels):
        problems.append("labels changed")
    return problems


def check_metrics(stdout: str, q: np.ndarray, labels: np.ndarray, gamma: float, n_bins: int = 10):
    """Printed metrics after ``--psi`` match an independent recomputation."""
    kv = key_values(stdout)
    n, k = q.shape
    try:
        printed = {key: float(kv[key]) for key in ("ece", "cw_ece", "nll", "error_rate")}
        shape = (int(kv["n"]), int(kv["k"]), int(kv["bins"]))
    except (KeyError, ValueError) as exc:
        return [f"unreadable metrics output ({exc!r})"]
    problems = []
    if shape != (n, k, n_bins):
        problems.append(f"printed n,k,bins {shape} != {(n, k, n_bins)}")
    expected = calibration_metrics(recover(q, gamma), labels, n_bins)
    for key, value in expected.items():
        if not _close(printed[key], value):
            problems.append(f"{key} printed {printed[key]!r}, recomputed {value!r}")
    raw = calibration_metrics(q, labels, n_bins)
    if not _close(printed["error_rate"], raw["error_rate"]):
        problems.append("recovery changed the error rate")
    if not printed["ece"] < raw["ece"]:
        problems.append(f"recovery did not lower ECE ({printed['ece']} vs raw {raw['ece']})")
    return problems


def check_ts_fit(stdout: str, logits: np.ndarray, labels: np.ndarray, true_t: float):
    """The fitted temperature is the NLL's stationary point and near ``true_t``."""
    kv = key_values(stdout)
    try:
        t = float(kv["temperature"])
        achieved = float(kv["achieved"])
        baseline = float(kv["baseline_t1"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable ts-fit output ({exc!r})"]
    if kv.get("objective") != "nll":
        return [f"objective {kv.get('objective')!r}, expected 'nll'"]
    problems = []
    below = temperature_nll_slope(logits, labels, t * (1.0 - SLOPE_STEP))
    above = temperature_nll_slope(logits, labels, t * (1.0 + SLOPE_STEP))
    if not below < 0.0 < above:
        problems.append(f"NLL slope does not change sign at t={t} ({below:.3e}, {above:.3e})")
    if abs(t / true_t - 1.0) > TEMPERATURE_REL_TOL:
        problems.append(f"t={t} not within {TEMPERATURE_REL_TOL:.0%} of {true_t}")
    if not achieved <= baseline:
        problems.append(f"achieved {achieved} > baseline {baseline}")
    if not _close(achieved, temperature_nll(logits, labels, t)):
        problems.append(f"achieved {achieved} != NLL at t")
    if not _close(baseline, temperature_nll(logits, labels, 1.0)):
        problems.append(f"baseline {baseline} != NLL at t=1")
    return problems


def check_curve(path, k: int, gamma: float, grid: int):
    """Pairs ``(m, max q*)`` solve the uniform-tail stationarity condition."""
    header, rows = read_csv_rows(path)
    if header != ["max_eta", "max_qstar"] or len(rows) != grid:
        return [f"expected {grid} rows under max_eta,max_qstar"]
    m = np.array([float(row[0]) for row in rows])
    top = np.array([float(row[1]) for row in rows])
    problems = []
    expected_m = 1.0 / k + np.arange(1, grid + 1) / (grid + 1.0) * (1.0 - 1.0 / k)
    if np.abs(m - expected_m).max() > 1e-12:
        problems.append("max_eta is not the documented grid")
    tail_eta = (1.0 - m) / (k - 1)
    tail_q = (1.0 - top) / (k - 1)
    a = m * focal_slope(top, gamma)
    b = tail_eta * focal_slope(tail_q, gamma)
    worst = float((np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))).max())
    if not worst <= CURVE_STATIONARY_TOL:
        problems.append(f"stationarity defect {worst:.3e} > {CURVE_STATIONARY_TOL:.0e}")
    if not np.all(np.diff(top) > 0.0):
        problems.append("max q* does not rise with max eta")
    if k == 2 and not np.all(top[m > 0.5] < m[m > 0.5]):
        problems.append("k=2 curve is not below the diagonal above 0.5")
    return problems


def check_thresholds(stdout: str, curve_path, gamma: float, grid: int):
    """``0 < tau_oc < tau_uc < 0.5``, ``w(tau_uc) = 1`` and ``w'(tau_oc) = 0``,
    the last as a sign change of ``w'`` across ``tau_oc +- SLOPE_BRACKET``."""
    kv = key_values(stdout)
    try:
        tau_oc = float(kv["tau_oc"])
        tau_uc = float(kv["tau_uc"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable thresholds output ({exc!r})"]
    problems = []
    if not 0.0 < tau_oc < tau_uc < 0.5:
        problems.append(f"ordering fails: tau_oc={tau_oc} tau_uc={tau_uc}")
    else:
        level = abs(float(weight(tau_uc, gamma)) - 1.0)
        if level > WEIGHT_TOL:
            problems.append(f"|w(tau_uc) - 1| = {level:.3e}")
        below = float(weight_slope(tau_oc - SLOPE_BRACKET, gamma))
        above = float(weight_slope(tau_oc + SLOPE_BRACKET, gamma))
        if not below > 0.0 > above:
            problems.append(f"w' does not change sign at tau_oc ({below:.3e}, {above:.3e})")
    if curve_path is not None:
        header, rows = read_csv_rows(curve_path)
        v = np.array([float(row[0]) for row in rows])
        w = np.array([float(row[1]) for row in rows])
        if header != ["v", "weight"] or v.shape != (grid,):
            problems.append(f"weight curve is not {grid} rows of v,weight")
        elif np.abs(v - np.linspace(0.0, 1.0, grid)).max() > 1e-15:
            problems.append("weight curve grid is not linspace(0, 1)")
        elif np.abs(w - weight(v, gamma)).max() > 1e-12:
            problems.append("weight curve values disagree with w(v)")
    return problems


def check_verify(rc: int, stdout: str):
    lines = [line for line in stdout.splitlines() if line.strip()]
    table = lines[:-1]
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if not lines or lines[-1] != "all checks passed":
        problems.append("missing 'all checks passed'")
    if not table or not all(line.startswith("PASS ") for line in table):
        problems.append("not every check line reads PASS")
    return problems


def check_synth(summary_path):
    """Each ``*_psi`` panel keeps its ``*_raw`` error and lowers its KLD."""
    header, rows = read_csv_rows(summary_path)
    if header != ["panel", "err", "kld", "ece"]:
        return [f"summary header {header!r}"]
    panels = {row[0]: (float(row[1]), float(row[2])) for row in rows}
    recovered = [name for name in panels if name.endswith("_psi")]
    if not recovered:
        return ["no *_psi panels"]
    problems = []
    for name in recovered:
        raw = panels.get(name[: -len("_psi")] + "_raw")
        if raw is None:
            problems.append(f"{name} has no raw panel")
            continue
        err, kld = panels[name]
        if err != raw[0]:
            problems.append(f"{name} err {err} != raw {raw[0]}")
        if not kld < raw[1]:
            problems.append(f"{name} kld {kld} not below raw {raw[1]}")
    return problems


def check_top_near_one(q: np.ndarray, out_path):
    """Recovery at a large gamma: finite, sums to 1, same argmax, top not lowered."""
    _, r = read_predictions(out_path)
    problems = _row_problems(q, r)
    if not problems and np.any(r.max(axis=1) < q.max(axis=1)):
        problems.append("top score lowered")
    return problems
