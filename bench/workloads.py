"""Workload inputs and command sequences.

Each workload writes its inputs into a work directory and returns the
commands of one pass, in order.  A command is an ``Op``: the CLI argument
list the worker hands to ``focal_calib.cli.main``, the group its time is
reported under, and the check the parent runs on its last output.

Only ``csv_k10`` and ``jsonl_k1000`` draw their inputs from the seed.
``theory_sweep`` runs the commands at fixed parameters and
``synth_default`` the experiment at its default config with seed 0, so
those two do the same work on every seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

PSI_GAMMA = 2.0
CSV_ROWS, CSV_K = 200_000, 10
JSONL_ROWS, JSONL_K = 3_000, 1_000
CURVE_KS = (2, 10, 1000)
CURVE_GRID = 100
# the gammas ``focal-calib verify`` uses by default
VERIFY_GAMMAS = (0.5, 1.0, 2.0, 3.0, 5.0)
WEIGHT_GRID = 1001
FAULT_GAMMA = 100.0
FAULT_ROWS = 64
# every command writes under this subdirectory of the work directory; the
# worker empties it before each pass (see worker.py)
OUT = "out"


@dataclass
class Op:
    """One CLI command of a pass.

    ``timed`` is false for the command kept to show a known fault: it is
    counted in ``attempted``/``failed`` but stays out of every timing.
    """

    group: str
    argv: list[str]
    check: Callable[[int, str], list[str]]
    timed: bool = True


def _fmt(x: float) -> str:
    return repr(float(x))


def write_csv_predictions(path: Path, labels: np.ndarray, scores: np.ndarray) -> None:
    k = scores.shape[1]
    with open(path, "w") as fh:
        fh.write("label," + ",".join(f"s{i}" for i in range(1, k + 1)) + "\n")
        fh.writelines(
            f"{label}," + ",".join(map(repr, row)) + "\n"
            for label, row in zip(labels.tolist(), scores.tolist())
        )


def write_jsonl_predictions(path: Path, labels: np.ndarray, scores: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.writelines(
            json.dumps({"label": label, "scores": row}) + "\n"
            for label, row in zip(labels.tolist(), scores.tolist())
        )


def focal_scores(rng, n: int, k: int, spread: float, boost: tuple[float, float]):
    """Score rows as a focal-loss model would emit them, with labels drawn
    from the posterior the recovery transform assigns to them.

    Logits are ``N(0, spread)`` plus a ``U(boost)`` bump on one random
    class; scores are their softmax.
    """
    logits = rng.normal(0.0, spread, (n, k))
    logits[np.arange(n), rng.integers(0, k, n)] += rng.uniform(*boost, n)
    q = checks.softmax(logits)
    labels = checks.sample_labels(rng, checks.recover(q, PSI_GAMMA))
    return q, labels


def _psi_ops(work: Path, src: str, out: str, q, labels) -> list[Op]:
    return [
        Op(
            "transform",
            ["transform", "--input", src, "--output", out, "--psi", _fmt(PSI_GAMMA)],
            lambda rc, so: checks.check_transform(q, labels, work / out, PSI_GAMMA),
        ),
        Op(
            "metrics",
            ["metrics", "--input", src, "--psi", _fmt(PSI_GAMMA),
             "--csv-out", f"{OUT}/reliability.csv", "--svg-out", f"{OUT}/reliability.svg"],
            lambda rc, so: checks.check_metrics(so, q, labels, PSI_GAMMA),
        ),
    ]


def csv_k10(work: Path, seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    q, labels = focal_scores(rng, CSV_ROWS, CSV_K, 1.5, (3.0, 3.0))
    write_csv_predictions(work / "probs.csv", labels, q)

    # logits whose labels follow softmax(z / true_t): a fit should find true_t
    true_t = float(rng.uniform(1.5, 2.5))
    z = rng.normal(0.0, 2.0, (CSV_ROWS, CSV_K))
    z[np.arange(CSV_ROWS), rng.integers(0, CSV_K, CSV_ROWS)] += 5.0
    z_labels = checks.sample_labels(rng, checks.softmax(z / true_t))
    write_csv_predictions(work / "logits.csv", z_labels, z)
    q_scaled = checks.softmax(z / true_t)

    # fixed rows, independent of the seed: tops in [0.999, 0.9999] at
    # gamma=100 underflow (1 - v)^gamma inside the recovery transform
    fixed = np.random.default_rng(0)
    tops = np.concatenate([[0.9999], fixed.uniform(0.999, 0.9999, FAULT_ROWS - 1)])
    tails = fixed.dirichlet(np.ones(CSV_K - 1), FAULT_ROWS) * (1.0 - tops)[:, None]
    near_one = np.column_stack([tops, tails])
    write_csv_predictions(
        work / "top_near_one.csv", fixed.integers(1, CSV_K + 1, FAULT_ROWS), near_one
    )

    return _psi_ops(work, "probs.csv", f"{OUT}/probs_psi.csv", q, labels) + [
        Op(
            "ts_fit",
            ["ts-fit", "--input", "logits.csv"],
            lambda rc, so: checks.check_ts_fit(so, z, z_labels, true_t),
        ),
        Op(
            "transform",
            ["transform", "--input", "logits.csv", "--kind", "logits",
             "--temperature", _fmt(true_t), "--psi", _fmt(PSI_GAMMA),
             "--output", f"{OUT}/logits_psi.jsonl"],
            lambda rc, so: checks.check_transform(
                q_scaled, z_labels, work / OUT / "logits_psi.jsonl", PSI_GAMMA
            ),
        ),
        Op(
            "transform",
            ["transform", "--input", "top_near_one.csv", "--output",
             f"{OUT}/top_near_one_psi.csv", "--psi", _fmt(FAULT_GAMMA)],
            lambda rc, so: checks.check_top_near_one(
                near_one, work / OUT / "top_near_one_psi.csv"
            ),
            timed=False,
        ),
    ]


def jsonl_k1000(work: Path, seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    q, labels = focal_scores(rng, JSONL_ROWS, JSONL_K, 1.0, (6.0, 12.0))
    write_jsonl_predictions(work / "wide.jsonl", labels, q)
    return _psi_ops(work, "wide.jsonl", f"{OUT}/wide_psi.jsonl", q, labels)


def theory_sweep(work: Path, seed: int) -> list[Op]:
    ops = [Op("verify", ["verify"], checks.check_verify)]
    for k in CURVE_KS:
        out = f"{OUT}/curve_k{k}.csv"
        ops.append(
            Op(
                "curve",
                ["curve", "--k", str(k), "--gamma", _fmt(PSI_GAMMA),
                 "--grid", str(CURVE_GRID), "--out", out],
                lambda rc, so, out=out, k=k: checks.check_curve(
                    work / out, k, PSI_GAMMA, CURVE_GRID
                ),
            )
        )
    for gamma in VERIFY_GAMMAS:
        out = f"{OUT}/weight_gamma{gamma:g}.csv"
        ops.append(
            Op(
                "thresholds",
                ["thresholds", "--gamma", _fmt(gamma), "--grid", str(WEIGHT_GRID),
                 "--curve-out", out],
                lambda rc, so, out=out, gamma=gamma: checks.check_thresholds(
                    so, work / out, gamma, WEIGHT_GRID
                ),
            )
        )
    return ops


def synth_default(work: Path, seed: int) -> list[Op]:
    return [
        Op(
            "synth",
            ["--seed", "0", "synth", "--out", f"{OUT}/synth"],
            lambda rc, so: checks.check_synth(work / OUT / "synth" / "summary.csv"),
        )
    ]


WORKLOADS = {
    "csv_k10": csv_k10,
    "jsonl_k1000": jsonl_k1000,
    "theory_sweep": theory_sweep,
    "synth_default": synth_default,
}
