"""Calibration and classification metrics over labeled score sets.

Binning follows the equal-width rule on the top-class probability:
sample with confidence ``c`` lands in bin ``ceil(c * n_bins)``, with
``c == 0`` assigned to bin 1 (bins therefore cover ``((j-1)/n, j/n]``).
Empty bins contribute zero to the expected calibration error; their
stored accuracy/confidence are zero, never NaN.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .core import CLAMP_EPS, ROW_SUM_TOL, as_simplex, validate_simplex_rows
from .errors import DimensionError, DomainError, EmptyDataError, InvalidSimplexError


class ScoreKind(enum.Enum):
    PROBABILITIES = "probabilities"
    LOGITS = "logits"


@dataclass
class PredictionSet:
    """Per-sample score rows plus 1-based integer labels.

    ``scores`` is ``(n, k)``; rows flagged as probabilities must each be a
    valid probability vector within ``ROW_SUM_TOL``.
    """

    scores: np.ndarray
    labels: np.ndarray
    kind: ScoreKind = ScoreKind.PROBABILITIES

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.scores.ndim != 2 or self.scores.shape[1] < 2:
            raise DimensionError(
                f"scores must be (n, k) with k >= 2, got shape {self.scores.shape}"
            )
        if self.labels.shape != (self.scores.shape[0],):
            raise DimensionError(
                f"labels shape {self.labels.shape} does not match {self.scores.shape[0]} rows"
            )
        if not np.all(np.isfinite(self.scores)):
            raise InvalidSimplexError("non-finite score entry")
        if self.n and (self.labels.min() < 1 or self.labels.max() > self.k):
            raise DomainError(f"labels must lie in [1..{self.k}]")
        if self.kind is ScoreKind.PROBABILITIES:
            validate_simplex_rows(self.scores, ROW_SUM_TOL)

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    @property
    def k(self) -> int:
        return self.scores.shape[1]

    def replace_scores(self, scores: np.ndarray, kind: ScoreKind) -> "PredictionSet":
        return PredictionSet(scores, self.labels.copy(), kind)


@dataclass(frozen=True)
class BinningReport:
    """Reliability-diagram bins and their aggregate calibration error.

    ``ece`` always equals ``sum(counts * |accuracy - confidence|) / n``
    recomputed from the stored arrays.
    """

    n_bins: int
    counts: np.ndarray
    accuracy: np.ndarray
    confidence: np.ndarray
    ece: float = field(default=0.0)

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def recompute_ece(self) -> float:
        return float(
            (self.counts * np.abs(self.accuracy - self.confidence)).sum() / self.counts.sum()
        )


def _require_probabilities(preds: PredictionSet) -> PredictionSet:
    if preds.kind is not ScoreKind.PROBABILITIES:
        raise DomainError("this metric requires probability scores, not logits")
    return preds


def _require_nonempty(preds: PredictionSet) -> PredictionSet:
    if preds.n == 0:
        raise EmptyDataError("dataset is empty")
    return preds


def bin_index(confidence: np.ndarray, n_bins: int) -> np.ndarray:
    """Equal-width bin assignment (1-based): ``ceil(c * n_bins)``, c==0 -> 1."""
    if n_bins < 1:
        raise DomainError(f"n_bins must be >= 1, got {n_bins}")
    idx = np.ceil(np.asarray(confidence, dtype=float) * n_bins).astype(int)
    return np.clip(idx, 1, n_bins)


def bin_reliability(preds: PredictionSet, n_bins: int) -> BinningReport:
    """Bin samples by top-class confidence and report per-bin statistics."""
    _require_nonempty(_require_probabilities(preds))
    conf = preds.scores.max(axis=1)
    pred = preds.scores.argmax(axis=1) + 1
    correct = (pred == preds.labels).astype(float)
    idx = bin_index(conf, n_bins)

    counts = np.zeros(n_bins)
    accuracy = np.zeros(n_bins)
    confidence = np.zeros(n_bins)
    for j in range(1, n_bins + 1):
        members = idx == j
        c = int(members.sum())
        counts[j - 1] = c
        if c:
            accuracy[j - 1] = correct[members].mean()
            confidence[j - 1] = conf[members].mean()
    ece = float((counts * np.abs(accuracy - confidence)).sum() / counts.sum())
    return BinningReport(n_bins, counts, accuracy, confidence, ece)


def ece(preds: PredictionSet, n_bins: int = 10) -> float:
    """Expected calibration error at ``n_bins`` equal-width bins."""
    return bin_reliability(preds, n_bins).ece


def cw_ece(preds: PredictionSet, n_bins: int = 10) -> float:
    """Classwise expected calibration error.

    For each class ``l`` samples are binned on their class-``l``
    probability; each bin compares the proportion of true-``l`` labels
    against the mean class-``l`` probability, weighted by bin mass, and
    the classwise sums are averaged over classes.
    """
    _require_nonempty(_require_probabilities(preds))
    n, k = preds.n, preds.k
    total = 0.0
    for label in range(1, k + 1):
        conf_l = preds.scores[:, label - 1]
        is_l = (preds.labels == label).astype(float)
        idx = bin_index(conf_l, n_bins)
        for j in range(1, n_bins + 1):
            members = idx == j
            c = int(members.sum())
            if c:
                total += (c / n) * abs(is_l[members].mean() - conf_l[members].mean())
    return total / k


def nll(preds: PredictionSet, mean: bool = False, safe: bool = False) -> float:
    """Negative log-likelihood of the labels, ``-sum_i log q_{y_i}``.

    A sum by default; ``mean=True`` divides by ``n``.  A label probability
    of exactly zero yields ``+inf`` unless ``safe=True`` clamps at
    ``CLAMP_EPS``.
    """
    _require_nonempty(_require_probabilities(preds))
    label_p = preds.scores[np.arange(preds.n), preds.labels - 1]
    if safe:
        label_p = np.clip(label_p, CLAMP_EPS, 1.0)
    elif np.any(label_p == 0.0):
        return float("inf")
    total = float(-np.log(label_p).sum())
    return total / preds.n if mean else total


def kld(p, q) -> float:
    """Kullback-Leibler divergence ``sum_i p_i log(p_i / q_i)``.

    Zero-probability ``p`` entries contribute zero; ``p_i > 0`` with
    ``q_i == 0`` yields ``+inf``.
    """
    pp = as_simplex(p)
    qq = as_simplex(q)
    if pp.size != qq.size:
        raise DimensionError(f"class counts differ: {pp.size} vs {qq.size}")
    active = pp > 0.0
    if np.any(qq[active] == 0.0):
        return float("inf")
    pa = pp[active]
    return float((pa * np.log(pa / qq[active])).sum())


def kld_rows(p_rows: np.ndarray, q_rows: np.ndarray) -> np.ndarray:
    """Row-wise KL divergence for ``(n, k)`` stacks of probability rows."""
    P = np.asarray(p_rows, dtype=float)
    Q = np.asarray(q_rows, dtype=float)
    if P.shape != Q.shape:
        raise DimensionError(f"shapes differ: {P.shape} vs {Q.shape}")
    active = P > 0.0
    out = np.zeros(P.shape[0])
    with np.errstate(divide="ignore"):
        ratio = np.where(active, np.log(np.where(active, P, 1.0)) - np.log(Q), 0.0)
    terms = np.where(active, P * ratio, 0.0)
    return terms.sum(axis=1, out=out)


def error_rate(preds: PredictionSet) -> float:
    """Fraction of samples whose argmax row (lowest index on ties)
    disagrees with the label."""
    _require_nonempty(preds)
    pred = preds.scores.argmax(axis=1) + 1
    return float((pred != preds.labels).mean())
