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

# score entries binned at once by ``cw_ece``
_BLOCK_ENTRIES = 1 << 20


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
    correct = preds.scores.argmax(axis=1) + 1 == preds.labels
    idx = bin_index(conf, n_bins) - 1
    counts = np.bincount(idx, minlength=n_bins).astype(float)
    accuracy = np.bincount(idx, weights=correct, minlength=n_bins)
    filled = counts > 0
    accuracy[filled] /= counts[filled]
    # each bin's confidences, contiguous and in row order, so that their
    # mean is summed exactly as ``conf[idx == j].mean()`` sums it
    by_bin = conf[np.argsort(idx.astype(np.min_scalar_type(n_bins)), kind="stable")]
    members = np.split(by_bin, np.cumsum(counts[:-1]).astype(int))
    confidence = np.array([m.mean() if m.size else 0.0 for m in members])
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
    # class columns are binned a block at a time to bound the temporaries
    step = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, k, step):
        conf = preds.scores[:, start : start + step]
        width = conf.shape[1]
        # bin j of the block's column c is slot c * n_bins + j
        slot = (bin_index(conf, n_bins) - 1 + n_bins * np.arange(width)).ravel()
        size = width * n_bins
        counts = np.bincount(slot, minlength=size)
        conf_sums = np.bincount(slot, weights=conf.ravel(), minlength=size)
        is_label = preds.labels[:, None] == np.arange(start + 1, start + width + 1)
        label_sums = np.bincount(slot, weights=is_label.ravel(), minlength=size)
        filled = counts > 0
        c = counts[filled]
        total += float((c / n * np.abs(label_sums[filled] / c - conf_sums[filled] / c)).sum())
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
    ``q_i == 0`` yields ``+inf``.  This is the one-row case of
    :func:`kld_rows`.
    """
    pp = as_simplex(p)
    qq = as_simplex(q)
    if pp.size != qq.size:
        raise DimensionError(f"class counts differ: {pp.size} vs {qq.size}")
    return float(kld_rows(pp[None], qq[None])[0])


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
