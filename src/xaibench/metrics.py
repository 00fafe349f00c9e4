"""Binary-classification metric suite: accuracy, precision, recall, F1 and
rank-based ROC AUC with the Mann-Whitney tie convention."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

THRESHOLD = 0.5  # probability >= threshold predicts class 1


@dataclass(frozen=True)
class MetricReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    roc_auc: float


def labels_from_proba(proba: np.ndarray) -> np.ndarray:
    return (np.asarray(proba, dtype=float) >= THRESHOLD).astype(int)


def accuracy_score(y_true, y_pred) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    return float(np.mean(y_true == y_pred))


def average_ranks(values) -> np.ndarray:
    """1-based ranks of a 1-D array, a tie group sharing its average rank:
    half-integers, exact in float64, so equal bit for bit to any exact
    fractional ranking."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - 0.5 * (counts - 1))[inverse]


def roc_auc_score(y_true, proba) -> float:
    """Mann-Whitney AUC: P(score_pos > score_neg) + 0.5 P(equal).

    Degenerate single-class inputs return 0.5.
    """
    y_true = np.asarray(y_true)
    proba = np.asarray(proba, dtype=float)
    n_pos = int(np.sum(y_true == 1))
    n_neg = len(y_true) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    ranks = average_ranks(proba)
    rank_sum_pos = float(np.sum(ranks[y_true == 1]))
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def classification_report(y_true, proba) -> MetricReport:
    """All five metrics against true labels at the 0.5 threshold.

    Precision and recall are defined as 0 when their denominator is 0.
    """
    y_true = np.asarray(y_true)
    y_pred = labels_from_proba(proba)
    tp = int(np.sum((y_pred == 1) & (y_true == 1)))
    fp = int(np.sum((y_pred == 1) & (y_true == 0)))
    fn = int(np.sum((y_pred == 0) & (y_true == 1)))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return MetricReport(
        accuracy=accuracy_score(y_true, y_pred),
        precision=precision,
        recall=recall,
        f1=f1,
        roc_auc=roc_auc_score(y_true, proba),
    )
